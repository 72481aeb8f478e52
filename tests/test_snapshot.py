import json
import struct

import numpy as np
import pytest

from rotosphere import sht, snapshot
from conftest import random_real_field


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        field = random_real_field(9, seed=42, decay=0.1)
        path = tmp_path / "state.shc"
        snapshot.write_snapshot(path, field, time=3.25)
        back, t = snapshot.read_snapshot(path)
        assert t == 3.25
        assert back.lmax == 9
        assert back.real_valued
        assert np.max(np.abs(back.coeffs - field.coeffs)) == 0.0

    def test_header_layout(self, tmp_path):
        field = sht.SpectralField.zeros(1)
        field.set(1, -1, 2.0 + 3.0j)
        field.set(1, 0, 4.0)
        field.set(1, 1, 5.0 - 6.0j)
        field.real_valued = False
        path = tmp_path / "tiny.shc"
        snapshot.write_snapshot(path, field, time=1.5)
        blob = path.read_bytes()
        magic, version, lmax, real_flag, time = struct.unpack_from("<8sIIBxxxd", blob)
        assert magic == b"RSPHCOF1"
        assert (version, lmax, real_flag, time) == (1, 1, 0, 1.5)
        # ordering: degree 0 first, then degree 1 orders -1, 0, 1
        data = np.frombuffer(blob, dtype="<f8", offset=28)
        assert list(data[:2]) == [0.0, 0.0]
        assert list(data[2:4]) == [2.0, 3.0]
        assert list(data[4:6]) == [4.0, 0.0]
        assert list(data[6:8]) == [5.0, -6.0]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.shc"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(snapshot.SnapshotFormatError):
            snapshot.read_snapshot(path)

    def test_truncated_payload_rejected(self, tmp_path):
        field = random_real_field(4, seed=1)
        path = tmp_path / "cut.shc"
        snapshot.write_snapshot(path, field)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(snapshot.SnapshotFormatError):
            snapshot.read_snapshot(path)


class TestJsonTwin:
    def test_round_trip(self, tmp_path):
        field = random_real_field(6, seed=43)
        path = tmp_path / "state.json"
        snapshot.write_snapshot_json(path, field, time=0.5)
        back, t = snapshot.read_snapshot(path)
        assert t == 0.5
        assert np.max(np.abs(back.coeffs - field.coeffs)) == 0.0

    def test_json_and_binary_agree(self, tmp_path):
        field = random_real_field(5, seed=44)
        snapshot.write_snapshot(tmp_path / "a.shc", field, time=2.0)
        snapshot.write_snapshot_json(tmp_path / "a.json", field, time=2.0)
        a, ta = snapshot.read_snapshot(tmp_path / "a.shc")
        b, tb = snapshot.read_snapshot(tmp_path / "a.json")
        assert ta == tb
        assert np.max(np.abs(a.coeffs - b.coeffs)) == 0.0

    def test_wrong_coefficient_count_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "RSPHCOF1", "version": 1, "lmax": 2,'
                        ' "real_valued": true, "time": 0.0, "coefficients": [[1.0, 0.0]]}')
        with pytest.raises(snapshot.SnapshotFormatError):
            snapshot.read_snapshot(path)

    @pytest.mark.parametrize("change", [
        {"lmax": None}, {"lmax": "0"}, {"lmax": -1}, {"real_valued": None}, {"time": "0"},
        {"coefficients": [[1.0, None]]}, {"coefficients": [[1.0]]}, {"coefficients": 1.0},
    ], ids=["no-lmax", "string-lmax", "negative-lmax", "no-real-flag", "string-time",
            "null-part", "short-pair", "number-coefficients"])
    def test_malformed_payload_rejected(self, tmp_path, change):
        payload = {"format": "RSPHCOF1", "version": 1, "lmax": 0, "real_valued": True,
                   "time": 0.0, "coefficients": [[1.0, 0.0]]}
        payload.update(change)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({k: v for k, v in payload.items() if v is not None}))
        with pytest.raises(snapshot.SnapshotFormatError):
            snapshot.read_snapshot(path)
