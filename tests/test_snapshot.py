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
        field = sht.SpectralField.zeros(1, real_valued=False)
        field.set(1, -1, 2.0 + 3.0j)
        field.set(1, 0, 4.0)
        field.set(1, 1, 5.0 - 6.0j)
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


def _golden_real_field():
    """lmax-3 real field with exact zeros, realised from values at m >= 0."""
    field = sht.SpectralField.zeros(3, real_valued=False)
    for (l, m), value in {(1, 0): 0.5, (2, 0): -1.25, (2, 1): 1.5 - 0.75j, (2, 2): 2j,
                          (3, 1): -2.0, (3, 3): 0.25 + 0.5j}.items():
        field.set(l, m, value)
    return field.enforce_reality()


def _golden_complex_field():
    """lmax-2 complex field, every coefficient set at both signs of m."""
    field = sht.SpectralField.zeros(2, real_valued=False)
    k = 0
    for l in range(3):
        for m in range(-l, l + 1):
            k += 1
            field.set(l, m, complex(0.25 * k, -0.5 * k - 0.125))
    return field


GOLDEN_REAL_SHC = (
    "52535048434f4631010000000300000001000000000000000000f43f00000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000e03f00000000000000000000000000000000000000000000000000000000"
    "00000000000000000000f0bf000000000000e8bf000000000000d8bf00000000"
    "0000f4bf0000000000000000000000000000e83f000000000000d8bf00000000"
    "00000000000000000000f03f000000000000c0bf000000000000d03f00000000"
    "000000000000000000000000000000000000f03f000000000000000000000000"
    "000000000000000000000000000000000000f0bf000000000000000000000000"
    "000000000000000000000000000000000000c03f000000000000d03f"
)
GOLDEN_COMPLEX_SHC = (
    "52535048434f4631010000000200000000000000000000000000000000000000"
    "0000d03f000000000000e4bf000000000000e03f000000000000f2bf00000000"
    "0000e83f000000000000fabf000000000000f03f00000000000001c000000000"
    "0000f43f00000000000005c0000000000000f83f00000000000009c000000000"
    "0000fc3f0000000000000dc0000000000000004000000000008010c000000000"
    "0000024000000000008012c0"
)
GOLDEN_REAL_PAIRS = [
    ("0.0", "0.0"),
    ("0.0", "0.0"), ("0.5", "0.0"), ("0.0", "0.0"),
    ("0.0", "-1.0"), ("-0.75", "-0.375"), ("-1.25", "0.0"), ("0.75", "-0.375"), ("0.0", "1.0"),
    ("-0.125", "0.25"), ("0.0", "0.0"), ("1.0", "0.0"), ("0.0", "0.0"), ("-1.0", "0.0"),
    ("0.0", "0.0"), ("0.125", "0.25"),
]
GOLDEN_COMPLEX_PAIRS = [
    ("0.25", "-0.625"), ("0.5", "-1.125"), ("0.75", "-1.625"), ("1.0", "-2.125"),
    ("1.25", "-2.625"), ("1.5", "-3.125"), ("1.75", "-3.625"), ("2.0", "-4.125"),
    ("2.25", "-4.625"),
]


def _golden_json(pairs, lmax, real_valued, time):
    coefficients = ",\n".join(f"  [\n   {re},\n   {im}\n  ]" for re, im in pairs)
    return (f'{{\n "coefficients": [\n{coefficients}\n ],\n "format": "RSPHCOF1",\n'
            f' "lmax": {lmax},\n "real_valued": {real_valued},\n "time": {time},\n'
            f' "version": 1\n}}\n')


class TestGoldenBytes:
    """The file formats written for fixed fields, byte for byte."""

    @pytest.mark.parametrize("make, time, hexdump", [
        (_golden_real_field, 1.25, GOLDEN_REAL_SHC),
        (_golden_complex_field, 0.0, GOLDEN_COMPLEX_SHC),
    ], ids=["real", "complex"])
    def test_binary(self, tmp_path, make, time, hexdump):
        path = tmp_path / "golden.shc"
        snapshot.write_snapshot(path, make(), time=time)
        assert path.read_bytes().hex() == hexdump
        back, _ = snapshot.read_snapshot(path)
        snapshot.write_snapshot(path, back, time=time)
        assert path.read_bytes().hex() == hexdump

    @pytest.mark.parametrize("make, time, expected", [
        (_golden_real_field, 1.25, _golden_json(GOLDEN_REAL_PAIRS, 3, "true", 1.25)),
        (_golden_complex_field, 0.0, _golden_json(GOLDEN_COMPLEX_PAIRS, 2, "false", 0.0)),
    ], ids=["real", "complex"])
    def test_json_twin(self, tmp_path, make, time, expected):
        path = tmp_path / "golden.json"
        snapshot.write_snapshot_json(path, make(), time=time)
        assert path.read_text() == expected
