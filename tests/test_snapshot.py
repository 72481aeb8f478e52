import json
import math
import struct

import numpy as np
import pytest

from rotosphere import cli, sht, snapshot
from conftest import random_real_field, real_part


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        field = random_real_field(9, seed=42, decay=0.1)
        path = tmp_path / "state.shc"
        snapshot.write_snapshot(path, field, time=3.25)
        back, t = snapshot.read_snapshot(path)
        assert t == 3.25
        assert back.lmax == 9
        assert np.max(np.abs(back.coeffs - field.coeffs)) == 0.0

    def test_header_layout(self, tmp_path):
        field = sht.SpectralField.zeros(1)
        field.set(1, 0, 4.0)
        field.set(1, 1, 5.0 - 6.0j)
        path = tmp_path / "tiny.shc"
        snapshot.write_snapshot(path, field, time=1.5)
        blob = path.read_bytes()
        magic, version, lmax, real_flag, time = struct.unpack_from("<8sIIBxxxd", blob)
        assert magic == b"RSPHCOF1"
        assert (version, lmax, real_flag, time) == (1, 1, 1, 1.5)
        # ordering: degree 0 first, then degree 1 orders -1, 0, 1
        data = np.frombuffer(blob, dtype="<f8", offset=28)
        assert list(data[:2]) == [0.0, 0.0]
        assert list(data[2:4]) == [-5.0, -6.0]
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
    """lmax-3 real field with exact zeros, the real part of values at m >= 0."""
    return real_part(3, {(1, 0): 0.5, (2, 0): -1.25, (2, 1): 1.5 - 0.75j, (2, 2): 2j,
                         (3, 1): -2.0, (3, 3): 0.25 + 0.5j})


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
# a complex field written by an earlier version: flag 0, every coefficient set
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


def _json_dumps_twin(field, time):
    """The JSON twin as json's own encoder writes it."""
    payload = {"format": "RSPHCOF1", "version": 1, "lmax": field.lmax, "real_valued": True,
               "time": float(time),
               "coefficients": [[z.real, z.imag] for z in snapshot._flatten(field)]}
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


class TestJsonTwinBytes:
    """The directly formatted coefficient block gives json's bytes."""

    SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 0.1, -2.5e-7, 123456789.0]

    @pytest.mark.parametrize("lmax, seed", [(3, 0), (8, 1), (63, 2)])
    def test_random_fields(self, tmp_path, lmax, seed):
        rng = np.random.default_rng(seed)
        shape = (2, lmax + 1, lmax + 1)
        parts = rng.normal(size=shape) * 10.0 ** rng.uniform(-300, 300, size=shape)
        parts = np.where(rng.random(size=shape) < 0.3, rng.choice(self.SPECIAL, size=shape), parts)
        written = np.flatnonzero(np.tri(lmax + 1, dtype=bool))  # the entries m <= l
        parts[0].reshape(-1)[rng.choice(written, len(self.SPECIAL), replace=False)] = self.SPECIAL
        field = sht.SpectralField.zeros(lmax)
        field.halves.real, field.halves.imag = parts  # keeps -0.0, unlike a + 1j * b
        flat = snapshot._flatten(field).real
        assert all(np.any((flat == v) & (np.signbit(flat) == np.signbit(v))) for v in self.SPECIAL)
        for time in (0.0, 0.1, -3.5e-9, 1e300):
            path = tmp_path / "twin.json"
            snapshot.write_snapshot_json(path, field, time=time)
            assert path.read_text() == _json_dumps_twin(field, time)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_field(self, tmp_path):
        field = random_real_field(4, seed=5)
        field.halves[2, 1] = complex(math.nan, 1.0)
        field.halves[3, 0] = math.inf
        field.halves[4, 2] = complex(0.5, -math.inf)
        path = tmp_path / "twin.json"
        snapshot.write_snapshot_json(path, field, time=2.0)
        text = path.read_text()
        assert text == _json_dumps_twin(field, 2.0)
        assert "NaN" in text and "-Infinity" in text


class TestGoldenBytes:
    """The file formats written for fixed fields, byte for byte."""

    @pytest.mark.parametrize("make, time, hexdump", [
        (_golden_real_field, 1.25, GOLDEN_REAL_SHC),
    ], ids=["real"])
    def test_binary(self, tmp_path, make, time, hexdump):
        path = tmp_path / "golden.shc"
        snapshot.write_snapshot(path, make(), time=time)
        assert path.read_bytes().hex() == hexdump
        back, _ = snapshot.read_snapshot(path)
        snapshot.write_snapshot(path, back, time=time)
        assert path.read_bytes().hex() == hexdump

    @pytest.mark.parametrize("make, time, expected", [
        (_golden_real_field, 1.25, _golden_json(GOLDEN_REAL_PAIRS, 3, "true", 1.25)),
    ], ids=["real"])
    def test_json_twin(self, tmp_path, make, time, expected):
        path = tmp_path / "golden.json"
        snapshot.write_snapshot_json(path, make(), time=time)
        assert path.read_text() == expected


COMPLEX_FILES = [("complex.shc", bytes.fromhex(GOLDEN_COMPLEX_SHC)),
                 ("complex.json", _golden_json(GOLDEN_COMPLEX_PAIRS, 2, "false", 0.0).encode())]


class TestComplexFilesRejected:
    """Files of complex fields, flagged 0, are not read."""

    @pytest.mark.parametrize("name, blob", COMPLEX_FILES, ids=["binary", "json"])
    def test_read_rejected(self, tmp_path, name, blob):
        path = tmp_path / name
        path.write_bytes(blob)
        with pytest.raises(snapshot.SnapshotFormatError):
            snapshot.read_snapshot(path)

    @pytest.mark.parametrize("name, blob", COMPLEX_FILES, ids=["binary", "json"])
    def test_simulate_initial_state_is_config_error(self, tmp_path, capsys, name, blob):
        path = tmp_path / name
        path.write_bytes(blob)
        config = {"omega": 1.0, "dt": 0.05, "t_end": 0.1, "lmax": 2,
                  "initial": {"kind": "snapshot", "path": str(path)}}
        (tmp_path / "sim.json").write_text(json.dumps(config))
        assert cli.main(["simulate", str(tmp_path / "sim.json"), "--outdir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "o").exists()


def _lmax2_table():
    """The lmax-2 table of the real field with c_2^1 = 1."""
    table = np.zeros((3, 5), dtype=complex)
    table[2, 3], table[2, 1] = 1.0, -1.0
    return table


def _write_table(path, table):
    """A snapshot file of the full table as it stands, real or not."""
    lmax = table.shape[0] - 1
    flat = table[snapshot._triangle(lmax)]
    if path.suffix == ".json":
        path.write_text(json.dumps({"format": "RSPHCOF1", "version": 1, "lmax": lmax,
                                    "real_valued": True, "time": 0.0,
                                    "coefficients": [[z.real, z.imag] for z in flat]}))
        return
    data = np.empty(2 * flat.size, dtype="<f8")
    data[0::2], data[1::2] = flat.real, flat.imag
    path.write_bytes(struct.pack("<8sIIBxxxd", b"RSPHCOF1", 1, lmax, 1, 0.0) + data.tobytes())


# c_2^-1 = NaN against c_2^1 = 1, and c_1^0 = 0.5 + inf i
NON_FINITE = pytest.mark.parametrize("index, value", [
    ((2, 1), complex(math.nan, 0.0)), ((1, 2), complex(0.5, math.inf)),
], ids=["nan-mirror", "infinite-m0-imaginary"])


class TestNonFiniteTablesRejected:
    """A table with a non-finite entry is rejected: its mirror defect would be
    NaN, which no bound rejects."""

    @NON_FINITE
    def test_from_table(self, index, value):
        table = _lmax2_table()
        assert sht.SpectralField.from_table(table).get(2, 1) == 1.0
        table[index] = value
        with pytest.raises(ValueError, match="non-finite"):
            sht.SpectralField.from_table(table)

    @NON_FINITE
    @pytest.mark.parametrize("name", ["state.shc", "state.json"])
    def test_read(self, tmp_path, name, index, value):
        path, table = tmp_path / name, _lmax2_table()
        _write_table(path, table)
        assert snapshot.read_snapshot(path)[0].get(2, 1) == 1.0
        table[index] = value
        _write_table(path, table)
        with pytest.raises(snapshot.SnapshotFormatError, match="non-finite"):
            snapshot.read_snapshot(path)
