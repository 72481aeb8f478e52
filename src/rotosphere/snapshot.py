"""Coefficient snapshot files: packed binary plus a JSON text twin.

Layout of the binary format (little endian):

    bytes  0..7   magic "RSPHCOF1"
    bytes  8..11  format version (uint32)
    bytes 12..15  truncation degree lmax (uint32)
    byte  16      real-valued flag (uint8, always 1), 3 pad bytes
    bytes 20..27  time stamp (float64)
    then (lmax+1)^2 coefficient pairs (re, im) as float64, ordered by
    degree ascending and order from -l to l within each degree.

The JSON twin stores the same ordering as [re, im] pairs and is accepted
interchangeably on read.  Fields are real: reading rejects a file whose
flag is 0, one with a non-finite coefficient, and one that violates
c_l^{-m} = (-1)^m conj(c_l^m) by more than 1e-12.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .sht import SpectralField

MAGIC = b"RSPHCOF1"
VERSION = 1
_HEADER = struct.Struct("<8sIIBxxxd")


class SnapshotFormatError(ValueError):
    pass


def _triangle(lmax: int) -> np.ndarray:
    """Mask of the entries |m| <= l of a full table; row-major it runs by
    degree, then by order from -l to l, the file order."""
    return np.abs(np.arange(-lmax, lmax + 1)) <= np.arange(lmax + 1)[:, None]


def _flatten(field: SpectralField) -> np.ndarray:
    return field.coeffs[_triangle(field.lmax)]


def _unflatten(path: Path, lmax: int, flat: np.ndarray, real_valued: bool) -> SpectralField:
    if not real_valued:
        raise SnapshotFormatError(f"{path}: flagged complex-valued; only real fields are read")
    table = np.zeros((lmax + 1, 2 * lmax + 1), dtype=complex)
    table[_triangle(lmax)] = flat
    try:
        return SpectralField.from_table(table)
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: {exc}") from None


def write_snapshot(path: str | Path, field: SpectralField, time: float = 0.0) -> None:
    path = Path(path)
    if path.suffix == ".json":
        write_snapshot_json(path, field, time)
        return
    flat = _flatten(field)
    header = _HEADER.pack(MAGIC, VERSION, field.lmax, 1, float(time))
    data = np.empty(2 * flat.size, dtype="<f8")
    data[0::2] = flat.real
    data[1::2] = flat.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def write_snapshot_json(path: str | Path, field: SpectralField, time: float = 0.0) -> None:
    """The text of `json.dumps(payload, sort_keys=True, indent=1)` plus a
    newline.  An indent switches json to its pure-Python encoder, so the
    coefficient block (the first key) is formatted here with float repr, as
    json does; a field with a non-finite coefficient goes through json."""
    flat = _flatten(field)
    header = {
        "format": MAGIC.decode(),
        "version": VERSION,
        "lmax": field.lmax,
        "real_valued": True,
        "time": float(time),
    }
    pairs = zip(flat.real.tolist(), flat.imag.tolist())
    if np.all(np.isfinite(flat)):
        block = ",\n".join(map("  [\n   %r,\n   %r\n  ]".__mod__, pairs))
        rest = json.dumps(header, sort_keys=True, indent=1)[1:]
        text = '{\n "coefficients": [\n' + block + "\n ]," + rest
    else:
        text = json.dumps(dict(header, coefficients=[list(p) for p in pairs]), sort_keys=True, indent=1)
    Path(path).write_text(text + "\n")


def read_snapshot(path: str | Path) -> tuple[SpectralField, float]:
    path = Path(path)
    blob = path.read_bytes()
    if blob[:1] in (b"{", b" ") or path.suffix == ".json":
        payload = json.loads(blob.decode())
        if not isinstance(payload, dict) or payload.get("format") != MAGIC.decode():
            raise SnapshotFormatError(f"{path}: not a coefficient snapshot")
        lmax, real_valued, time = (payload.get(k) for k in ("lmax", "real_valued", "time"))
        if not (type(lmax) is int and lmax >= 0 and type(real_valued) is bool
                and type(time) in (int, float)):
            raise SnapshotFormatError(
                f"{path}: needs an integer lmax >= 0, a boolean real_valued and a number time")
        try:
            flat = np.array([complex(re, im) for re, im in payload.get("coefficients", [])])
        except (TypeError, ValueError):
            raise SnapshotFormatError(f"{path}: coefficients must be [re, im] number pairs")
        if flat.size != (lmax + 1) ** 2:
            raise SnapshotFormatError(f"{path}: coefficient count does not match lmax")
        return _unflatten(path, lmax, flat, real_valued), float(time)
    if len(blob) < _HEADER.size:
        raise SnapshotFormatError(f"{path}: truncated header")
    magic, version, lmax, real_flag, time = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise SnapshotFormatError(f"{path}: unsupported version {version}")
    count = (lmax + 1) ** 2
    expected = _HEADER.size + 16 * count
    if len(blob) != expected:
        raise SnapshotFormatError(f"{path}: expected {expected} bytes, got {len(blob)}")
    data = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    with np.errstate(invalid="ignore"):  # 1j * inf has a NaN part; `_unflatten` rejects it
        flat = data[0::2] + 1j * data[1::2]
    return _unflatten(path, lmax, flat, bool(real_flag)), float(time)
