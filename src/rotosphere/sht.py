"""Spherical-harmonic analysis/synthesis on Gauss-Legendre grids.

Real scalar fields on the unit sphere are represented either by values on
a Gauss-Legendre x uniform-longitude grid or by their coefficients in the
orthonormal complex harmonic basis (Condon-Shortley phase, latitude
convention: the polar angle is measured from the equator, so the
associated Legendre functions are evaluated at s = sin(latitude)).

A `Transform(lmax, nlat, nlon)` describes one grid and owns its
`GaussGrid`; the pair is exact for bandlimited fields as long as
``nlat >= lmax + 1`` and ``nlon >= 2*lmax + 1``.  Latitude quadrature is
Gauss-Legendre.  In longitude, grids of at most DFT_MAX_NLON points run a
real DFT as one matmul per field against cached tables, larger grids numpy's
real FFT (`numpy.fft.rfft` and `irfft`).  Its methods map arrays to arrays
and keep any leading axes: m >= 0 half tables (..., lmax+1, lmax+1) give
grid values (..., nlat, nlon), and `analysis` maps real values back;
`bracket` fuses an advection product.  Inside, the transform computes on one
real layout, order-major columns (m, re/im x batch, l): for each order, the
real parts of every field over the degrees, then their imaginary parts.
`to_columns` and `from_columns` convert half tables, and the public methods
convert only at their boundary, so a caller that keeps columns (the RK4 step
in `dynamics`) converts once per step.

A `SpectralField` is real and stores the m >= 0 half table of its
coefficients, `halves`; the negative orders follow from
c_l^{-m} = (-1)^m conj(c_l^m).  Callers write `tr.synthesis(f.halves)` and
`SpectralField(tr.analysis(values))`.  The full table over the orders
-l..l (`SpectralField.coeffs`, read back by `SpectralField.from_table`) is
built for the file formats and for `rotate`, whose Wigner blocks mix the
orders m and -m.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache
from typing import Iterator

import numpy as np

FOUR_PI = 4.0 * math.pi


class GridShapeError(ValueError):
    """Grid and truncation sizes are inconsistent."""


class MeanConstraintError(ValueError):
    """An operation required a zero-mean field but got one with a mean."""


@dataclasses.dataclass(frozen=True)
class GaussGrid:
    """Gauss-Legendre latitude nodes (stored as s = sin(latitude)) and weights."""

    nodes: np.ndarray
    weights: np.ndarray
    longitudes: np.ndarray

    @property
    def nlat(self) -> int:
        return self.nodes.size

    @property
    def nlon(self) -> int:
        return self.longitudes.size

    @property
    def cos_lat(self) -> np.ndarray:
        return np.sqrt(1.0 - self.nodes**2)

    def integrate(self, values: np.ndarray) -> complex | float:
        """Surface integral of grid values against the area element."""
        if values.shape != (self.nlat, self.nlon):
            raise GridShapeError(
                f"values shape {values.shape} does not match grid ({self.nlat}, {self.nlon})"
            )
        return (2.0 * math.pi / self.nlon) * np.sum(self.weights @ values)


def build_grid(nlat: int, nlon: int) -> GaussGrid:
    """Gauss-Legendre nodes/weights in s = sin(latitude) plus uniform longitudes."""
    nodes, weights = np.polynomial.legendre.leggauss(nlat)
    longitudes = 2.0 * math.pi * np.arange(nlon) / nlon
    for arr in (nodes, weights, longitudes):
        arr.setflags(write=False)
    return GaussGrid(nodes=nodes, weights=weights, longitudes=longitudes)


class SpectralField:
    """Real field as its harmonic coefficients c_l^m, 0 <= l <= lmax, |m| <= l.

    `halves` holds the m >= 0 half table, h[l, m] = c_l^m, with shape
    (lmax+1, lmax+1), the array `Transform` takes.  The negative orders
    follow from c_l^{-m} = (-1)^m conj(c_l^m), and the m = 0 column is real.
    `coeffs` is the full (lmax+1, 2*lmax+1) table with column index
    lmax + m, for the file formats and `rotate`; `from_table` reads one.
    The degree-0 coefficient is carried along but is constrained to zero for
    vorticity fields (closed-surface mean).
    """

    __slots__ = ("halves",)

    def __init__(self, halves: np.ndarray):
        """Wrap a half table (lmax+1, lmax+1), without a copy if complex."""
        halves = np.asarray(halves, dtype=complex)
        if not (halves.ndim == 2 and halves.shape[0] == halves.shape[1] > 1):
            raise ValueError(f"half table of shape {halves.shape} is not (lmax+1, lmax+1)"
                             " with lmax >= 1")
        self.halves = halves

    @classmethod
    def zeros(cls, lmax: int) -> "SpectralField":
        return cls(np.zeros((lmax + 1, lmax + 1), dtype=complex))

    @classmethod
    def from_table(cls, table: np.ndarray) -> "SpectralField":
        """Field from a full (lmax+1, 2*lmax+1) table, column index lmax + m.

        The table must satisfy c_l^{-m} = (-1)^m conj(c_l^m) and have a real
        m = 0 column, to 1e-12; it is stored as its mirror average.
        """
        table = np.asarray(table, dtype=complex)
        L = table.shape[0] - 1
        if table.shape != (L + 1, 2 * L + 1):
            raise ValueError(f"coefficient table of shape {table.shape} is not (lmax+1, 2*lmax+1)")
        halves = _mirror_average(table)
        # c - h is half the mirror defect at m > 0 and i Im c_l^0 at m = 0
        weight = np.where(np.arange(L + 1) == 0, 1.0, 2.0)
        defect = float(np.max(np.abs(table[:, L:] - halves) * weight))
        if defect > 1e-12:
            raise ValueError(f"real-valued table violates c_l^-m = (-1)^m conj(c_l^m) "
                             f"by {defect:.3e}")
        return cls(halves)

    @property
    def lmax(self) -> int:
        return self.halves.shape[0] - 1

    @property
    def coeffs(self) -> np.ndarray:
        """The full (lmax+1, 2*lmax+1) table, column index lmax + m (read-only)."""
        L, a = self.lmax, self.halves
        table = np.zeros((L + 1, 2 * L + 1), dtype=complex)
        table[:, L:] = a
        table[:, L] = a[:, 0].real
        table[:, :L] = (_order_signs(L)[1:] * np.conj(a[:, 1:]))[:, ::-1]
        table.setflags(write=False)
        return table

    def copy(self) -> "SpectralField":
        return SpectralField(self.halves.copy())

    def get(self, l: int, m: int) -> complex:
        """c_l^m, with the arithmetic of `coeffs`."""
        self._check_lm(l, m)
        a = complex(self.halves[l, abs(m)])
        return complex(a.real) if m == 0 else a if m > 0 else (-1.0) ** m * a.conjugate()

    def set(self, l: int, m: int, value: complex) -> None:
        """Write c_l^m = value; c_l^{-m} follows by reality, and an m = 0
        value must be real."""
        self._check_lm(l, m)
        if m == 0:
            if complex(value).imag != 0.0:
                raise ValueError(f"an m = 0 coefficient of a real field must be real, got {value}")
            self.halves[l, 0] = complex(value).real
        else:
            self.halves[l, abs(m)] = value if m > 0 else (-1.0) ** m * np.conj(value)

    def add_to(self, l: int, m: int, value: complex) -> None:
        """c_l^m += value, with the rules of `set`."""
        self.set(l, m, self.get(l, m) + value)

    def _check_lm(self, l: int, m: int) -> None:
        if not (0 <= l <= self.lmax and abs(m) <= l):
            raise IndexError(f"(l, m) = ({l}, {m}) outside triangular table, lmax={self.lmax}")

    @property
    def mean_coefficient(self) -> complex:
        return self.get(0, 0)

    def degree_power(self) -> np.ndarray:
        """sum_m |c_l^m|^2 for each degree l (index by l): |h_l^0|^2 + 2 sum_{m>0} |h_l^m|^2."""
        weight = np.where(np.arange(self.lmax + 1) == 0, 1.0, 2.0)
        return np.abs(self.halves) ** 2 @ weight

    def norm(self) -> float:
        """L2(S^2) norm of the represented field (Parseval)."""
        return float(np.sqrt(np.sum(self.degree_power())))

    def enforce_reality(self) -> "SpectralField":
        """The field itself: every field is real.  Kept for callers written
        for the former complex layout (benchmarks/selftest.py)."""
        return self

    def scaled(self, factor: float) -> "SpectralField":
        return SpectralField(self.halves * float(factor))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        if self.lmax != other.lmax:
            raise GridShapeError("truncation mismatch in field addition")
        return SpectralField(self.halves + other.halves)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return self + other.scaled(-1.0)

    def truncated(self, lmax: int) -> "SpectralField":
        """Copy restricted (or zero-padded) to a new truncation degree."""
        out = SpectralField.zeros(lmax)
        L = min(lmax, self.lmax)
        out.halves[: L + 1, : L + 1] = self.halves[: L + 1, : L + 1]
        return out


def _mirror_average(table: np.ndarray) -> np.ndarray:
    """Half table (l, m) of the real part of the field with full table
    `table`: (c_l^m + (-1)^m conj(c_l^{-m})) / 2 for m >= 0."""
    L = table.shape[0] - 1
    pos, mirror = table[:, L:], _order_signs(L) * np.conj(table[:, L::-1])
    return 0.5 * (pos + mirror)


def _order_signs(lmax: int) -> np.ndarray:
    """(-1)^m for m = 0..lmax."""
    return np.where(np.arange(lmax + 1) % 2 == 0, 1.0, -1.0)


@dataclasses.dataclass(frozen=True)
class RotationSpec:
    """z-y-z Euler angles; the rotation acts as R_z(gamma) R_y(beta) R_z(alpha)."""

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"Euler angle {name} must be finite")

    def matrix(self) -> np.ndarray:
        return _rot_z(self.gamma) @ _rot_y(self.beta) @ _rot_z(self.alpha)


def _rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def euler_from_matrix(rot: np.ndarray) -> RotationSpec:
    """Recover z-y-z Euler angles with R = R_z(gamma) R_y(beta) R_z(alpha).

    Goes through the unit quaternion (w, x, y, z) = (cos(beta/2) cos(s),
    sin(beta/2) sin(d), sin(beta/2) cos(d), cos(beta/2) sin(s)) with
    s = (alpha+gamma)/2, d = (alpha-gamma)/2.  Near beta = 0 the angle d is
    ill-conditioned but enters only with the factor sin(beta/2), near pi the
    same holds for s and cos(beta/2), so the recovered matrix is exact to
    rounding at every beta.
    """
    if abs(np.linalg.det(rot) - 1.0) > 1e-10:
        raise ValueError("euler_from_matrix expects a proper rotation (det = +1)")
    r00, r11, r22 = np.diag(rot)
    squares = 0.25 * np.array([1.0 + r00 + r11 + r22, 1.0 + r00 - r11 - r22,
                               1.0 - r00 + r11 - r22, 1.0 - r00 - r11 + r22])
    # 4 q_i q_j from the off-diagonal entries; divide by the largest component (Shepperd)
    cross = {(0, 1): rot[2, 1] - rot[1, 2], (0, 2): rot[0, 2] - rot[2, 0], (0, 3): rot[1, 0] - rot[0, 1],
             (1, 2): rot[0, 1] + rot[1, 0], (1, 3): rot[0, 2] + rot[2, 0], (2, 3): rot[1, 2] + rot[2, 1]}
    k = int(np.argmax(squares))
    q = np.empty(4)
    q[k] = math.sqrt(squares[k])
    for j in range(4):
        if j != k:
            q[j] = cross[min(j, k), max(j, k)] / (4.0 * q[k])
    w, x, y, z = q
    half_sum, half_diff = math.atan2(z, w), math.atan2(x, y)
    beta = 2.0 * math.atan2(math.hypot(x, y), math.hypot(w, z))
    return RotationSpec(alpha=half_sum + half_diff, beta=beta, gamma=half_sum - half_diff)


# ---------------------------------------------------------------------------
# Associated Legendre tables
# ---------------------------------------------------------------------------

def normalized_legendre_table(lmax: int, s: np.ndarray) -> np.ndarray:
    """Orthonormal associated Legendre functions at the points s.

    Returns P with shape (len(s), lmax+1, lmax+1), P[i, l, m] holding the
    fully normalized function of degree l and order m >= 0 (Condon-Shortley
    phase included) evaluated at s[i]; entries with m > l are zero.  The
    harmonic is then Y_l^m = P[.., l, m] * exp(i m phi).

    Each order is `legendre_order`'s upward recurrence in l; the diagonal
    seeds are accumulated in log space so high orders near the poles do not
    underflow stepwise.
    """
    s = np.asarray(s, dtype=float)
    table = np.zeros((s.size, lmax + 1, lmax + 1))
    for m, log_ratio in enumerate(_seed_log_ratios(lmax)):
        _fill_order(table[:, :, m], m, s, log_ratio)
    return table


def legendre_order(lmax: int, m: int, s: np.ndarray) -> np.ndarray:
    """The order-m column P[:, :, m] of `normalized_legendre_table(lmax, s)`,
    shape (len(s), lmax+1), by the same arithmetic and without the other orders."""
    s = np.asarray(s, dtype=float)
    column = np.zeros((s.size, lmax + 1))
    _fill_order(column, m, s, _seed_log_ratios(m)[m])
    return column


def _seed_log_ratios(lmax: int) -> list[float]:
    """log prod_{k=1..m} sqrt((2k+1)/(2k)) for m = 0..lmax, summed in order of k:
    the diagonal seed of order m is its exp times cos^m (sign (-1)^m separate)."""
    ratios = [0.0]
    for m in range(1, lmax + 1):
        ratios.append(ratios[-1] + 0.5 * math.log((2 * m + 1) / (2 * m)))
    return ratios


def _fill_order(column: np.ndarray, m: int, s: np.ndarray, log_ratio: float) -> None:
    """Write degrees m..lmax of order m into `column` (len(s), lmax+1) from the
    seed's accumulated log ratio, by the upward three-term recurrence in l."""
    lmax = column.shape[1] - 1
    c = np.sqrt(np.maximum(0.0, 1.0 - s * s))
    if m == 0:
        pmm = np.full(s.size, 1.0 / math.sqrt(FOUR_PI))
    else:
        with np.errstate(divide="ignore"):
            logc = np.log(np.where(c > 0.0, c, 1.0))
        sign = -1.0 if m % 2 else 1.0
        pmm = sign / math.sqrt(FOUR_PI) * np.exp(log_ratio + m * logc)
        pmm = np.where(c > 0.0, pmm, 0.0)
    column[:, m] = pmm
    if m < lmax:
        column[:, m + 1] = math.sqrt(2 * m + 3) * s * pmm
    for l in range(m + 2, lmax + 1):
        a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = math.sqrt(
            ((2.0 * l + 1.0) * (l - 1.0 - m) * (l - 1.0 + m))
            / ((2.0 * l - 3.0) * (l - m) * (l + m))
        )
        column[:, l] = a * s * column[:, l - 1] - b * column[:, l - 2]


# Longitude transforms run as real matmuls against DFT tables on grids of at
# most this many longitudes and on numpy.fft above.  Measured on a 2-core
# host, the DFT bracket takes 0.65-0.72x the FFT's time at 96 longitudes
# (dealiased lmax 31), 0.30x at 106 (continuation lmax 24, 2 x 53) and
# 0.83-0.87x at 182, but 0.99-1.13x at 192 (dealiased lmax 63).
DFT_MAX_NLON = 191


def _dft_tables(lmax: int, nlon: int) -> tuple[np.ndarray, np.ndarray]:
    """Real DFT tables over the columns (m, re/im), m = 0..lmax, of Fourier rows.

    Returns the synthesis tables (2, 2(lmax+1), nlon): [0] sums
    c_m (re cos m phi - im sin m phi), [1] is d/dphi of it, with c_0 = 1 and
    c_m = 2 for the negative orders; and the analysis table (nlon, 2(lmax+1)),
    (2 pi / nlon)(cos m phi, -sin m phi).  Angles are reduced exactly, m j mod nlon.
    """
    m = np.arange(lmax + 1)[:, None]
    angle = (2.0 * math.pi / nlon) * ((m * np.arange(nlon)) % nlon)
    cos, sin = np.cos(angle), np.sin(angle)
    c = np.where(m == 0, 1.0, 2.0)
    synthesis = np.stack([np.stack([c * cos, -c * sin], axis=1),
                          np.stack([-c * m * sin, -c * m * cos], axis=1)])
    synthesis = synthesis.reshape(2, 2 * (lmax + 1), nlon)
    analysis = np.ascontiguousarray(
        (2.0 * math.pi / nlon) * np.stack([cos, -sin], axis=1).reshape(2 * (lmax + 1), nlon).T)
    for table in (synthesis, analysis):
        table.setflags(write=False)
    return synthesis, analysis


# Orders per Legendre product: a group of orders from m contracts the degrees
# l >= m only, which skips about 40% of the table's zeros at lmax 127.
ORDER_GROUP = 16


class Transform:
    """Synthesis and analysis on one Gauss grid: the degree `lmax` and the
    grid sizes `nlat` x `nlon`.

    ``nlat >= lmax + 1`` makes Gauss quadrature exact for products of two
    bandlimited fields in latitude; ``nlon >= 2*lmax + 1`` keeps all zonal
    wavenumbers up to ``lmax`` alias-free.  Smaller sizes raise
    GridShapeError.

    The methods map arrays to arrays and keep any leading axes: m >= 0 half
    tables (..., lmax+1, lmax+1) give grid values (..., nlat, nlon), and
    `analysis` maps real grid values back.  They convert at their boundary
    to the core's columns (m, re/im x batch, l), which `_to_grid` takes and
    `_analyse` and `_bracket_columns` return.  The Legendre stage contracts
    all leading axes in one matmul per group of ORDER_GROUP orders and emits
    the Fourier rows in (order, re/im, batch, latitude) order.  Up to
    DFT_MAX_NLON longitudes the longitude stage is one real matmul per field
    against cached DFT tables, so grid values come out longitude-major and are
    returned as transposed views; above it, numpy's rfft/irfft run on the same
    rows.  The tables are computed once and treated as immutable, and every
    call allocates its own work arrays; the gradient table is built on the
    first gradient or bracket call, and threads racing there build identical
    tables, so a Transform can be shared freely between threads.
    """

    def __init__(self, lmax: int, nlat: int, nlon: int):
        if lmax < 1:
            raise GridShapeError(f"lmax must be >= 1, got {lmax}")
        if nlat < lmax + 1:
            raise GridShapeError(f"nlat={nlat} too small for lmax={lmax}; need nlat >= lmax+1")
        if nlon < 2 * lmax + 1:
            raise GridShapeError(f"nlon={nlon} too small for lmax={lmax}; need nlon >= 2*lmax+1")
        self.lmax = L = lmax
        self.grid = build_grid(nlat, nlon)

        # order-major layout (m, latitude, l); degree L+1 feeds d/dtheta
        ptab = normalized_legendre_table(L + 1, self.grid.nodes).transpose(2, 0, 1)[: L + 1]
        self._p = np.ascontiguousarray(ptab[:, :, : L + 1])
        self._p_next = np.ascontiguousarray(ptab[:, :, L + 1])
        self._grad = None

        # (synthesis tables, analysis table), or None where numpy.fft runs
        self._dft = _dft_tables(L, nlon) if nlon <= DFT_MAX_NLON else None
        # quadrature weights of the Fourier rows; the DFT analysis table holds 2 pi / nlon
        self._weights = self.grid.weights if self._dft else self.grid.weights * (2.0 * math.pi / nlon)
        self._im = 1j * np.arange(L + 1)

    def _gradient_table(self) -> np.ndarray:
        """Stacked [d/dtheta, P / cos] tables (2, m, l, latitude): one product
        gives both gradient components, the longitude stage applies d/dphi.
        The build holds one table-sized temporary at most."""
        L, nlat = self.lmax, self.grid.nlat
        coslat = self.grid.cos_lat[None, :, None]
        # d/dtheta of the latitude factor, from
        # (1-s^2) d/ds Pbar_l^m = (l+1) eps_l^m Pbar_{l-1}^m - l eps_{l+1}^m Pbar_{l+1}^m
        l = np.arange(L + 2)[None, :]
        m = np.arange(L + 1)[:, None]
        eps = np.sqrt(np.where((m <= l) & (l > 0), l * l - m * m, 0) / (4.0 * l * l - 1.0))
        grad = np.zeros((2, L + 1, L + 1, nlat))
        dtheta, p_over_cos = grad.transpose(0, 1, 3, 2)
        dtheta[:, :, 1:] = ((l[:, 1 : L + 1] + 1) * eps[:, 1 : L + 1])[:, None, :] * self._p[:, :, :L]
        lower = l[:, : L + 1] * eps[:, 1:]
        dtheta[:, :, :L] -= lower[:, None, :L] * self._p[:, :, 1:]
        dtheta[:, :, L] -= lower[:, L:] * self._p_next
        dtheta /= coslat
        np.divide(self._p, coslat, out=p_over_cos)
        return grad

    # -- core on order-major real columns --------------------------------------

    @staticmethod
    def _batch(array: np.ndarray, shape: tuple[int, int], what: str) -> np.ndarray:
        """`array` of shape (..., *shape) with its leading axes as one batch axis."""
        if array.ndim < 2 or array.shape[-2:] != shape:
            raise GridShapeError(
                f"{what} of shape {array.shape} do not match (..., {shape[0]}, {shape[1]})")
        return array.reshape(-1, *shape)

    def _to_grid(self, table: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Columns (m, re/im x batch, l) -> (parts, batch, nlat, nlon) grid values of
        the Legendre tables (parts, m, l, latitude); part 1, if any, is
        differentiated in longitude."""
        orders = self.lmax + 1
        batch = cols.shape[1] // 2
        # Fourier rows (parts, m, re/im, batch, latitude)
        parts, nlat, nlon = len(table), self.grid.nlat, self.grid.nlon
        rows = np.empty((parts, orders, 2 * batch, nlat))
        for lo in range(0, orders, ORDER_GROUP):
            group = slice(lo, lo + ORDER_GROUP)
            np.matmul(cols[group, :, lo:], table[:, group, lo:], out=rows[:, group])
        if self._dft is not None:
            fields = rows.reshape(parts, 2 * orders, batch, nlat).transpose(0, 2, 1, 3)
            synthesis = self._dft[0][:parts, None].transpose(0, 1, 3, 2)  # (parts, 1, nlon, 2(L+1))
            return np.matmul(synthesis, fields).transpose(0, 1, 3, 2)
        spectra = np.zeros((parts, batch, nlat, nlon // 2 + 1), dtype=complex)
        rows = rows.reshape(parts, orders, 2, batch, nlat).transpose(2, 0, 3, 4, 1)
        spectra.real[..., :orders] = rows[0]
        spectra.imag[..., :orders] = rows[1]
        spectra[1:, ..., :orders] *= self._im
        return np.fft.irfft(spectra, n=nlon, axis=-1, norm="forward")

    def _analyse(self, values: np.ndarray) -> np.ndarray:
        """(batch, nlat, nlon) real values -> columns (m, re/im x batch, l)."""
        batch, nlat, nlon = values.shape
        orders = self.lmax + 1
        if self._dft is not None:
            # longitude-major values, as the DFT path synthesises them, are read in place
            rows = self._dft[1].T @ values.transpose(2, 0, 1).reshape(nlon, batch * nlat)
        else:
            fourier = np.fft.rfft(values, axis=-1)[..., :orders].transpose(2, 0, 1)
            rows = np.empty((orders, 2, batch, nlat))
            rows[:, 0] = fourier.real
            rows[:, 1] = fourier.imag
        rows = rows.reshape(orders, 2 * batch, nlat)
        rows *= self._weights
        out = np.zeros((orders, 2 * batch, orders))
        for lo in range(0, orders, ORDER_GROUP):
            group = slice(lo, lo + ORDER_GROUP)
            np.matmul(rows[group], self._p[group, :, lo:], out=out[group, :, lo:])
        return out

    def _bracket_columns(self, pair: np.ndarray) -> np.ndarray:
        """Columns (m, re/im, l) of (1/cos)(-psi_theta q_phi + psi_phi q_theta),
        degree 0 zeroed, from the [psi, q] columns (m, re/im x 2, l): one
        gradient pass, the grid product and one analysis."""
        if self._grad is None:
            self._grad = self._gradient_table()
        dtheta, dphi_over_cos = self._to_grid(self._grad, pair)
        # psi_phi q_theta - psi_theta q_phi: x - y is x + (-y), so this has the
        # bits of -psi_theta q_phi + psi_phi q_theta in one operation fewer
        product = dphi_over_cos[0] * dtheta[1]
        product -= dtheta[0] * dphi_over_cos[1]
        out = self._analyse(product[None])
        out[0, :, 0] = 0.0
        return out

    # -- public operations ----------------------------------------------------

    def synthesis(self, halves: np.ndarray) -> np.ndarray:
        """Grid values (..., nlat, nlon) of half tables (..., lmax+1, lmax+1)."""
        halves = np.asarray(halves)
        batch = self._batch(halves, (self.lmax + 1, self.lmax + 1), "half tables")
        values = self._to_grid(self._p.transpose(0, 2, 1)[None], to_columns(batch))[0]
        return values.reshape(*halves.shape[:-2], *values.shape[1:])

    def gradient_values(self, halves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d/dtheta, d/dphi / cos) grid values (..., nlat, nlon) of half
        tables (..., lmax+1, lmax+1), in one fused transform pass."""
        halves = np.asarray(halves)
        batch = self._batch(halves, (self.lmax + 1, self.lmax + 1), "half tables")
        if self._grad is None:
            self._grad = self._gradient_table()
        dtheta, dphi_over_cos = self._to_grid(self._grad, to_columns(batch))
        shape = (*halves.shape[:-2], *dtheta.shape[1:])
        return dtheta.reshape(shape), dphi_over_cos.reshape(shape)

    def analysis(self, values: np.ndarray) -> np.ndarray:
        """Half tables (..., lmax+1, lmax+1) of real grid values (..., nlat, nlon),
        by quadrature.  Complex values are rejected."""
        values = np.asarray(values)
        batch = self._batch(values, (self.grid.nlat, self.grid.nlon), "grid values")
        if np.iscomplexobj(values):
            raise ValueError("analysis takes real values")
        halves = from_columns(self._analyse(batch))
        return halves.reshape(*values.shape[:-2], *halves.shape[1:])

    def bracket(self, pair: np.ndarray) -> np.ndarray:
        """Half table of (1/cos)(-psi_theta q_phi + psi_phi q_theta), degree 0
        zeroed, for the half tables pair = [psi, q] (2, lmax+1, lmax+1): one
        gradient pass, the product and its analysis."""
        if pair.ndim != 3 or len(pair) != 2:
            raise GridShapeError(f"bracket pair of shape {pair.shape} is not (2, lmax+1, lmax+1)")
        pair = self._batch(np.asarray(pair), (self.lmax + 1, self.lmax + 1), "half tables")
        return from_columns(self._bracket_columns(to_columns(pair)))[0]


def to_columns(halves: np.ndarray) -> np.ndarray:
    """Half tables (..., l, m), their leading axes taken as one batch, -> the
    real columns (m, re/im x batch, l) that `Transform` computes on."""
    orders = halves.shape[-1]
    halves = halves.reshape(-1, orders, orders)
    batch = len(halves)
    cols = np.empty((orders, 2, batch, orders))
    cols[:, 0] = halves.real.transpose(2, 0, 1)
    cols[:, 1] = halves.imag.transpose(2, 0, 1)
    return cols.reshape(orders, 2 * batch, orders)


def from_columns(cols: np.ndarray) -> np.ndarray:
    """Columns (m, re/im x batch, l) -> half tables (batch, l, m), bit for bit
    the inverse of `to_columns`."""
    orders = len(cols)
    cols = cols.reshape(orders, 2, -1, orders)
    halves = np.empty((cols.shape[2], orders, orders), dtype=complex)
    halves.real = cols[:, 0].transpose(1, 2, 0)
    halves.imag = cols[:, 1].transpose(1, 2, 0)
    return halves


@lru_cache(maxsize=64)
def get_transform(lmax: int, nlat: int, nlon: int) -> Transform:
    return Transform(lmax, nlat, nlon)


def default_transform(lmax: int) -> Transform:
    """Minimal even-longitude grid for a given truncation degree."""
    return get_transform(lmax, lmax + 1, 2 * lmax + 2)


def dealiased_transform(lmax: int) -> Transform:
    """Grid on which quadratic products of bandlimited fields are exact.

    Equivalent to the classical 2/3-rule: the grid resolves 3*lmax/2
    so that products of two degree-lmax fields project back onto the
    retained modes without aliasing.
    """
    nlat = (3 * lmax) // 2 + 2
    nlon = 3 * lmax + 2
    nlon += nlon % 2  # even sizes keep numpy's FFT, used above DFT_MAX_NLON, fast
    return get_transform(lmax, nlat, nlon)


# ---------------------------------------------------------------------------
# Module-level operation wrappers
# ---------------------------------------------------------------------------

def harmonic(l: int, m: int, grid: GaussGrid) -> np.ndarray:
    """(nlat, nlon) complex values of the orthonormal harmonic of degree l, order m on the grid."""
    if abs(m) > l:
        raise ValueError(f"|m| = {abs(m)} exceeds degree l = {l}")
    lat_part = legendre_order(l, abs(m), grid.nodes)[:, l]
    if m < 0:
        lat_part = lat_part * (-1.0 if m % 2 else 1.0)
    return lat_part[:, None] * np.exp(1j * m * grid.longitudes)[None, :]


def laplacian(c: SpectralField) -> SpectralField:
    """Apply the Laplace-Beltrami operator: each degree scales by -l(l+1)."""
    return SpectralField(c.halves * laplacian_eigenvalues(c.lmax))


def require_zero_mean(c: SpectralField, mean_tol: float = 1e-10) -> None:
    """Raise unless the degree-0 coefficient vanishes to `mean_tol` relative
    to the field's norm: a constant has no Poisson solution on a closed surface."""
    mean_size = abs(c.mean_coefficient)
    if mean_size and mean_size > mean_tol * max(c.norm(), 1.0):
        raise MeanConstraintError(
            f"cannot invert Laplacian: degree-0 coefficient {mean_size:.3e} "
            f"violates the closed-surface mean constraint"
        )


def invert_laplacian(c: SpectralField, mean_tol: float = 1e-10) -> SpectralField:
    """Zero-mean solution of the Poisson problem on the sphere.

    Raises when the source carries a degree-0 component beyond tolerance:
    a constant forcing has no solution on a closed surface.
    """
    require_zero_mean(c, mean_tol)
    return SpectralField(inverse_laplacian_table(c.halves))


def inverse_laplacian_table(table: np.ndarray) -> np.ndarray:
    """Degree rows l >= 1 of a coefficient table (..., l, order) divided by
    -l(l+1), degree-0 row zeroed; full and half tables alike."""
    out = np.zeros(table.shape, dtype=table.dtype)
    out[..., 1:, :] = table[..., 1:, :] / laplacian_eigenvalues(table.shape[-2] - 1)[1:]
    return out


@lru_cache(maxsize=64)
def laplacian_eigenvalues(lmax: int) -> np.ndarray:
    """The column -l(l+1), l = 0..lmax, shape (lmax+1, 1), cached and read-only."""
    l = np.arange(lmax + 1, dtype=float)
    eigenvalues = (-l * (l + 1.0))[:, None]
    eigenvalues.setflags(write=False)
    return eigenvalues


# ---------------------------------------------------------------------------
# Rotation of spectral fields
# ---------------------------------------------------------------------------

# Delta^l = d^l(pi/2) by degree, kept through PI2_CACHE_LMAX (about 21 MiB
# at 127); higher degrees are rebuilt by the recursion on each pass.
PI2_CACHE_LMAX = 127
_pi2_tables: dict[int, np.ndarray] = {0: np.ones((1, 1))}

# i^k for k mod 4
_I_POWERS = np.array([1.0, 1j, -1.0, -1j])


def _risbo_half_step(d: np.ndarray) -> np.ndarray:
    """d^{j+1/2}(pi/2) from d^j(pi/2) (Risbo 1996): couple one spin 1/2,
    cos(pi/4) = sin(pi/4) = sqrt(1/2); d has size n = 2j + 1."""
    n = d.shape[0]
    down, up = np.sqrt(n - np.arange(n))[:, None], np.sqrt(np.arange(1.0, n + 1.0))[:, None]
    by_down, by_up = d * down.T, d * up.T
    out = np.zeros((n + 1, n + 1))
    out[:-1, :-1] = down * by_down
    out[1:, :-1] -= up * by_down
    out[:-1, 1:] += down * by_up
    out[1:, 1:] += up * by_up
    out *= math.sqrt(0.5) / n
    return out


def pi2_factors(lmax: int) -> Iterator[np.ndarray]:
    """Yield Delta^l = d^l(pi/2), indexed [l+k, l+m], for l = 0..lmax in order.

    Each degree takes two half steps of Risbo's recursion from the one
    before, so a pass over all degrees costs O(lmax^3); degrees up to
    PI2_CACHE_LMAX are kept for later passes.
    """
    d = _pi2_tables[0]
    for l in range(lmax + 1):
        if l in _pi2_tables:
            d = _pi2_tables[l]
        else:
            d = _risbo_half_step(_risbo_half_step(d))
            if l <= PI2_CACHE_LMAX:
                d = _pi2_tables.setdefault(l, d)
        yield d


def rotation_phases(rot: RotationSpec, lmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals (left, middle, right) over orders -lmax..lmax such that the
    degree-l block is diag(left) Delta^l diag(middle) Delta^l^T diag(right)
    on the orders |m| <= l:

        left_k = i^-k exp(-i k gamma), middle_j = exp(-i j beta), right_m = i^m exp(-i m alpha).
    """
    ms = np.arange(-lmax, lmax + 1)
    left = np.conj(_I_POWERS[ms % 4]) * np.exp(-1j * ms * rot.gamma)
    right = _I_POWERS[ms % 4] * np.exp(-1j * ms * rot.alpha)
    return left, np.exp(-1j * ms * rot.beta), right


def _real_matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    return a @ v.real + 1j * (a @ v.imag)


def generalized_legendre_closed_form(l: int, m: int, k: int, x: float) -> float:
    """Rodrigues-type closed form for the degree-l rotation matrix element.

    Differentiates (1-x)^(l-k)(1+x)^(l+k) l-m times by the Leibniz rule, term
    by term, so that after the (1+x)^(-(m+k)/2)(1-x)^((k-m)/2) weight every
    power is nonnegative and x = +-1 need no limit.  Practical for l <= 10
    and used to cross-check the factorised path.
    """
    a_pow, b_pow, order = l - k, l + k, l - m
    half = (k + m) / 2.0
    total = 0.0
    for a in range(max(0, order - b_pow), min(order, a_pow) + 1):
        coeff = (-1) ** a * math.comb(order, a) * math.perm(a_pow, a) * math.perm(b_pow, order - a)
        total += coeff * (1.0 - x) ** (l - a - half) * (1.0 + x) ** (a + half)
    scale = math.factorial(l + m) / (
        math.factorial(l - k) * math.factorial(l + k) * math.factorial(l - m))
    return (-1.0) ** (l - m) / 2.0**l * math.sqrt(scale) * total


def rotation_block(l: int, rot: RotationSpec, closed_form: bool = False) -> np.ndarray:
    """Degree-l unitary acting on coefficient vectors under field rotation.

    If c are the coefficients of f, the rotated field f(R^{-1} x) with
    R = R_z(gamma) R_y(beta) R_z(alpha) has coefficients U @ c with
    U[k, m] = exp(-i k gamma) d^l[k, m](beta) exp(-i m alpha).  The default
    path factorises d^l(beta) = diag(i^-k) Delta diag(exp(-i j beta)) Delta^T
    diag(i^m) through the cached Delta = d^l(pi/2); `closed_form` evaluates
    d^l from the Rodrigues form instead, the independent check at small l.
    """
    if closed_form:
        ms, x = np.arange(-l, l + 1), math.cos(rot.beta)
        # Rodrigues form indexed (l, m, k) equals d[k, m]
        d = np.array([[generalized_legendre_closed_form(l, m, k, x) for m in ms] for k in ms])
        return np.exp(-1j * ms * rot.gamma)[:, None] * d * np.exp(-1j * ms * rot.alpha)
    left, middle, right = rotation_phases(rot, l)
    *_, delta = pi2_factors(l)
    return (left[:, None] * delta * middle) @ (delta.T * right)


def rotate(c: SpectralField, r: RotationSpec, parity: bool = False) -> SpectralField:
    """Rotate a field: the result represents x -> f(R^{-1} x).

    Each degree applies the factors of `rotation_block` as real
    matrix-vector products, O(lmax^3) in all and without forming a block.
    Improper elements of the full orthogonal group are handled by the
    parity flag (the antipodal map multiplies degree l by (-1)^l).
    """
    L, table = c.lmax, c.coeffs
    out = np.zeros(table.shape, dtype=complex)
    left, middle, right = rotation_phases(r, L)
    for l, delta in enumerate(pi2_factors(L)):
        orders = slice(L - l, L + l + 1)
        v = middle[orders] * _real_matvec(delta.T, right[orders] * table[l, orders])
        out[l, orders] = left[orders] * _real_matvec(delta, v)
    if parity:
        out[1::2] *= -1.0
    # the average of the computed row and its mirror
    return SpectralField(_mirror_average(out))

