"""Spherical-harmonic analysis/synthesis on Gauss-Legendre grids.

Scalar fields on the unit sphere are represented either by values on a
Gauss-Legendre x uniform-longitude grid or by triangular tables of complex
coefficients in the orthonormal harmonic basis (Condon-Shortley phase,
latitude convention: the polar angle is measured from the equator, so the
associated Legendre functions are evaluated at s = sin(latitude)).

The transform pair is exact for bandlimited fields as long as the grid
satisfies ``nlat >= lmax + 1`` and ``nlon >= 2*lmax + 1``; quadrature in
latitude is Gauss-Legendre, longitude uses the FFT.

A `SpectralField` stores the m >= 0 half tables of real fields: a real
field has one, its negative orders following from c_l^{-m} = (-1)^m
conj(c_l^m), and a complex field two, its real and imaginary parts.
`Transform` contracts the orders m >= 0 of half tables with the Legendre
table and uses rfft/irfft in longitude.  The full table over the orders
-l..l is built only where a file format or point evaluation needs it
(`SpectralField.coeffs`, read back by `SpectralField.from_table`).
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache
from typing import Iterator

import numpy as np
import scipy.fft

FOUR_PI = 4.0 * math.pi


class GridShapeError(ValueError):
    """Grid and truncation sizes are inconsistent."""


class MeanConstraintError(ValueError):
    """An operation required a zero-mean field but got one with a mean."""


@dataclasses.dataclass(frozen=True)
class TruncationSpec:
    """Triangular truncation degree plus the grid sizes used with it.

    ``nlat >= lmax + 1`` makes Gauss quadrature exact for products of two
    bandlimited fields in latitude; ``nlon >= 2*lmax + 1`` keeps all zonal
    wavenumbers up to ``lmax`` alias-free.
    """

    lmax: int
    nlat: int
    nlon: int

    def __post_init__(self):
        if self.lmax < 1:
            raise GridShapeError(f"lmax must be >= 1, got {self.lmax}")
        if self.nlat < self.lmax + 1:
            raise GridShapeError(
                f"nlat={self.nlat} too small for lmax={self.lmax}; need nlat >= lmax+1"
            )
        if self.nlon < 2 * self.lmax + 1:
            raise GridShapeError(
                f"nlon={self.nlon} too small for lmax={self.lmax}; need nlon >= 2*lmax+1"
            )

    @classmethod
    def for_lmax(cls, lmax: int) -> "TruncationSpec":
        """Minimal even-longitude grid for a given truncation degree."""
        return cls(lmax=lmax, nlat=lmax + 1, nlon=2 * lmax + 2)

    @classmethod
    def dealiased(cls, lmax: int) -> "TruncationSpec":
        """Grid on which quadratic products of bandlimited fields are exact.

        Equivalent to the classical 2/3-rule: the grid resolves 3*lmax/2
        so that products of two degree-lmax fields project back onto the
        retained modes without aliasing.
        """
        nlat = (3 * lmax) // 2 + 2
        nlon = 3 * lmax + 2
        nlon += nlon % 2  # even sizes keep the FFT fast
        return cls(lmax=lmax, nlat=nlat, nlon=nlon)


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

    @property
    def latitudes(self) -> np.ndarray:
        return np.arcsin(self.nodes)

    def integrate(self, values: np.ndarray) -> complex | float:
        """Surface integral of grid values against the area element."""
        if values.shape != (self.nlat, self.nlon):
            raise GridShapeError(
                f"values shape {values.shape} does not match grid ({self.nlat}, {self.nlon})"
            )
        return (2.0 * math.pi / self.nlon) * np.sum(self.weights @ values)


def build_grid(spec: TruncationSpec) -> GaussGrid:
    """Gauss-Legendre nodes/weights in s = sin(latitude) plus uniform longitudes."""
    nodes, weights = np.polynomial.legendre.leggauss(spec.nlat)
    longitudes = 2.0 * math.pi * np.arange(spec.nlon) / spec.nlon
    for arr in (nodes, weights, longitudes):
        arr.setflags(write=False)
    return GaussGrid(nodes=nodes, weights=weights, longitudes=longitudes)


@dataclasses.dataclass
class GridField:
    """Field sampled on a Gauss grid, indexed (latitude node, longitude)."""

    values: np.ndarray
    grid: GaussGrid

    def __post_init__(self):
        if self.values.shape != (self.grid.nlat, self.grid.nlon):
            raise GridShapeError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.nlat}, {self.grid.nlon})"
            )

    def integral(self) -> complex | float:
        return self.grid.integrate(self.values)


class SpectralField:
    """Triangular table of harmonic coefficients c_l^m, 0 <= l <= lmax, |m| <= l.

    The field is stored by m >= 0 half tables (l, m) in `halves`.  A real
    field has one, A with c_l^m = A_l^m; its negative orders follow from
    c_l^{-m} = (-1)^m conj(c_l^m) and its m = 0 column is real.  A complex
    field f = A + iB has two, the half tables of the real fields A and B:
    c_l^m = A_l^m + i B_l^m and c_l^{-m} = (-1)^m (conj(A_l^m) + i conj(B_l^m)).
    `coeffs` is the full (lmax+1, 2*lmax+1) table with column index lmax + m,
    for file formats and point evaluation; `from_table` reads one.  The
    degree-0 coefficient is carried along but is constrained to zero for
    vorticity fields (closed-surface mean).
    """

    __slots__ = ("halves",)

    def __init__(self, halves: np.ndarray):
        """Wrap half tables (1 or 2, lmax+1, lmax+1), without a copy if complex."""
        halves = np.asarray(halves, dtype=complex)
        if not (halves.ndim == 3 and len(halves) in (1, 2) and halves.shape[1] == halves.shape[2] > 1):
            raise ValueError(f"half tables of shape {halves.shape} are not (1 or 2, lmax+1, lmax+1)"
                             " with lmax >= 1")
        self.halves = halves

    @classmethod
    def zeros(cls, lmax: int, real_valued: bool = True) -> "SpectralField":
        return cls(np.zeros((1 if real_valued else 2, lmax + 1, lmax + 1), dtype=complex))

    @classmethod
    def from_table(cls, table: np.ndarray, real_valued: bool) -> "SpectralField":
        """Field from a full (lmax+1, 2*lmax+1) table, column index lmax + m.

        A real-flagged table must satisfy c_l^{-m} = (-1)^m conj(c_l^m) and
        have a real m = 0 column, to 1e-12; it is stored as the average
        (c_l^m + (-1)^m conj(c_l^{-m})) / 2.
        """
        table = np.asarray(table, dtype=complex)
        L = table.shape[0] - 1
        if table.shape != (L + 1, 2 * L + 1):
            raise ValueError(f"coefficient table of shape {table.shape} is not (lmax+1, 2*lmax+1)")
        # half tables A and B of the real and imaginary parts
        pos, mirror = table[:, L:], _order_signs(L) * np.conj(table[:, L::-1])
        halves = np.stack([0.5 * (pos + mirror), (pos - mirror) / 2j])
        if real_valued:
            # |B| is half the mirror defect at m > 0 and |Im c_l^0| at m = 0
            defect = float(np.max(np.abs(halves[1]) * np.where(np.arange(L + 1) == 0, 1.0, 2.0)))
            if defect > 1e-12:
                raise ValueError(f"real-valued table violates c_l^-m = (-1)^m conj(c_l^m) "
                                 f"by {defect:.3e}")
            halves = halves[:1]
        return cls(halves)

    @classmethod
    def from_harmonic(cls, lmax: int, l: int, m: int, amplitude: complex = 1.0,
                      real_valued: bool = False) -> "SpectralField":
        """amplitude * Y_l^m, or its real part when `real_valued`."""
        field = cls.zeros(lmax, real_valued=False)
        field.set(l, m, amplitude)
        return field.enforce_reality() if real_valued else field

    @property
    def lmax(self) -> int:
        return self.halves.shape[1] - 1

    @property
    def real_valued(self) -> bool:
        return len(self.halves) == 1

    @property
    def coeffs(self) -> np.ndarray:
        """The full (lmax+1, 2*lmax+1) table, column index lmax + m (read-only)."""
        L, a = self.lmax, self.halves[0]
        table = np.zeros((L + 1, 2 * L + 1), dtype=complex)
        if self.real_valued:
            table[:, L:] = a
            table[:, L] = a[:, 0].real
            neg = np.conj(a[:, 1:])
        else:
            b = self.halves[1]
            table[:, L:] = a + 1j * b
            neg = np.conj(a[:, 1:]) + 1j * np.conj(b[:, 1:])
        table[:, :L] = (_order_signs(L)[1:] * neg)[:, ::-1]
        table.setflags(write=False)
        return table

    def copy(self) -> "SpectralField":
        return SpectralField(self.halves.copy())

    def get(self, l: int, m: int) -> complex:
        """c_l^m, with the arithmetic of `coeffs`."""
        self._check_lm(l, m)
        k = abs(m)
        sign = (-1.0) ** k
        if self.real_valued:
            a = complex(self.halves[0, l, k])
            return complex(a.real) if m == 0 else a if m > 0 else sign * a.conjugate()
        a, b = self.halves[:, l, k].tolist()
        return a + 1j * b if m >= 0 else sign * (a.conjugate() + 1j * b.conjugate())

    def set(self, l: int, m: int, value: complex) -> None:
        """Write c_l^m = value.  On a real field c_l^{-m} follows by reality,
        and an m = 0 value must be real; on a complex field c_l^{-m} is kept."""
        self._check_lm(l, m)
        k = abs(m)
        if not self.real_valued:
            # split the pair c_l^k, c_l^-k into A and B as `from_table` does
            pos = value if m >= 0 else self.get(l, k)
            neg = value if m <= 0 else self.get(l, -k)
            mirror = (-1.0) ** k * complex(neg).conjugate()
            self.halves[:, l, k] = 0.5 * (pos + mirror), (pos - mirror) / 2j
        elif m == 0:
            if complex(value).imag != 0.0:
                raise ValueError(f"an m = 0 coefficient of a real field must be real, got {value}")
            self.halves[0, l, 0] = complex(value).real
        else:
            self.halves[0, l, k] = value if m > 0 else (-1.0) ** k * np.conj(value)

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
        """sum_m |c_l^m|^2 for each degree l (index by l): per half table,
        |h_l^0|^2 + 2 sum_{m>0} |h_l^m|^2."""
        weight = np.where(np.arange(self.lmax + 1) == 0, 1.0, 2.0)
        return np.sum(np.abs(self.halves) ** 2 @ weight, axis=0)

    def norm(self) -> float:
        """L2(S^2) norm of the represented field (Parseval)."""
        return float(np.sqrt(np.sum(self.degree_power())))

    def enforce_reality(self) -> "SpectralField":
        """Keep the real part of the field: drop the half table B."""
        self.halves = self.halves[:1]
        return self

    def scaled(self, factor: complex) -> "SpectralField":
        factor = complex(factor)
        if factor.imag == 0.0:
            return SpectralField(self.halves * factor.real)
        # (A + iB)(x + iy) = (Ax - By) + i(Ay + Bx), B = 0 for a real field
        a, b = self.halves[0], (0.0 if self.real_valued else self.halves[1])
        return SpectralField(np.stack([a * factor.real - b * factor.imag,
                                       a * factor.imag + b * factor.real]))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        if self.lmax != other.lmax:
            raise GridShapeError("truncation mismatch in field addition")
        # a real field adds to the half table A alone
        short, long = sorted((self.halves, other.halves), key=len)
        out = long.copy()
        out[: len(short)] += short
        return SpectralField(out)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return self + other.scaled(-1.0)

    def truncated(self, lmax: int) -> "SpectralField":
        """Copy restricted (or zero-padded) to a new truncation degree."""
        out = SpectralField.zeros(lmax, self.real_valued)
        L = min(lmax, self.lmax)
        out.halves[:, : L + 1, : L + 1] = self.halves[:, : L + 1, : L + 1]
        return out


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

    Upward three-term recurrence in l for each order, with the diagonal
    seed accumulated in log space so high orders near the poles do not
    underflow stepwise.
    """
    s = np.asarray(s, dtype=float)
    npts = s.size
    c = np.sqrt(np.maximum(0.0, 1.0 - s * s))
    table = np.zeros((npts, lmax + 1, lmax + 1))

    # log of prod_{k=1..m} sqrt((2k+1)/(2k)); sign (-1)^m applied separately
    with np.errstate(divide="ignore"):
        logc = np.log(np.where(c > 0.0, c, 1.0))
    log_ratio = 0.0
    for m in range(lmax + 1):
        if m == 0:
            pmm = np.full(npts, 1.0 / math.sqrt(FOUR_PI))
        else:
            log_ratio += 0.5 * math.log((2 * m + 1) / (2 * m))
            sign = -1.0 if m % 2 else 1.0
            pmm = sign / math.sqrt(FOUR_PI) * np.exp(log_ratio + m * logc)
            pmm = np.where(c > 0.0, pmm, 0.0)
        table[:, m, m] = pmm
        if m < lmax:
            table[:, m + 1, m] = math.sqrt(2 * m + 3) * s * pmm
        for l in range(m + 2, lmax + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(
                ((2.0 * l + 1.0) * (l - 1.0 - m) * (l - 1.0 + m))
                / ((2.0 * l - 3.0) * (l - m) * (l + m))
            )
            table[:, l, m] = a * s * table[:, l - 1, m] - b * table[:, l - 2, m]
    return table


def _batch_major(y: np.ndarray) -> np.ndarray:
    """(order, rows, 2*batch) real columns [re, im] -> (batch, rows, order) complex view."""
    return y.view(complex).transpose(2, 1, 0)


def _join(parts: np.ndarray, real_valued: bool) -> np.ndarray:
    return parts[0] if real_valued else parts[0] + 1j * parts[1]


class Transform:
    """Precomputed synthesis/analysis machinery for one truncation spec.

    Half tables (batch, l, m) of real fields are contracted with the
    Legendre table in one matmul batched over the orders m >= 0.  All
    tables are computed once and treated as immutable; the methods are
    pure functions of their inputs, so a Transform can be shared freely
    between threads.
    """

    def __init__(self, spec: TruncationSpec):
        self.spec = spec
        self.lmax = spec.lmax
        self.grid = build_grid(spec)
        L = self.lmax
        coslat = self.grid.cos_lat[None, :, None]

        # order-major layout (m, latitude, l); degree L+1 feeds d/dtheta
        ptab = normalized_legendre_table(L + 1, self.grid.nodes).transpose(2, 0, 1)[: L + 1]
        self._p = np.ascontiguousarray(ptab[:, :, : L + 1])

        # d/dtheta of the latitude factor, from
        # (1-s^2) d/ds Pbar_l^m = (l+1) eps_l^m Pbar_{l-1}^m - l eps_{l+1}^m Pbar_{l+1}^m
        l = np.arange(L + 2)[None, :]
        m = np.arange(L + 1)[:, None]
        eps = np.sqrt(np.where((m <= l) & (l > 0), l * l - m * m, 0) / (4.0 * l * l - 1.0))
        # stacked [d/dtheta ; P / cos] rows: one product gives both gradient
        # components, the i*m factor of d/dphi is applied after it.  Built in
        # place, so the build holds one table-sized temporary at most.
        self._grad = np.zeros((L + 1, 2 * spec.nlat, L + 1))
        dtheta = self._grad[:, : spec.nlat]
        dtheta[:, :, 1:] = ((l[:, 1 : L + 1] + 1) * eps[:, 1 : L + 1])[:, None, :] * ptab[:, :, :L]
        dtheta -= (l[:, : L + 1] * eps[:, 1:])[:, None, :] * ptab[:, :, 1:]
        dtheta /= coslat
        np.divide(self._p, coslat, out=self._grad[:, spec.nlat :])

        self._weights = self.grid.weights[:, None] * (2.0 * math.pi / spec.nlon)
        self._im = 1j * np.arange(L + 1)

    # -- core on m >= 0 half tables ---------------------------------------------

    def _halves_of(self, field: SpectralField | np.ndarray) -> np.ndarray:
        """The half tables of a field, or a batch of half tables, checked against lmax."""
        halves = field.halves if isinstance(field, SpectralField) else field
        if halves.ndim != 3 or halves.shape[1:] != (self.lmax + 1, self.lmax + 1):
            raise GridShapeError(f"half tables of shape {halves.shape} do not match lmax={self.lmax}")
        return halves

    def _to_grid(self, table: np.ndarray, halves: np.ndarray) -> np.ndarray:
        """(batch, l, m) half tables -> (batch, rows, m) Fourier rows, with one
        real BLAS product per order on the columns [h_0.re, h_0.im, h_1.re, ...]."""
        cols = np.ascontiguousarray(halves.transpose(2, 1, 0), dtype=complex).view(float)
        return _batch_major(np.matmul(table, cols))

    def _irfft(self, spectra: np.ndarray) -> np.ndarray:
        return scipy.fft.irfft(spectra, n=self.spec.nlon, axis=-1, norm="forward")

    def _analyse(self, values: np.ndarray) -> np.ndarray:
        """(batch, nlat, nlon) real values -> (batch, l, m) half tables."""
        # along axis 0 of the (nlon, nlat, batch) view the Fourier rows come
        # out order-major, so the product needs no layout copy
        fourier = np.ascontiguousarray(scipy.fft.rfft(values.transpose(2, 1, 0), axis=0)[: self.lmax + 1])
        fourier *= self._weights
        return _batch_major(np.matmul(self._p.transpose(0, 2, 1), fourier.view(float)))

    # -- public operations ----------------------------------------------------

    def synthesis(self, field: SpectralField | np.ndarray) -> GridField | np.ndarray:
        """Evaluate the field on the grid.

        m >= 0 half tables of real fields with a leading batch axis, shape
        (batch, lmax+1, lmax+1), give grid values (batch, nlat, nlon).
        """
        values = self._irfft(self._to_grid(self._p, self._halves_of(field)))
        if not isinstance(field, SpectralField):
            return values
        return GridField(values=_join(values, field.real_valued), grid=self.grid)

    def gradient_values(self, fields: SpectralField | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d/dtheta, d/dphi / cos) grid values in one fused transform pass.

        `fields` is a SpectralField, or m >= 0 half tables of real fields
        with a leading batch axis, shape (batch, lmax+1, lmax+1); both
        outputs then carry the same batch axis.
        """
        spectra = self._to_grid(self._grad, self._halves_of(fields))
        nlat = self.spec.nlat
        spectra[:, nlat:] *= self._im
        values = self._irfft(spectra)
        dtheta, dphi_over_cos = values[:, :nlat], values[:, nlat:]
        if isinstance(fields, SpectralField):
            return _join(dtheta, fields.real_valued), _join(dphi_over_cos, fields.real_valued)
        return dtheta, dphi_over_cos

    def analysis(self, values: np.ndarray | GridField) -> SpectralField | np.ndarray:
        """Project grid values onto the harmonic basis by quadrature.

        Values of shape (nlat, nlon) give a SpectralField, real for real
        values and complex for complex ones.  Real values with a leading
        batch axis, shape (batch, nlat, nlon), give the m >= 0 half tables
        (batch, lmax+1, lmax+1) of the real fields.
        """
        values = np.asarray(values.values if isinstance(values, GridField) else values)
        if values.ndim not in (2, 3) or values.shape[-2:] != (self.spec.nlat, self.spec.nlon):
            raise GridShapeError(
                f"values shape {values.shape} does not match grid "
                f"({self.spec.nlat}, {self.spec.nlon})"
            )
        if values.ndim == 3:
            if np.iscomplexobj(values):
                raise ValueError("batched analysis takes real values")
            return self._analyse(values)
        if np.isrealobj(values):
            return SpectralField(self._analyse(values[None]))
        return SpectralField(self._analyse(np.stack([values.real, values.imag])))

    def max_abs(self, field: SpectralField) -> float:
        return float(np.max(np.abs(self.synthesis(field).values)))


@lru_cache(maxsize=64)
def get_transform(lmax: int, nlat: int, nlon: int) -> Transform:
    return Transform(TruncationSpec(lmax=lmax, nlat=nlat, nlon=nlon))


def transform_for(spec: TruncationSpec) -> Transform:
    return get_transform(spec.lmax, spec.nlat, spec.nlon)


def default_transform(lmax: int) -> Transform:
    return transform_for(TruncationSpec.for_lmax(lmax))


def dealiased_transform(lmax: int) -> Transform:
    return transform_for(TruncationSpec.dealiased(lmax))


# ---------------------------------------------------------------------------
# Module-level operation wrappers
# ---------------------------------------------------------------------------

def harmonic(l: int, m: int, grid: GaussGrid) -> GridField:
    """Sample the orthonormal complex harmonic of degree l, order m on the grid."""
    if abs(m) > l:
        raise ValueError(f"|m| = {abs(m)} exceeds degree l = {l}")
    ptab = normalized_legendre_table(l, grid.nodes)
    lat_part = ptab[:, l, abs(m)]
    if m < 0:
        lat_part = lat_part * (-1.0 if m % 2 else 1.0)
    values = lat_part[:, None] * np.exp(1j * m * grid.longitudes)[None, :]
    return GridField(values=values, grid=grid)


def laplacian(c: SpectralField) -> SpectralField:
    """Apply the Laplace-Beltrami operator: each degree scales by -l(l+1)."""
    l = np.arange(c.lmax + 1, dtype=float)
    return SpectralField(c.halves * (-l * (l + 1.0))[:, None])


def require_zero_mean(c: SpectralField, mean_tol: float = 1e-10) -> None:
    """Raise unless the degree-0 coefficient vanishes to `mean_tol` relative
    to the field's norm: a constant has no Poisson solution on a closed surface."""
    mean_size = abs(c.mean_coefficient)
    scale = max(c.norm(), 1.0)
    if mean_size > mean_tol * scale:
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
    l = np.arange(1, table.shape[-2], dtype=float)
    out = np.zeros(table.shape, dtype=table.dtype)
    out[..., 1:, :] = table[..., 1:, :] / (-l * (l + 1.0))[:, None]
    return out


def evaluate(field: SpectralField, phi: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Pointwise evaluation of a spectral field at arbitrary (phi, s) locations."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if phi.shape != s.shape:
        raise ValueError("phi and s must have matching shapes")
    L, table = field.lmax, field.coeffs
    ptab = normalized_legendre_table(L, s.ravel())
    out = np.zeros(phi.size, dtype=complex)
    cpos = table[:, L:]
    phases = np.exp(1j * np.outer(phi.ravel(), np.arange(L + 1)))
    out += np.einsum("ilm,lm,im->i", ptab, cpos, phases)
    signs = np.where(np.arange(1, L + 1) % 2 == 0, 1.0, -1.0)
    cneg = table[:, L - 1 :: -1] * signs[None, :]
    out += np.einsum("ilm,lm,im->i", ptab[:, :, 1:], cneg, np.conj(phases[:, 1:]))
    if field.real_valued:
        out = out.real
    return out.reshape(phi.shape)


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
    rotated = SpectralField.from_table(out, real_valued=False)
    # a real field keeps the real part, the average of the computed row and its mirror
    return rotated.enforce_reality() if c.real_valued else rotated


def rotate_field_values(field: SpectralField, rot: RotationSpec, grid: GaussGrid,
                        parity: bool = False) -> np.ndarray:
    """Oracle for `rotate`: sample f(R^{-1} x) on the grid by point evaluation."""
    R = rot.matrix()
    if parity:
        R = -R
    s_grid = np.broadcast_to(grid.nodes[:, None], (grid.nlat, grid.nlon))
    phi_grid = np.broadcast_to(grid.longitudes[None, :], (grid.nlat, grid.nlon))
    cos_lat = np.sqrt(1.0 - s_grid**2)
    xyz = np.stack(
        [cos_lat * np.cos(phi_grid), cos_lat * np.sin(phi_grid), s_grid], axis=-1
    )
    rotated = xyz @ R  # row-vector convention: equals R^{-1} applied to each point
    s_new = np.clip(rotated[..., 2], -1.0, 1.0)
    phi_new = np.arctan2(rotated[..., 1], rotated[..., 0])
    return evaluate(field, phi_new.ravel(), s_new.ravel()).reshape(phi_new.shape)
