"""Velocity/vorticity kinematics and integral diagnostics.

Everything here treats the stream function as the primary variable: the
velocity is its rotated surface gradient, the vorticity its Laplacian.
Quadratic quantities are evaluated on enlarged Gauss grids chosen so the
quadrature is exact for bandlimited inputs.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import sht
from .sht import SpectralField, Transform

SUPPORTED_CASIMIR_ORDERS = (2, 3, 4, 5)


@dataclasses.dataclass
class VelocityField:
    """Azimuthal (u) and meridional (v) velocity components, values on `grid`."""

    u: np.ndarray
    v: np.ndarray
    grid: sht.GaussGrid

    def speed_squared(self) -> np.ndarray:
        return self.u**2 + self.v**2

    def max_speed(self) -> float:
        return float(np.sqrt(np.max(self.speed_squared())))


def velocity_from_stream(psi: SpectralField, transform: Transform | None = None) -> VelocityField:
    """u = -d(psi)/dtheta, v = d(psi)/dphi / cos(lat), sampled on the grid."""
    tr = transform if transform is not None else sht.default_transform(psi.lmax)
    dtheta, dphi_over_cos = tr.gradient_values(psi.halves)
    return VelocityField(u=-dtheta, v=dphi_over_cos, grid=tr.grid)


def advection(psi: SpectralField, q: SpectralField) -> SpectralField:
    """Spectral coefficients of the advection bracket of psi acting on q.

    Computes (1/cos)[-psi_theta d_phi + psi_phi d_theta] q pseudospectrally
    on a grid large enough that the quadratic product is alias-free, then
    truncates back to the common degree.  The degree-0 coefficient of the
    result is set to zero exactly (the bracket integrates to zero over the
    sphere).  psi and q are real; `Transform.bracket` fuses the work.
    """
    if psi.lmax != q.lmax:
        raise sht.GridShapeError(f"advection truncation mismatch: {psi.lmax} vs {q.lmax}")
    return SpectralField(sht.dealiased_transform(psi.lmax).bracket(np.stack([psi.halves, q.halves])))


def energy(psi: SpectralField) -> float:
    """Kinetic energy (1/2) integral of |U|^2, by the gradient Parseval sum."""
    l = np.arange(psi.lmax + 1, dtype=float)
    return float(0.5 * np.sum(l * (l + 1.0) * psi.degree_power()))


def enstrophy(psi: SpectralField) -> float:
    """Integral of the squared vorticity, by the Parseval sum."""
    l = np.arange(psi.lmax + 1, dtype=float)
    return float(np.sum((l * (l + 1.0)) ** 2 * psi.degree_power()))


def casimir_moments(psi: SpectralField,
                    orders: tuple[int, ...] = SUPPORTED_CASIMIR_ORDERS) -> dict[int, float]:
    """Integrals of (vorticity)^k over the sphere for each k in `orders`.

    One synthesis on a Gauss grid fine enough for the degree k*lmax
    integrand of the highest order, so every moment is exact (to
    round-off) for bandlimited stream functions.
    """
    for k in orders:
        if k not in SUPPORTED_CASIMIR_ORDERS:
            raise ValueError(f"casimir order k={k} unsupported; expected one of {SUPPORTED_CASIMIR_ORDERS}")
    k, L = max(orders), psi.lmax
    tr = sht.get_transform(L, (k * L) // 2 + 2, max(k * L + 1, 2 * L + 1))
    powers = [tr.synthesis(sht.laplacian(psi).halves)]
    for _ in range(1, k):  # repeated products: float pow is ~40x slower
        powers.append(powers[-1] * powers[0])
    return {j: float(tr.grid.integrate(powers[j - 1]).real) for j in orders}


def first_modes(psi: SpectralField) -> tuple[complex, complex, complex]:
    """Degree-1 coefficients (orders -1, 0, 1) of the vorticity."""
    return (-2.0 * psi.get(1, -1), -2.0 * psi.get(1, 0), -2.0 * psi.get(1, 1))


def harmonic_product_integral(factors: list[tuple[int, int, int]],
                              check_tol: float = 1e-9) -> float:
    """Quadrature of a product of harmonics, prod (Y_l^m)^power, over the sphere.

    The grid is sized for the total polynomial degree; a second, finer grid
    guards against under-resolution, and a disagreement raises.
    """
    total_degree = sum(l * p for l, _, p in factors)
    if total_degree == 0:
        raise ValueError("empty product")
    for l, m, p in factors:
        if abs(m) > l or p < 1:
            raise ValueError(f"invalid factor (l={l}, m={m}, power={p})")

    def _compute(extra: int) -> complex:
        nlat = total_degree // 2 + 2 + extra
        nlon = total_degree + 1 + 2 * extra
        grid = sht.build_grid(max(nlat, 2), max(nlon, 3))
        prod = np.ones((grid.nlat, grid.nlon), dtype=complex)
        for l, m, p in factors:
            prod *= sht.harmonic(l, m, grid) ** p
        return grid.integrate(prod)

    coarse = _compute(0)
    fine = _compute(4)
    if abs(coarse - fine) > check_tol * max(1.0, abs(fine)):
        raise ArithmeticError(
            f"product integral failed quadrature convergence check: {coarse} vs {fine}"
        )
    if abs(fine.imag) > check_tol:
        raise ArithmeticError(f"product integral has non-negligible imaginary part {fine.imag}")
    return float(fine.real)


@dataclasses.dataclass
class PoincareReport:
    lhs_enstrophy: float
    rhs_scaled_energy: float
    holds: bool


def poincare_check(psi: SpectralField, n: int, tol: float = 1e-10) -> PoincareReport:
    """Sharp spectral-gap inequality after removing degrees 1..n.

    Projections onto the first n eigenspaces are zeroed, then the squared
    vorticity norm is compared against (n+1)(n+2) times the squared velocity
    norm.
    """
    if not 0 <= n < psi.lmax:
        raise ValueError(f"n={n} out of range for lmax={psi.lmax}")
    proj = psi.copy()
    proj.halves[: n + 1] = 0.0
    lhs = enstrophy(proj)
    rhs = (n + 1) * (n + 2) * 2.0 * energy(proj)
    return PoincareReport(lhs, rhs, lhs >= rhs - tol * max(1.0, abs(rhs)))


# ---------------------------------------------------------------------------
# Diagnostics record
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class DiagnosticRecord:
    """One row of conserved-quantity diagnostics for a simulation state."""

    time: float
    energy: float
    enstrophy: float
    casimirs: dict[int, float]
    c1: tuple[complex, complex, complex]
    modal_energy_by_degree: np.ndarray

    CSV_PREFIX = (
        "time,energy,enstrophy,i2,i3,i4,i5,"
        "c1m_re,c1m_im,c10_re,c10_im,c1p_re,c1p_im"
    )

    @classmethod
    def csv_header(cls, lmax: int) -> str:
        modal = ",".join(f"energy_l{l}" for l in range(1, lmax + 1))
        return f"{cls.CSV_PREFIX},{modal}"

    def csv_row(self) -> str:
        cells = [
            self.time, self.energy, self.enstrophy,
            self.casimirs[2], self.casimirs[3], self.casimirs[4], self.casimirs[5],
            self.c1[0].real, self.c1[0].imag,
            self.c1[1].real, self.c1[1].imag,
            self.c1[2].real, self.c1[2].imag,
        ]
        cells.extend(self.modal_energy_by_degree[1:])
        return ",".join(repr(float(x)) for x in cells)


def diagnostics(psi: SpectralField, time: float = 0.0) -> DiagnosticRecord:
    """Collect the conserved-quantity diagnostics for a stream function."""
    l = np.arange(psi.lmax + 1, dtype=float)
    modal = 0.5 * l * (l + 1.0) * psi.degree_power()
    return DiagnosticRecord(
        time=time,
        energy=energy(psi),
        enstrophy=enstrophy(psi),
        casimirs=casimir_moments(psi),
        c1=first_modes(psi),
        modal_energy_by_degree=modal,
    )


def coriolis_stream_coefficient(omega: float) -> float:
    """Coefficient of the degree-1 zonal harmonic in 2*omega*sin(lat)."""
    return 2.0 * omega * 2.0 * math.sqrt(math.pi / 3.0)
