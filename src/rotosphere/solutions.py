"""Factories and verifiers for explicit stationary and travelling solutions.

Two kinds of objects come out of here: travelling waves built from single
eigenspace components plus solid rotation, and stationary solutions of the
semilinear balance Delta(psi) = F(psi) constructed by rotating zonal
profiles off the polar axis.  The second kind is materialized analytically
(closed-form evaluators with partial derivatives) and projected onto a
spectral truncation; the projection tail is reported so residual tolerances
can be judged against truncation error.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from . import fields, sht
from .sht import RotationSpec, SpectralField


@dataclasses.dataclass
class VorticityFunction:
    """The local balance function F with derivative, for Delta(psi) = F(psi)."""

    f: Callable[[np.ndarray], np.ndarray]
    fprime: Callable[[np.ndarray], np.ndarray]
    antiderivative: Callable[[np.ndarray], np.ndarray] | None = None

    def consistency_defect(self, lo: float, hi: float) -> float:
        """Max mismatch between fprime and centered differences of f at 200
        points of [lo, hi]."""
        x = np.linspace(lo, hi, 200)
        h = 1e-6 * max(1.0, hi - lo)
        fd = (self.f(x + h) - self.f(x - h)) / (2.0 * h)
        return float(np.max(np.abs(fd - self.fprime(x))))


@dataclasses.dataclass
class RossbyHaurwitzWave:
    """Solid rotation plus a single-eigenspace component, advected rigidly.

    `psi` is the stream function at time 0, `degree` the degree j of its
    non-zonal part and `speed` that part's azimuthal phase speed
    (`rossby_haurwitz_speed` of the alpha and omega it was built from).
    """

    psi: SpectralField
    speed: float
    degree: int

    def at_time(self, t: float) -> SpectralField:
        """Exact state at time t: the degree-j pattern shifted by speed*t."""
        out = self.psi.copy()
        m = np.arange(self.degree + 1)
        out.halves[self.degree, : self.degree + 1] *= np.exp(-1j * m * self.speed * t)
        return out

    @property
    def stationary(self) -> bool:
        return abs(self.speed) < 1e-14

    def period(self) -> float:
        if self.stationary:
            raise ValueError("stationary wave has no propagation period")
        return 2.0 * math.pi / abs(self.speed)


def rossby_haurwitz_speed(j: int, alpha: float, omega: float) -> float:
    """Azimuthal phase speed (positive = prograde) of the rigid pattern.

    Derived from the vorticity equation directly; a pure wave (alpha = 0)
    propagates westward, and alpha = omega gives the pattern that is fixed
    in the non-rotating frame (speed -omega).
    """
    jj = j * (j + 1)
    return -(2.0 * omega + alpha * (jj - 2.0)) / jj


def stationary_alpha(j: int, omega: float) -> float:
    """Solid-rotation strength that freezes a degree-j pattern (j >= 2)."""
    if j < 2:
        raise ValueError("stationary combination needs degree >= 2")
    return 2.0 * omega / (2.0 - j * (j + 1))


def make_rossby_haurwitz(j: int, alpha: float, ycoeffs: dict[int, complex],
                         omega: float, lmax: int | None = None) -> RossbyHaurwitzWave:
    """Assemble alpha*sin(lat) plus a degree-j component from its coefficients.

    `ycoeffs` maps order m to the coefficient of the degree-j harmonic;
    missing negative orders are filled by the reality condition, and
    inconsistent explicit entries are rejected.
    """
    if j < 1:
        raise ValueError("degree must be >= 1")
    if not ycoeffs:
        raise ValueError("ycoeffs must contain at least one order")
    if any(abs(m) > j for m in ycoeffs):
        raise ValueError("ycoeffs contains an order beyond the stated degree")
    if lmax is None:
        lmax = max(j + 1, 4)
    if lmax < j:
        raise ValueError("lmax too small for the requested degree")

    psi = SpectralField.zeros(lmax)
    psi.set(1, 0, alpha * 2.0 * math.sqrt(math.pi / 3.0))
    for m, c in ycoeffs.items():
        c = complex(c)
        if -m in ycoeffs:
            if abs(ycoeffs[-m] - (-1) ** m * np.conj(c)) > 1e-12 * max(1.0, abs(c)):
                raise ValueError(f"orders {m} and {-m} violate the reality condition")
            if m < 0:  # written through its mirror -m
                continue
        psi.add_to(j, m, c.real if m == 0 else c)
    return RossbyHaurwitzWave(
        psi=psi, speed=rossby_haurwitz_speed(j, alpha, omega), degree=j,
    )


# ---------------------------------------------------------------------------
# Stationary solutions of the semilinear balance
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class EllipticSolution:
    """A stationary solution with closed-form evaluators and a spectral projection.

    `evaluate(phi, s)` gives psi at longitude phi and s = sin(latitude).
    `gradient(phi, s, xp=np)` gives the pair (d psi/d phi, d psi/d latitude)
    there, computed with the math namespace `xp`: `np` for arrays, `math`
    for Python floats.  It is None where no closed form is kept (rotated
    solutions).  `psi` is the projection onto the transform grid of the
    requested lmax and `tail_norm` the norm of its top three degrees.
    """

    psi: SpectralField
    vf: VorticityFunction
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    gradient: Callable[..., tuple] | None
    tail_norm: float

    def grid_residual(self) -> tuple[float, float]:
        """(L2, Linf) of Delta(psi) - F(psi) on the projection grid."""
        tr = sht.default_transform(self.psi.lmax)
        lap = tr.synthesis(sht.laplacian(self.psi).halves)
        vals = tr.synthesis(self.psi.halves)
        resid = lap - self.vf.f(vals)
        l2 = math.sqrt(abs(tr.grid.integrate(resid**2)))
        return l2, float(np.max(np.abs(resid)))


def _project(evaluator, lmax: int) -> tuple[SpectralField, float]:
    """Sample an analytic field on the transform grid and project; report tail."""
    tr = sht.default_transform(lmax)
    grid = tr.grid
    phi = np.broadcast_to(grid.longitudes[None, :], (grid.nlat, grid.nlon))
    s = np.broadcast_to(grid.nodes[:, None], (grid.nlat, grid.nlon))
    values = evaluator(phi, s)
    coeffs = SpectralField(tr.analysis(np.asarray(values, dtype=float)))
    # tail estimate: power in the top three retained degrees
    power = coeffs.degree_power()
    tail = float(np.sqrt(np.sum(power[-3:])))
    return coeffs, tail


def _tilted_solution(eps: float, phi0: float, lmax: int, vf: VorticityFunction,
                     profile: Callable, slope: Callable) -> EllipticSolution:
    """The zonal parent psi = profile(eps*s) tilted into the equatorial plane:
    psi = profile(eu) with eu = eps*u and u = cos(lat)*sin(phi - phi0), its
    gradient from the slope d psi/du = slope(eu, xp), projected to `lmax`."""

    def evaluate(phi, s):
        return profile(eps * (np.sqrt(1.0 - s * s) * np.sin(phi - phi0)))

    def gradient(phi, s, xp=np):
        cos_lat = xp.sqrt(1.0 - s * s)
        sin_phi = xp.sin(phi - phi0)
        dpsi_du = slope(eps * (cos_lat * sin_phi), xp)
        return dpsi_du * cos_lat * xp.cos(phi - phi0), dpsi_du * -s * sin_phi

    psi, tail = _project(evaluate, lmax)
    return EllipticSolution(
        psi=psi, vf=vf, evaluate=evaluate, gradient=gradient, tail_norm=tail,
    )


def make_log_solution(epsilon: float, phi0: float = 0.0,
                      lmax: int = 63) -> EllipticSolution:
    """Non-zonal stationary state with a logarithmic profile across circular cells.

    The zonal parent is log((1+eps*s)/(1-eps*s)); tilting the symmetry axis
    into the equatorial plane gives psi = log((1+eps*u)/(1-eps*u)) with
    u = cos(lat)*sin(phi - phi0), which balances
    F(psi) = -((1-eps^2)/2) * (2*sinh(psi) + sinh(2*psi)).
    Level sets are the circles u = const around the tilted axis.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    eps = float(epsilon)

    def slope(eu, xp):
        # eu**2 rather than eu*eu: on floats libm pow rounds it, as numpy does
        # for scalars, so float and numpy-scalar evaluation agree bitwise
        return 2.0 * eps / (1.0 - eu**2)

    pref = 0.5 * (1.0 - eps * eps)

    vf = VorticityFunction(
        f=lambda p: -pref * (2.0 * np.sinh(p) + np.sinh(2.0 * p)),
        fprime=lambda p: -pref * (2.0 * np.cosh(p) + 2.0 * np.cosh(2.0 * p)),
        antiderivative=lambda p: -pref * (2.0 * np.cosh(p) + 0.5 * np.cosh(2.0 * p) - 2.5),
    )
    return _tilted_solution(eps, phi0, lmax, vf,
                            lambda eu: np.log((1.0 + eu) / (1.0 - eu)), slope)


def make_exp_solution(epsilon: float, phi0: float = 0.0,
                      lmax: int = 63) -> EllipticSolution:
    """Non-zonal stationary state with exponential profile across circular cells.

    Tilted from the zonal parent exp(eps*s) - 1; balances
    F(psi) = eps^2 (1+psi) - (1+psi) log^2(1+psi) - 2 (1+psi) log(1+psi).
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    eps = float(epsilon)

    def f(p):
        w = 1.0 + np.asarray(p)
        lw = np.log(w)
        return eps * eps * w - w * lw * lw - 2.0 * w * lw

    def fprime(p):
        lw = np.log(1.0 + np.asarray(p))
        return eps * eps - lw * lw - 4.0 * lw - 2.0

    def antiderivative(p):
        w = 1.0 + np.asarray(p)
        lw = np.log(w)
        val = 0.5 * eps * eps * w * w - 0.5 * w * w * lw * lw - 0.5 * w * w * lw + 0.25 * w * w
        return val - (0.5 * eps * eps + 0.25)

    vf = VorticityFunction(f=f, fprime=fprime, antiderivative=antiderivative)
    return _tilted_solution(eps, phi0, lmax, vf, lambda eu: np.exp(eu) - 1.0,
                            lambda eu, xp: eps * xp.exp(eu))


def rotate_solution(sol: EllipticSolution, rot: RotationSpec) -> EllipticSolution:
    """Rotate a stationary solution; the balance function is unchanged.

    The analytic evaluator is composed with the inverse rotation; the
    gradient is dropped (use the unrotated member of the family when
    derivatives are required).
    """
    R = rot.matrix()

    def evaluate(phi, s):
        phi = np.asarray(phi, dtype=float)
        s = np.asarray(s, dtype=float)
        cos_lat = np.sqrt(1.0 - s**2)
        xyz = np.stack([cos_lat * np.cos(phi), cos_lat * np.sin(phi), s], axis=-1)
        moved = xyz @ R
        s_new = np.clip(moved[..., 2], -1.0, 1.0)
        phi_new = np.arctan2(moved[..., 1], moved[..., 0])
        return sol.evaluate(phi_new, s_new)

    psi = sht.rotate(sol.psi, rot)
    return EllipticSolution(
        psi=psi, vf=sol.vf, evaluate=evaluate, gradient=None,
        tail_norm=sol.tail_norm,
    )


# Bound on the advection residual of a stationary state, and on the mean of
# the balance right side of a liftable one (`stratosphere.lift_solution`).
STATIONARITY_TOL = 1e-8


@dataclasses.dataclass
class StationarityReport:
    l2: float
    linf: float

    @property
    def stationary(self) -> bool:
        return self.linf < STATIONARITY_TOL


def verify_stationary(psi: SpectralField, omega: float) -> StationarityReport:
    """Norms of the advection of total vorticity by the flow of psi.

    Zero (to quadrature accuracy) exactly when psi is a stationary state of
    the rotating-frame dynamics.
    """
    q = sht.laplacian(psi)
    q.add_to(1, 0, fields.coriolis_stream_coefficient(omega))
    tr = sht.dealiased_transform(psi.lmax)
    bracket = fields.advection(psi, q)
    l2 = bracket.norm()
    linf = float(np.max(np.abs(tr.synthesis(bracket.halves))))
    return StationarityReport(l2=l2, linf=linf)


def arnold_range(vf: VorticityFunction, psi: SpectralField | EllipticSolution) -> tuple[float, float]:
    """Extrema of F'(psi) over the realized field values on the grid."""
    field = psi.psi if isinstance(psi, EllipticSolution) else psi
    values = sht.default_transform(field.lmax).synthesis(field.halves)
    fp = vf.fprime(values)
    return float(np.min(fp)), float(np.max(fp))


def stable_epsilon_threshold(family: str, eps_lo: float = 1e-3, eps_hi: float = 0.999,
                             lmax: int = 31, tol: float = 1e-4) -> float:
    """Largest family parameter for which the F' range stays inside (-6, 0).

    The analysis guarantees stability for small parameters without
    quantifying the threshold; this locates it numerically by bisection and
    reports it as a computed quantity.
    """
    make = {"log": make_log_solution, "exp": make_exp_solution}[family]

    def stable(eps: float) -> bool:
        if family == "log" and eps >= 1.0:
            return False
        sol = make(eps, lmax=lmax)
        lo, hi = arnold_range(sol.vf, sol)
        return -6.0 < lo and hi < 0.0

    if not stable(eps_lo):
        raise ArithmeticError("family is not stable even at the smallest parameter")
    if stable(eps_hi):
        return eps_hi
    lo, hi = eps_lo, eps_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo
