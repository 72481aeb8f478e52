"""Linear and nonlinear stability analyses for zonal and low-degree flows.

Covers the classical necessary criteria for zonal shear instability, the
Galerkin spectrum of the linearized operator per zonal wavenumber, the
energy-Casimir sufficient condition (sphere threshold -6), exact-rational
quintic fits of planetary wind profiles with the associated quadratic
stability test, and the modal bookkeeping experiments for degree-2
travelling waves.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import dynamics, fields, sht, solutions
from .sht import SpectralField

FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------------------
# Zonal profiles
# ---------------------------------------------------------------------------

class ZonalProfile:
    """Latitude-only stream function with derivative and vorticity accessors.

    Stores callables of s = sin(latitude): the stream function, its
    s-derivative, the vorticity (1-s^2) psi'' - 2 s psi', and the
    s-derivative of the vorticity.  When both the stream function and the
    vorticity are supplied independently they are cross-checked.
    """

    def __init__(self, psi: Callable, dpsi: Callable, vort: Callable, dvort: Callable,
                 check: bool = True):
        self.psi = psi
        self.dpsi = dpsi
        self.vort = vort
        self.dvort = dvort
        if check:
            defect = self.consistency_defect()
            if defect > 1e-8:
                raise ValueError(f"vorticity inconsistent with stream function ({defect:.2e})")

    def consistency_defect(self, n: int = 64) -> float:
        s = np.cos(np.pi * (np.arange(n) + 0.5) / n) * 0.999
        h = 1e-5
        d2 = (self.dpsi(s + h) - self.dpsi(s - h)) / (2 * h)
        expected = (1 - s * s) * d2 - 2 * s * self.dpsi(s)
        return float(np.max(np.abs(expected - self.vort(s))) / max(1.0, np.max(np.abs(self.vort(s)))))

    @classmethod
    def from_zonal_coefficients(cls, coeffs: dict[int, float]) -> "ZonalProfile":
        """Profile from coefficients of the orthonormal zonal harmonics."""
        if not coeffs or min(coeffs) < 0:
            raise ValueError(f"zonal coefficients need degrees >= 0, got {sorted(coeffs)}")
        leg = np.zeros(max(coeffs) + 1)
        vort_leg = np.zeros_like(leg)
        for l, a in coeffs.items():
            scale = math.sqrt((2 * l + 1) / FOUR_PI)
            leg[l] = a * scale
            vort_leg[l] = -l * (l + 1) * a * scale
        psi = np.polynomial.legendre.Legendre(leg)
        vort = np.polynomial.legendre.Legendre(vort_leg)
        return cls(psi=psi, dpsi=psi.deriv(), vort=vort, dvort=vort.deriv(), check=False)

    @classmethod
    def solid_rotation(cls, alpha: float) -> "ZonalProfile":
        """psi = alpha * s."""
        return cls(
            psi=lambda s: alpha * np.asarray(s, dtype=float),
            dpsi=lambda s: alpha * np.ones_like(np.asarray(s, dtype=float)),
            vort=lambda s: -2.0 * alpha * np.asarray(s, dtype=float),
            dvort=lambda s: -2.0 * alpha * np.ones_like(np.asarray(s, dtype=float)),
            check=False,
        )


@dataclasses.dataclass(frozen=True)
class QuinticZonalProfile:
    """Wind profile a*cos^5 + b*cos^3 + c*cos in latitude, exact coefficients."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def wind(self, theta: np.ndarray) -> np.ndarray:
        c = np.cos(theta)
        return float(self.alpha) * c**5 + float(self.beta) * c**3 + float(self.gamma) * c

    def zonal_profile(self, omega: float) -> ZonalProfile:
        """Co-rotating stream-function profile whose azimuthal wind is this one.

        The stream function f satisfies f'(theta) = -U0 - omega*cos(theta),
        so dpsi/ds = -(alpha c^4 + beta c^2 + gamma) - omega with c^2 = 1-s^2.
        """
        a, b, g = float(self.alpha), float(self.beta), float(self.gamma)
        one = np.polynomial.Polynomial([1.0])
        s = np.polynomial.Polynomial([0.0, 1.0])
        c2 = one - s * s
        dpsi = -(a * c2 * c2 + b * c2 + g * one) - omega * one
        psi = dpsi.integ()
        vort = c2 * dpsi.deriv() - 2.0 * s * dpsi
        return ZonalProfile(psi=psi, dpsi=dpsi, vort=vort, dvort=vort.deriv(), check=False)


def fit_quintic_profile(cos_critical: Fraction, min_value: Fraction,
                        max_value: Fraction) -> QuinticZonalProfile:
    """Exact-rational quintic wind profile from equator minimum and jet maximum.

    Solves the 3x3 system: value at the equator equals `min_value`, the
    latitude with cosine `cos_critical` is a critical point, and the wind
    there equals `max_value`.
    """
    c = Fraction(cos_critical)
    rows = [
        [Fraction(1), Fraction(1), Fraction(1)],
        [5 * c**4, 3 * c**2, Fraction(1)],
        [c**5, c**3, c],
    ]
    rhs = [Fraction(min_value), Fraction(0), Fraction(max_value)]
    sol = _solve3_exact(rows, rhs)
    return QuinticZonalProfile(alpha=sol[0], beta=sol[1], gamma=sol[2])


def _solve3_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    a = [row[:] + [r] for row, r in zip(rows, rhs)]
    n = 3
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular system in quintic profile fit")
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][3] / a[i][i] for i in range(n)]


# ---------------------------------------------------------------------------
# Necessary criteria for linear instability of zonal flows
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class CriterionReport:
    met: bool
    degenerate: bool
    sign_change_locations: list[float]
    detail: str = ""


def _total_vorticity_gradient(zp: ZonalProfile, omega: float) -> Callable:
    return lambda s: zp.dvort(s) + 2.0 * omega


def rayleigh_criterion(zp: ZonalProfile, omega: float, n_samples: int = 2001) -> CriterionReport:
    """Sign changes of the meridional gradient of total vorticity.

    A sign change on the open interval is necessary for linear instability.
    """
    grad = _total_vorticity_gradient(zp, omega)
    s = np.linspace(-1.0, 1.0, n_samples)[1:-1]
    vals = grad(s)
    scale = float(np.max(np.abs(vals)))
    if scale < 1e-13:
        return CriterionReport(met=False, degenerate=True, sign_change_locations=[],
                               detail="total vorticity gradient vanishes identically")
    pos = vals > 1e-13 * scale
    neg = vals < -1e-13 * scale
    met = bool(pos.any() and neg.any())
    roots = []
    sign = np.where(pos, 1, np.where(neg, -1, 0))
    last_sign, last_s = 0, None
    for si, vi, raw in zip(s, sign, vals):
        if vi == 0:
            roots.append(float(si))
            last_sign, last_s = 0, si
            continue
        if last_sign != 0 and vi != last_sign:
            # scipy loads only when a sign change needs refining
            from scipy import optimize

            roots.append(float(optimize.brentq(lambda x: float(grad(x)), last_s, si)))
        last_sign, last_s = vi, si
    # deduplicate near-identical locations from exact-zero samples
    deduped: list[float] = []
    for r in roots:
        if not deduped or abs(r - deduped[-1]) > 1e-9:
            deduped.append(r)
    return CriterionReport(met=met, degenerate=False, sign_change_locations=deduped)


def fjortoft_criterion(zp: ZonalProfile, omega: float,
                       gamma_samples: Sequence[float], n_samples: int = 2001) -> CriterionReport:
    """Shear-weighted refinement of the sign-change criterion.

    Met when for every real gamma there is a latitude where the total
    vorticity gradient and (wind/cos - gamma) have the same sign.  Sampled
    gammas are checked directly; the full quantifier is resolved by the
    reduction: with S+/S- the regions of positive/negative gradient, the
    criterion holds iff both are nonempty and sup over S+ of the angular
    wind exceeds inf over S- of it.
    """
    if len(gamma_samples) == 0:
        raise ValueError("gamma_samples must be non-empty")
    grad = _total_vorticity_gradient(zp, omega)
    s = np.linspace(-1.0, 1.0, n_samples)[1:-1]
    g = grad(s)
    angular_wind = -zp.dpsi(s)  # U0/cos(lat) expressed in s
    scale = float(np.max(np.abs(g)))
    if scale < 1e-13:
        return CriterionReport(met=False, degenerate=True, sign_change_locations=[],
                               detail="degenerate: gradient identically zero")
    pos = g > 1e-13 * scale
    neg = g < -1e-13 * scale
    sampled_ok = all(bool(np.any(g * (angular_wind - gam) > 0.0)) for gam in gamma_samples)
    if not (pos.any() and neg.any()):
        return CriterionReport(met=False, degenerate=False, sign_change_locations=[],
                               detail="gradient does not change sign")
    analytic_ok = float(np.max(angular_wind[pos])) > float(np.min(angular_wind[neg]))
    return CriterionReport(
        met=bool(sampled_ok and analytic_ok), degenerate=False,
        sign_change_locations=[],
        detail=f"sampled={sampled_ok}, critical-gamma reduction={analytic_ok}",
    )


# ---------------------------------------------------------------------------
# Galerkin spectrum of the linearized operator at fixed zonal wavenumber
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class EigenReport:
    k: int
    essential_interval: tuple[float, float]
    eigenvalues: np.ndarray
    discrete_eigenvalues: list[complex]
    unstable: bool
    max_growth_rate: float
    pairing_defect: float


def zonal_operator_matrix(zp: ZonalProfile, omega: float, k: int, n_basis: int) -> np.ndarray:
    """Galerkin matrix of the wave-speed operator at zonal wavenumber k.

    Basis: normalized associated Legendre functions of order |k| and degree
    |k|..|k|+n_basis-1, which diagonalize the per-wavenumber Laplacian and
    satisfy the pole regularity conditions automatically.  The operator is
    multiplication by psi' plus the total-vorticity gradient composed with
    the inverse Laplacian (diagonal -1/(n(n+1)) here).
    """
    if k == 0:
        raise ValueError("zonal wavenumber k must be nonzero")
    ak = abs(k)
    degrees = np.arange(ak, ak + n_basis)
    lmax = int(degrees[-1])
    nq = 2 * lmax + 32
    x, w = np.polynomial.legendre.leggauss(nq)
    table = sht.normalized_legendre_table(lmax, x)[:, ak:, ak]  # (nq, n_basis)
    # orthonormal on ds after the 2*pi longitude factor
    basis = math.sqrt(2.0 * math.pi) * table
    wb = w[:, None] * basis
    mult = zp.dpsi(x)
    grad = zp.dvort(x) + 2.0 * omega
    a_mat = wb.T @ (mult[:, None] * basis)
    b_mat = wb.T @ (grad[:, None] * basis)
    inv_lap = 1.0 / (degrees * (degrees + 1.0))
    return a_mat + b_mat * inv_lap[None, :]


def zonal_operator_spectrum(zp: ZonalProfile, omega: float, k: int,
                            n_basis: int = 64) -> EigenReport:
    """Eigenvalues of the Galerkin operator and an instability verdict.

    The essential interval is the range of psi'; a discrete eigenvalue with
    nonzero imaginary part signals exponential growth at wavenumber k.
    """
    mat = zonal_operator_matrix(zp, omega, k, n_basis)
    eigs = np.linalg.eigvals(mat)
    s = np.linspace(-1.0, 1.0, 4001)
    dpsi_range = zp.dpsi(s)
    essential = (float(np.min(dpsi_range)), float(np.max(dpsi_range)))
    radius = float(np.max(np.abs(eigs)))
    imag_tol = 1e-6 * max(radius, 1e-30)
    span = essential[1] - essential[0]
    ess_tol = 1e-6 * max(1.0, span)
    discrete = [
        complex(z) for z in eigs
        if abs(z.imag) > imag_tol
        or z.real < essential[0] - ess_tol
        or z.real > essential[1] + ess_tol
    ]
    growth = float(np.max(np.abs(eigs.imag))) * abs(k)
    unstable = bool(np.max(np.abs(eigs.imag)) > imag_tol)
    # conjugation symmetry of the computed spectrum
    eigs_sorted = np.sort_complex(eigs)
    conj_sorted = np.sort_complex(np.conj(eigs))
    pairing = float(np.max(np.abs(eigs_sorted - conj_sorted)))
    return EigenReport(
        k=k, essential_interval=essential, eigenvalues=eigs,
        discrete_eigenvalues=sorted(discrete, key=lambda z: (z.real, z.imag)),
        unstable=unstable, max_growth_rate=growth, pairing_defect=pairing,
    )


def solid_rotation_eigenvalues(alpha: float, omega: float, k: int, n_basis: int) -> np.ndarray:
    """Closed-form spectrum for the solid-rotation profile (oracle for tests)."""
    n = np.arange(abs(k), abs(k) + n_basis)
    return alpha - 2.0 * (alpha - omega) / (n * (n + 1.0))


def critical_amplitude_three_jet(omega: float, k_range: Sequence[int] = (1, 2),
                                 n_basis: int = 48, beta_hi: float = 20.0,
                                 rel_tol: float = 1e-4) -> float:
    """Amplitude of the degree-3 zonal harmonic at which instability first appears.

    Located by bisection on the amplitude; reported as a computed quantity
    (no analytic reference value exists for it).
    """

    def unstable(beta: float) -> bool:
        zp = ZonalProfile.from_zonal_coefficients({3: beta})
        return any(
            zonal_operator_spectrum(zp, omega, k, n_basis).unstable for k in k_range
        )

    lo = 1e-3
    if unstable(lo):
        raise ArithmeticError("profile already unstable at the smallest amplitude probed")
    hi = beta_hi
    if not unstable(hi):
        raise ArithmeticError(f"no instability found up to amplitude {beta_hi}")
    while (hi - lo) / hi > rel_tol:
        mid = 0.5 * (lo + hi)
        if unstable(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Energy-Casimir sufficient condition
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ArnoldVerdict:
    verdict: str  # "stable" | "critical" | "inconclusive"
    fprime_min: float
    fprime_max: float


def arnold_theorem_check(fprime_range: tuple[float, float],
                         boundary_tol: float = 1e-9) -> ArnoldVerdict:
    """Nonlinear stability verdict from the range of F' along the solution.

    Stable when the range lies strictly inside (-6, 0); the lower endpoint
    -6 (the second Laplacian eigenvalue) is the transition, reported as
    "critical".
    """
    lo, hi = fprime_range
    if lo > hi:
        raise ValueError("empty range")
    if -6.0 < lo and hi < 0.0:
        return ArnoldVerdict("stable", lo, hi)
    if abs(lo + 6.0) <= boundary_tol and hi < 0.0:
        return ArnoldVerdict("critical", lo, hi)
    return ArnoldVerdict("inconclusive", lo, hi)


# ---------------------------------------------------------------------------
# Quintic planetary profiles: quadratic stability test
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class QuadraticForm:
    """Monic quadratic x^2 + p x + q with exact coefficients."""

    p: Fraction
    q: Fraction

    def discriminant(self) -> Fraction:
        return self.p * self.p - 4 * self.q

    def roots_in_unit_interval(self) -> bool:
        disc = self.discriminant()
        if disc < 0:
            return False
        sq = math.sqrt(float(disc))
        for sign in (-1.0, 1.0):
            root = (-float(self.p) + sign * sq) / 2.0
            if 0.0 < root < 1.0:
                return True
        return False


@dataclasses.dataclass
class ZonalStabilityVerdict:
    verdict: str
    numerator_quadratic: QuadraticForm | None
    denominator_quadratic: QuadraticForm
    chosen_shift: Fraction | None
    detail: str = ""


def theorem42_check(profile: QuinticZonalProfile, omega: Fraction | int) -> ZonalStabilityVerdict:
    """Energy-Casimir stability test for quintic zonal wind profiles.

    In x = cos^2(latitude) the vorticity-gradient denominator is the monic
    quadratic x^2 + 2(beta-2alpha)/(5alpha) x + (gamma-omega-8beta)/(15alpha).
    If it has no roots in (0, 1), the free constant in the numerator
    quadratic x^2 + (beta/alpha) x + (gamma-omega+A)/alpha can always be
    chosen to make the ratio bounded away from zero, which certifies
    nonlinear stability.
    """
    a, b, g = profile.alpha, profile.beta, profile.gamma
    if a == 0:
        raise ZeroDivisionError("leading quintic coefficient must be nonzero")
    w = Fraction(omega)
    denom = QuadraticForm(p=2 * (b - 2 * a) / (5 * a), q=(g - w - 8 * b) / (15 * a))
    num_p = b / a
    if not denom.roots_in_unit_interval():
        # choose A so the numerator has negative discriminant: q = p^2/4 + 1
        target_q = num_p * num_p / 4 + 1
        shift = target_q * a - g + w
        num = QuadraticForm(p=num_p, q=(g - w + shift) / a)
        return ZonalStabilityVerdict(
            verdict="stable", numerator_quadratic=num, denominator_quadratic=denom,
            chosen_shift=shift,
            detail="denominator quadratic has no roots in (0,1)",
        )
    # roots must be shared; with only the constant term free this needs
    # matching linear coefficients
    if num_p == denom.p:
        shift = denom.q * a - g + w
        num = QuadraticForm(p=num_p, q=denom.q)
        return ZonalStabilityVerdict(
            verdict="stable", numerator_quadratic=num, denominator_quadratic=denom,
            chosen_shift=shift, detail="numerator matched to the denominator roots",
        )
    return ZonalStabilityVerdict(
        verdict="inconclusive", numerator_quadratic=None, denominator_quadratic=denom,
        chosen_shift=None,
        detail="denominator quadratic has roots in (0,1); no admissible shift",
    )


WORKED_PLANET_FITS = {
    "uranus": {
        "cos_critical": Fraction(1, 2),
        "min_value": Fraction(-8, 15),
        "max_value": Fraction(4, 3),
        "omega": Fraction(18),
    },
    "neptune": {
        "cos_critical": Fraction(1, 4),
        "min_value": Fraction(-2),
        "max_value": Fraction(1),
        "omega": Fraction(13),
    },
}


def planet_wind_stability(name: str) -> dict:
    """Exact fit plus stability verdict for one of the worked planetary profiles."""
    if name.lower() not in WORKED_PLANET_FITS:
        raise ValueError(f"no worked profile for {name!r}; have {sorted(WORKED_PLANET_FITS)}")
    setup = WORKED_PLANET_FITS[name.lower()]
    profile = fit_quintic_profile(setup["cos_critical"], setup["min_value"], setup["max_value"])
    verdict = theorem42_check(profile, setup["omega"])
    return {"profile": profile, "verdict": verdict, "omega": setup["omega"]}


# ---------------------------------------------------------------------------
# Modal bookkeeping for degree-2 travelling waves
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ModalSeries:
    times: np.ndarray
    quadratic_combination: np.ndarray   # [c20]^2 + 2|c22|^2 + 2|c21|^2
    order_balance: np.ndarray           # |c22|^2 - 15 |c21|^2
    weighted_tail: np.ndarray           # sum_{l>=3} [l^2(l+1)^2 - 6 l(l+1)] E_l
    c1_abs: np.ndarray                  # |c_1^m| of the stream function
    drift_report: dict


def rh2_modal_experiment(wave: solutions.RossbyHaurwitzWave, perturbation: SpectralField,
                         config: dynamics.SimulationConfig) -> ModalSeries:
    """Track the degree-2 modal constraints along a perturbed run.

    The base state is a degree-2 Rossby-Haurwitz wave alpha*sin(lat) + beta0*Y
    with Y a unit-norm degree-2 combination; the perturbation is added to the
    stream function and the run records the constrained modal combinations
    whose deviations bound energy transfer inside degree 2.
    """
    lmax = config.lmax
    psi_init = wave.psi.truncated(lmax) + perturbation.truncated(lmax)
    times, quad, balance, tail, c1_abs = [], [], [], [], []
    weights = np.array([l * l * (l + 1.0) ** 2 - 6.0 * l * (l + 1.0) for l in range(lmax + 1)])

    def record(i, state):
        psi = state.stream_function()
        c20 = psi.get(2, 0).real
        c21 = psi.get(2, 1)
        c22 = psi.get(2, 2)
        times.append(state.time)
        quad.append(c20 * c20 + 2.0 * abs(c22) ** 2 + 2.0 * abs(c21) ** 2)
        balance.append(abs(c22) ** 2 - 15.0 * abs(c21) ** 2)
        power = psi.degree_power()
        tail.append(float(np.sum(weights[3:] * power[3:])))
        c1_abs.append([abs(psi.get(1, m)) for m in (-1, 0, 1)])

    result = dynamics.run(sht.laplacian(psi_init), config, on_step=record)
    return ModalSeries(
        times=np.array(times),
        quadratic_combination=np.array(quad),
        order_balance=np.array(balance),
        weighted_tail=np.array(tail),
        c1_abs=np.array(c1_abs),
        drift_report=result.drift_report,
    )


@dataclasses.dataclass
class SeparationBound:
    perturbation_term: float
    wave_term: float

    @property
    def total(self) -> float:
        return self.perturbation_term + self.wave_term


def instability_separation_bound(j: int, beta: float, ycoeffs: dict[int, complex],
                                 n: int) -> SeparationBound:
    """Guaranteed sup-in-time squared L2 separation under a 1/n tilt of the rotation.

    A non-zonal degree-j pattern and its 1/n-detuned copy are both exact
    travelling waves whose speeds differ at order 1/n; the squared L2
    distance between them beats, and its supremum is bounded below by the
    non-zonal wave content (n-independent) plus the perturbation norm
    (4 pi / (3 n^2), the exact squared norm of the tilt).
    """
    nonzonal = {m: c for m, c in ycoeffs.items() if m != 0 and abs(c) > 0}
    if not nonzonal:
        raise ValueError("separation bound degenerates for zonal patterns")
    x, w = np.polynomial.legendre.leggauss(j + 2)
    table = sht.normalized_legendre_table(j, x)
    wave_term = 0.0
    for m, c in nonzonal.items():
        lat_sq = float(w @ table[:, j, abs(m)] ** 2)  # = 1/(2 pi) for the normalized basis
        wave_term += abs(c) ** 2 * lat_sq
    wave_term *= FOUR_PI * beta * beta
    perturbation_term = FOUR_PI / (3.0 * n * n)
    return SeparationBound(perturbation_term=perturbation_term, wave_term=wave_term)
