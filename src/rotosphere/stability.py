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

import numpy as np

from . import dynamics, fields, sht, solutions
from ._roots import brentq
from .sht import FOUR_PI, SpectralField


# ---------------------------------------------------------------------------
# Zonal profiles
# ---------------------------------------------------------------------------

class ZonalProfile:
    """Latitude-only stream function psi(s), s = sin(latitude), held as one
    numpy series (`Legendre` or `Polynomial` on the default domain).

    Its s-derivative `dpsi`, the vorticity `vort` = (1 - s^2) psi'' - 2 s psi'
    = ((1 - s^2) psi')' and the vorticity's s-derivative `dvort` are series
    derived from it; on a Legendre series the vorticity is -l(l+1) c_l.
    `dpsi_knots` are -1, 1 and the critical points of psi' inside.
    """

    def __init__(self, psi):
        self.psi = psi
        self.dpsi = psi.deriv()
        if isinstance(psi, np.polynomial.Legendre):  # each P_l is an eigenfunction
            l = np.arange(psi.coef.size)
            self.vort = np.polynomial.Legendre(-l * (l + 1) * psi.coef)
        else:
            s = psi.identity()
            self.vort = ((1 - s * s) * self.dpsi).deriv()
        self.dvort = self.vort.deriv()
        self.dpsi_knots = _knots(self.dpsi.deriv())  # where psi' takes its extremes

    @classmethod
    def from_zonal_coefficients(cls, coeffs: dict[int, float]) -> "ZonalProfile":
        """Profile from coefficients of the orthonormal zonal harmonics."""
        if not coeffs or min(coeffs) < 0:
            raise ValueError(f"zonal coefficients need degrees >= 0, got {sorted(coeffs)}")
        leg = np.zeros(max(coeffs) + 1)
        for l, a in coeffs.items():
            leg[l] = a * math.sqrt((2 * l + 1) / FOUR_PI)
        return cls(np.polynomial.Legendre(leg))

    @classmethod
    def solid_rotation(cls, alpha: float) -> "ZonalProfile":
        """psi = alpha * s."""
        return cls(np.polynomial.Legendre([0.0, alpha]))


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
        return ZonalProfile(dpsi.integ())


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

def _knots(p) -> np.ndarray:
    """-1, the sorted real parts of the series p's roots inside (-1, 1), and 1.
    Of p.deriv(), these are every point where p can take its extremes."""
    x = np.sort(p.roots().real)
    return np.concatenate(([-1.0], x[(-1.0 < x) & (x < 1.0)], [1.0]))


@dataclasses.dataclass
class ShearCriteria:
    """The classical necessary criteria for linear instability of a zonal flow.

    `sign_changes` are the crossings of the total vorticity gradient
    g = vort' + 2 omega on (-1, 1), none where g vanishes identically
    (`degenerate`).  `wind_sup` is the sup of the angular wind -psi' over the
    closure of S+ = {g > 0} and `wind_inf` its inf over the closure of
    S- = {g < 0}, both None without a crossing.
    """

    degenerate: bool
    sign_changes: list[float]
    wind_sup: float | None = None
    wind_inf: float | None = None

    @property
    def rayleigh_met(self) -> bool:
        """Rayleigh-Kuo: g changes sign on the open interval."""
        return bool(self.sign_changes)

    @property
    def fjortoft_met(self) -> bool:
        """Fjortoft: for every real gamma there is a latitude where g and
        (wind - gamma) have the same sign, i.e. S+ and S- are nonempty and
        the wind's sup over cl S+ exceeds its inf over cl S-."""
        return self.wind_sup is not None and self.wind_sup > self.wind_inf


def shear_criteria(zp: ZonalProfile, omega: float) -> ShearCriteria:
    """Both criteria from one pass over the sign regions of g.

    g keeps its sign between consecutive real roots, so it is read at -1, 1,
    the real parts of its roots inside (complex pairs included: the two close
    roots of a shallow dip may come out complex) and the midpoints between
    consecutive ones.  A value within 1e-13 of the largest reads 0, so a
    tangency is no sign change, and g is degenerate where the largest is
    below 1e-13.  Each crossing is refined by Brent's method between
    consecutive test points of opposite sign.  The wind's extremes over a
    region are taken at the crossings and at the profile's `dpsi_knots` that
    lie in it.
    """
    g = zp.dvort + 2.0 * omega
    knots = _knots(g)
    s = np.sort(np.concatenate((knots, (knots[1:] + knots[:-1]) / 2)))
    vals = g(s)
    scale = float(np.max(np.abs(vals)))
    if scale < 1e-13:
        return ShearCriteria(degenerate=True, sign_changes=[])
    keep = np.abs(vals) > 1e-13 * scale
    s, signs = s[keep], np.sign(vals[keep])
    change = np.flatnonzero(signs[1:] != signs[:-1])
    crossings = [brentq(g, s[i], s[i + 1]) for i in change]
    if not crossings:
        return ShearCriteria(degenerate=False, sign_changes=[])
    # the sign of g on each of the len + 1 intervals between the crossings
    region_signs = np.concatenate((signs[:1], signs[change + 1]))
    side = region_signs[np.searchsorted(crossings, zp.dpsi_knots)]
    at_points, at_crossings = -zp.dpsi(zp.dpsi_knots), -zp.dpsi(np.asarray(crossings))
    return ShearCriteria(
        degenerate=False, sign_changes=crossings,
        wind_sup=float(np.max(np.concatenate((at_crossings, at_points[side > 0])))),
        wind_inf=float(np.min(np.concatenate((at_crossings, at_points[side < 0])))),
    )


# ---------------------------------------------------------------------------
# Galerkin spectrum of the linearized operator at fixed zonal wavenumber
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class EigenReport:
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
    grid = sht.build_grid(nq, 1)
    x, w = grid.nodes, grid.weights
    table = sht.legendre_order(lmax, ak, x)[:, ak:]  # (nq, n_basis)
    # orthonormal on ds after the 2*pi longitude factor
    basis = math.sqrt(2.0 * math.pi) * table
    wb = w[:, None] * basis
    mult = zp.dpsi(x)
    grad = zp.dvort(x) + 2.0 * omega
    a_mat = wb.T @ (mult[:, None] * basis)
    b_mat = wb.T @ (grad[:, None] * basis)
    inv_lap = 1.0 / (degrees * (degrees + 1.0))
    return a_mat + b_mat * inv_lap[None, :]


def zonal_operator_spectrum(zp: ZonalProfile, omega: float, k: int, n_basis: int) -> EigenReport:
    """Eigenvalues of the Galerkin operator and an instability verdict.

    The essential interval is the range of psi'; a discrete eigenvalue with
    nonzero imaginary part signals exponential growth at wavenumber k.
    """
    mat = zonal_operator_matrix(zp, omega, k, n_basis)
    eigs = np.linalg.eigvals(mat)
    dpsi_range = zp.dpsi(zp.dpsi_knots)
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
        essential_interval=essential, eigenvalues=eigs,
        discrete_eigenvalues=sorted(discrete, key=lambda z: (z.real, z.imag)),
        unstable=unstable, max_growth_rate=growth, pairing_defect=pairing,
    )


def solid_rotation_eigenvalues(alpha: float, omega: float, k: int, n_basis: int) -> np.ndarray:
    """Closed-form spectrum for the solid-rotation profile (oracle for tests)."""
    n = np.arange(abs(k), abs(k) + n_basis)
    return alpha - 2.0 * (alpha - omega) / (n * (n + 1.0))


def critical_amplitude_three_jet(omega: float, n_basis: int = 48,
                                 rel_tol: float = 1e-4) -> float:
    """Amplitude of the degree-3 zonal harmonic at which instability first appears.

    Located by bisection on the amplitude in [1e-3, 20], instability being
    judged at zonal wavenumbers 1 and 2; reported as a computed quantity
    (no analytic reference value exists for it).
    """

    def unstable(beta: float) -> bool:
        zp = ZonalProfile.from_zonal_coefficients({3: beta})
        return any(
            zonal_operator_spectrum(zp, omega, k, n_basis).unstable for k in (1, 2)
        )

    lo = 1e-3
    if unstable(lo):
        raise ArithmeticError("profile already unstable at the smallest amplitude probed")
    hi = 20.0
    if not unstable(hi):
        raise ArithmeticError(f"no instability found up to amplitude {hi}")
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


def arnold_theorem_check(fprime_range: tuple[float, float]) -> ArnoldVerdict:
    """Nonlinear stability verdict from the range of F' along the solution.

    Stable when the range lies strictly inside (-6, 0); the lower endpoint
    -6 (the second Laplacian eigenvalue) is the transition, reported as
    "critical" to within 1e-9; any other range is "inconclusive".  The
    caller holds the range itself; the verdict carries only the word.
    """
    lo, hi = fprime_range
    if lo > hi:
        raise ValueError("empty range")
    if -6.0 < lo and hi < 0.0:
        return ArnoldVerdict("stable")
    if abs(lo + 6.0) <= 1e-9 and hi < 0.0:
        return ArnoldVerdict("critical")
    return ArnoldVerdict("inconclusive")


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
        """Whether a real root lies in (0, 1), decided exactly.

        The roots are (-p +- s)/2 with s = sqrt(disc) >= 0, so one lies in
        (0, 1) iff p < s < 2 + p or -2 - p < s < -p; s is compared with
        each bound a through disc and a^2.
        """
        disc = self.discriminant()
        if disc < 0:
            return False

        def between(lo: Fraction, hi: Fraction) -> bool:
            return (lo < 0 or disc > lo * lo) and hi > 0 and disc < hi * hi

        p = self.p
        return between(p, 2 + p) or between(-2 - p, -p)


@dataclasses.dataclass
class ZonalStabilityVerdict:
    verdict: str
    numerator_quadratic: QuadraticForm | None
    denominator_quadratic: QuadraticForm
    chosen_shift: Fraction | None


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
        )
    # roots must be shared; with only the constant term free this needs
    # matching linear coefficients
    if num_p == denom.p:
        shift = denom.q * a - g + w
        num = QuadraticForm(p=num_p, q=denom.q)
        return ZonalStabilityVerdict(
            verdict="stable", numerator_quadratic=num, denominator_quadratic=denom,
            chosen_shift=shift,
        )
    return ZonalStabilityVerdict(
        verdict="inconclusive", numerator_quadratic=None, denominator_quadratic=denom,
        chosen_shift=None,
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
    if any(abs(m) > j for m in ycoeffs):
        raise ValueError(f"orders {sorted(ycoeffs)} reach beyond degree {j}")
    nonzonal = [c for m, c in ycoeffs.items() if m != 0 and abs(c) > 0]
    if not nonzonal:
        raise ValueError("separation bound degenerates for zonal patterns")
    # 4 pi beta^2 sum |c_m|^2 times the integral of the squared normalized
    # Legendre function over s, which is 1/(2 pi)
    wave_term = 2.0 * beta * beta * sum(abs(c) ** 2 for c in nonzonal)
    perturbation_term = FOUR_PI / (3.0 * n * n)
    return SeparationBound(perturbation_term=perturbation_term, wave_term=wave_term)
