"""Time integration of the rotating-sphere vorticity equation.

The prognostic variable is the vorticity; the stream function is recovered
by inverting the Laplacian at every stage, which keeps the closed-surface
mean constraint enforced by construction.  A step converts the vorticity's
half table to the transform's real columns once, runs its four stages (each
one fused gradient pass, grid product and analysis) and the RK4
combinations on columns, and converts back once.  `tendency` runs the same
stage through the converters, and `Transform.bracket` (so
`fields.advection`) the same bracket.  The integrator is classical RK4 with
a fixed step: deterministic, with an O(dt^4) phase error; over a fixed time
the drift of quadratic invariants on neutral modes is O(dt^5).
"""

from __future__ import annotations

import dataclasses
import logging
import math
from functools import lru_cache
from typing import Callable

import numpy as np

from . import fields, sht
from .sht import SpectralField

logger = logging.getLogger(__name__)


# The truncated equation conserves enstrophy, and RK4 on its neutral modes
# and the spectral filter only damp it, so growth means divergence.  For the
# degree-2 wave at lmax 12, with P/n steps per period P, every diagnostics
# record of a stable run (n >= 41) stays at or below the initial enstrophy;
# n = 40 reaches 1.00005x, n = 39 1.064x, and n = 38 1.58x, 7.85x and 1371x
# at its last three steps.
ENSTROPHY_GROWTH_LIMIT = 2.0


class SimulationBlowup(ArithmeticError):
    """Raised when the state develops non-finite coefficients or its
    enstrophy grows beyond ENSTROPHY_GROWTH_LIMIT times the initial value."""

    def __init__(self, time: float, detail: str):
        super().__init__(f"diverged at t={time}: {detail}")
        self.time = time
        self.detail = detail


def whole_steps(t_end: float, dt: float) -> int:
    """Number of steps of `dt` in `t_end`; ValueError unless `dt` is positive and
    finite and `t_end` a finite whole number of steps (to 1e-9 relative) >= 0."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (t_end >= 0.0 and math.isfinite(t_end)):
        raise ValueError(f"t_end must be nonnegative and finite, got {t_end}")
    steps = t_end / dt
    if abs(math.remainder(steps, 1.0)) > 1e-9 * steps:
        raise ValueError(f"t_end {t_end} is not a whole number of steps of dt {dt}")
    return int(round(steps))


@dataclasses.dataclass(frozen=True)
class SimulationConfig:
    omega: float
    dt: float
    t_end: float
    lmax: int
    diag_stride: int = 10
    filter_strength: float = 0.0

    def __post_init__(self):
        if self.lmax < 1:
            raise sht.GridShapeError(f"lmax must be >= 1, got {self.lmax}")
        whole_steps(self.t_end, self.dt)
        if self.diag_stride < 1:
            raise ValueError("diag_stride must be >= 1")
        if self.filter_strength < 0.0:
            raise ValueError("filter_strength must be >= 0")

    @property
    def n_steps(self) -> int:
        return whole_steps(self.t_end, self.dt)

    def check_initial(self, initial: SpectralField) -> None:
        """Raise unless `initial` is a zero-mean vorticity of degree `lmax`."""
        if abs(initial.mean_coefficient) > 1e-12 * max(initial.norm(), 1.0):
            raise sht.MeanConstraintError("initial vorticity must have zero mean")
        if initial.lmax != self.lmax:
            raise sht.GridShapeError("initial field truncation does not match config")


@dataclasses.dataclass
class SimulationState:
    """Vorticity snapshot at one time; the stream function is derived."""

    time: float
    vorticity: SpectralField

    def stream_function(self) -> SpectralField:
        return sht.invert_laplacian(self.vorticity)


def tendency(state: SimulationState, omega: float) -> SpectralField:
    """Vorticity tendency: minus the advection of total vorticity by the flow."""
    sht.require_zero_mean(state.vorticity)
    tr = sht.dealiased_transform(state.vorticity.lmax)
    return SpectralField(sht.from_columns(
        _tendency_columns(tr, sht.to_columns(state.vorticity.halves), omega))[0])


# numpy multiplies a complex number by a real x > 0 as by x + 0i, to the parts
# re x - im 0 and im x + re 0.  The zero terms set the signs of zero parts (and
# turn an infinite part into a NaN in the other); `_signed` adds them on columns.
@lru_cache(maxsize=64)
def _zero_factors(lmax: int) -> np.ndarray:
    """-0 on the real rows and +0 on the imaginary rows of the columns
    (lmax+1, 2, lmax+1), cached and read-only; a full array, since a
    broadcast one slows numpy's loop over the swapped rows."""
    factors = np.zeros((lmax + 1, 2, lmax + 1))
    factors[:, 0] = -0.0
    factors.setflags(write=False)
    return factors


def _signed(cols: np.ndarray) -> np.ndarray:
    """The columns (m, re/im, l) of z plus the zero terms of z: x * _signed(z)
    has the bits of numpy's x * z for a number x > 0.  numpy's loop rounds
    each part of x * z once, so a product that underflows to zero keeps the
    sign of its exact value; x * _signed(z) keeps it too."""
    out = cols[:, ::-1] * _zero_factors(len(cols) - 1)
    out += cols
    return out


@lru_cache(maxsize=64)
def _pair_factors(lmax: int) -> np.ndarray:
    """Factors (lmax+1, 2, 2, lmax+1) over (m, re/im, [psi, q], l) that take
    vorticity columns to the [psi, q] columns: 1 / (-l(l+1)) for psi, 0 at
    l = 0, and 1 for q; cached and read-only."""
    inverse = np.zeros(lmax + 1)
    inverse[1:] = 1.0 / sht.laplacian_eigenvalues(lmax)[1:, 0]
    factors = np.empty((lmax + 1, 2, 2, lmax + 1))
    factors[:, :, 0] = inverse
    factors[:, :, 1] = 1.0
    factors.setflags(write=False)
    return factors


def _tendency_columns(tr: sht.Transform, vort: np.ndarray, omega: float) -> np.ndarray:
    """`tendency` on the columns (m, re/im, l) of a zero-mean real vorticity.

    psi = vort / (-l(l+1)) and q = vort + 2 omega sin(lat) are written as the
    pair columns of `tr._bracket_columns` by one product.  The pair enters
    only the transform's matrix products, whose sums start from +0, and one
    non-finite entry there makes every entry the analysis computes
    non-finite; so the signs of its zero parts, and a NaN where complex
    division gives an infinity, reach no output, and psi needs none of
    numpy's complex zero terms.
    """
    orders = tr.lmax + 1
    pair = vort[:, :, None] * _pair_factors(tr.lmax)
    pair[0, 0, 1, 1] += fields.coriolis_stream_coefficient(omega)
    out = tr._bracket_columns(pair.reshape(orders, 4, orders))
    return np.negative(out, out=out)


def _spectral_filter(lmax: int, strength: float, dt: float) -> np.ndarray | None:
    if strength == 0.0:
        return None
    l = np.arange(lmax + 1) / lmax
    return np.exp(-strength * dt * l**8)[:, None]


def step(state: SimulationState, config: SimulationConfig) -> SimulationState:
    """One RK4 step on the columns of the vorticity, converted from its half
    table once and back before the filter; overflow is left to the finite
    check.  The stage inputs only feed the transform (see
    `_tendency_columns`); the combination that makes the new state carries
    numpy's complex zero terms, so every bit of the state, signed zeros
    included, is that of the same formula on complex half tables."""
    dt, omega = config.dt, config.omega
    tr = sht.dealiased_transform(state.vorticity.lmax)
    c0 = sht.to_columns(state.vorticity.halves)
    with np.errstate(over="ignore", invalid="ignore"):
        sht.require_zero_mean(state.vorticity)
        k1 = _tendency_columns(tr, c0, omega)
        k2 = _tendency_columns(tr, c0 + 0.5 * dt * k1, omega)
        k3 = _tendency_columns(tr, c0 + 0.5 * dt * k2, omega)
        k4 = _tendency_columns(tr, c0 + dt * k3, omega)
        new = c0 + (dt / 6.0) * _signed(k1 + 2.0 * _signed(k2) + 2.0 * _signed(k3) + k4)
    finite = np.isfinite(new)
    if not finite.all():
        bad = int(np.count_nonzero(~(finite[:, 0] & finite[:, 1])))
        raise SimulationBlowup(state.time + dt, f"{bad} non-finite coefficients after RK4 step")
    new_coeffs = sht.from_columns(new)[0]
    filt = _spectral_filter(tr.lmax, config.filter_strength, dt)
    if filt is not None:
        new_coeffs = new_coeffs * filt
    return SimulationState(time=state.time + dt, vorticity=SpectralField(new_coeffs))


def cfl_advisory(state: SimulationState, config: SimulationConfig) -> dict:
    """Advisory number dt * max|U| * lmax; reported, never enforced."""
    psi = state.stream_function()
    vel = fields.velocity_from_stream(psi, sht.dealiased_transform(psi.lmax))
    max_speed = vel.max_speed()
    number = config.dt * max_speed * psi.lmax
    return {"max_speed": max_speed, "cfl_number": number, "advisory_ok": number <= 1.0}


@dataclasses.dataclass
class RunResult:
    final: SimulationState
    diagnostics: list[fields.DiagnosticRecord]
    drift_report: dict
    cfl: dict


def _drift_report(diags: list[fields.DiagnosticRecord], omega: float) -> dict:
    """Relative drifts of the conserved quantities over the run."""
    if not diags:
        return {}
    first = diags[0]

    def rel(series, ref):
        scale = max(abs(ref), 1e-300)
        return float(max(abs(x - ref) for x in series) / scale)

    c1_abs0 = [abs(z) for z in first.c1]
    c1_abs_drift = [
        max(abs(abs(d.c1[i]) - c1_abs0[i]) for d in diags) for i in range(3)
    ]
    # modulated degree-1 coefficients: exp(-i m omega t) c_1^m is constant
    # (a degree-1 structure drifts westward at the frame rate)
    modulated_drift = []
    for i, m in enumerate((-1, 0, 1)):
        series = [np.exp(-1j * m * omega * d.time) * d.c1[i] for d in diags]
        modulated_drift.append(float(max(abs(z - series[0]) for z in series)))
    # odd moments can vanish by symmetry; normalize by the natural scale
    casimir_drift = {}
    for k in fields.SUPPORTED_CASIMIR_ORDERS:
        scale = max(abs(first.casimirs[k]), first.enstrophy ** (k / 2.0), 1e-300)
        casimir_drift[k] = float(
            max(abs(d.casimirs[k] - first.casimirs[k]) for d in diags) / scale
        )
    return {
        "energy_rel_drift": rel([d.energy for d in diags], first.energy),
        "enstrophy_rel_drift": rel([d.enstrophy for d in diags], first.enstrophy),
        "c1_abs_drift": c1_abs_drift,
        "c1_modulated_drift": modulated_drift,
        "casimir_rel_drift": casimir_drift,
    }


def run(initial: SpectralField, config: SimulationConfig,
        on_step: Callable[[int, SimulationState], None] | None = None) -> RunResult:
    """Advance the vorticity field to t_end, collecting diagnostics.

    `initial` is the vorticity (zero-mean, real).  Diagnostic records are
    computed from the derived stream function every `diag_stride` steps; one
    whose enstrophy exceeds ENSTROPHY_GROWTH_LIMIT times the initial record
    raises SimulationBlowup.  `on_step(i, state)` sees the initial state
    (i = 0) and each checked step i = 1..n; the run keeps only the last.
    """
    config.check_initial(initial)
    state = SimulationState(time=0.0, vorticity=initial.copy())
    cfl = cfl_advisory(state, config)
    if not cfl["advisory_ok"]:
        logger.warning("CFL advisory exceeded: dt*max|U|*lmax = %.3g", cfl["cfl_number"])

    if on_step is not None:
        on_step(0, state)
    diags = [fields.diagnostics(state.stream_function(), 0.0)]
    n = config.n_steps
    for i in range(1, n + 1):
        state = step(state, config)
        if i % config.diag_stride == 0 or i == n:
            with np.errstate(over="ignore", invalid="ignore"):  # growth is checked below
                diags.append(fields.diagnostics(state.stream_function(), state.time))
            first, last = diags[0].enstrophy, diags[-1].enstrophy
            if last > ENSTROPHY_GROWTH_LIMIT * first:
                raise SimulationBlowup(state.time, f"enstrophy grew from {first:.6g} to {last:.6g}")
        if on_step is not None:
            on_step(i, state)
    return RunResult(state, diags, _drift_report(diags, config.omega), cfl)
