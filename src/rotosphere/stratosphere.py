"""Planetary nondimensionalization and 3D lifts of stationary 2D flows.

A 2D stationary solution of the semilinear balance with zero-mean right
side embeds into the leading-order thin-shell dynamics of a stratified
layer: the stream function acquires a 1/sqrt(density) height profile and
drifts westward at the planetary rotation rate, the pressure follows from
a Bernoulli-type closed form plus hydrostatic balance, and the temperature
comes from the ideal-gas relation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings
from importlib import resources
from typing import Callable, Sequence

import numpy as np

from . import dynamics, solutions

FOUR_PI = 4.0 * math.pi


@dataclasses.dataclass(frozen=True)
class PlanetParameters:
    """Dimensional scales for one planet plus derived nondimensional numbers."""

    name: str
    radius: float                 # m
    stratosphere_depth: float     # m
    gravity: float                # m/s^2
    rotation_rate: float          # rad/s
    horizontal_speed: float       # m/s
    vertical_speed: float         # m/s
    gas_constant: float           # m^2/(s^2 K)
    printed: dict | None = None

    def __post_init__(self):
        for field in ("radius", "stratosphere_depth", "gravity", "rotation_rate",
                      "horizontal_speed", "vertical_speed", "gas_constant"):
            if getattr(self, field) <= 0.0:
                raise ValueError(f"{field} must be positive")

    @property
    def omega(self) -> float:
        """Inverse Rossby number Omega' R' / U'."""
        return self.rotation_rate * self.radius / self.horizontal_speed

    @property
    def mu(self) -> float:
        """Shallowness H'/R'."""
        return self.stratosphere_depth / self.radius

    @property
    def delta(self) -> float:
        """Vertical-to-horizontal speed ratio W'/U'."""
        return self.vertical_speed / self.horizontal_speed

    @property
    def g(self) -> float:
        """Nondimensional gravity g' H' / U'^2."""
        return self.gravity * self.stratosphere_depth / self.horizontal_speed**2

    @property
    def temperature_scale(self) -> float:
        """Kelvin per nondimensional temperature unit, U'^2 / gas constant."""
        return self.horizontal_speed**2 / self.gas_constant


def load_planet_registry() -> dict[str, PlanetParameters]:
    """Planet scale table shipped with the package (versioned JSON)."""
    raw = json.loads(resources.files("rotosphere.data").joinpath("planets.json").read_text())
    out = {}
    for name, row in raw["planets"].items():
        out[name] = PlanetParameters(
            name=name,
            radius=row["radius_m"],
            stratosphere_depth=row["stratosphere_depth_m"],
            gravity=row["gravity_m_s2"],
            rotation_rate=row["rotation_rad_s"],
            horizontal_speed=row["horizontal_speed_m_s"],
            vertical_speed=row["vertical_speed_m_s"],
            gas_constant=row["gas_constant_m2_s2K"],
            printed=row.get("printed"),
        )
    return out


@dataclasses.dataclass(frozen=True)
class DensityProfile:
    """Exponential background density a * exp(-b z) above the tropopause."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0.0:
            raise ValueError("tropopause density must be positive")
        if self.b <= 2.0:
            warnings.warn(
                f"density decay rate b={self.b} is outside the range typical of "
                "solar-system stratospheres (b > 2)",
                stacklevel=2,
            )

    def rho(self, z):
        return self.a * np.exp(-self.b * np.asarray(z, dtype=float))

    def column(self, z):
        """Integral of the density from 0 to z."""
        z = np.asarray(z, dtype=float)
        if self.b == 0.0:
            return self.a * z
        return self.a * (1.0 - np.exp(-self.b * z)) / self.b

    def inv_sqrt(self, z):
        return 1.0 / np.sqrt(self.rho(z))


class LiftError(ValueError):
    """The 2D input does not satisfy the hypotheses of the 3D embedding."""


@dataclasses.dataclass
class Field3D:
    """Evaluators for the lifted stratospheric flow.

    All callables take broadcastable arrays (phi, theta, z, t); theta is
    latitude.  The base pattern drifts westward: every field depends on
    longitude and time only through phi + omega * t.
    """

    base: solutions.EllipticSolution
    density: DensityProfile
    omega: float
    g: float
    pressure_offset: float = 0.0

    def _args(self, phi, theta, t):
        big_phi = np.asarray(phi, dtype=float) + self.omega * np.asarray(t, dtype=float)
        s = np.sin(np.asarray(theta, dtype=float))
        return big_phi, s

    def stream(self, phi, theta, z, t):
        big_phi, s = self._args(phi, theta, t)
        return self.omega * s + self.density.inv_sqrt(z) * self.base.evaluate(big_phi, s)

    def u0(self, phi, theta, z, t):
        big_phi, s = self._args(phi, theta, t)
        _, dth = self.base.gradient(big_phi, s)
        return -self.omega * np.cos(np.asarray(theta, dtype=float)) - self.density.inv_sqrt(z) * dth

    def v0(self, phi, theta, z, t):
        big_phi, s = self._args(phi, theta, t)
        dph, _ = self.base.gradient(big_phi, s)
        return self.density.inv_sqrt(z) * dph / np.cos(np.asarray(theta, dtype=float))

    def tropopause_pressure(self, phi, theta, t):
        """Dynamic pressure at z = 0 (Bernoulli form along the base solution)."""
        big_phi, s = self._args(phi, theta, t)
        cos_lat = np.cos(np.asarray(theta, dtype=float))
        psi0 = self.base.evaluate(big_phi, s)
        dph, dth = self.base.gradient(big_phi, s)
        bern = self.base.vf.antiderivative(psi0) - 0.5 * dth**2 - 0.5 * (dph / cos_lat) ** 2
        return bern + self.pressure_offset

    def p0(self, phi, theta, z, t):
        return self.tropopause_pressure(phi, theta, t) - self.g * self.density.column(z)

    def dp0_dz(self, phi, theta, z, t):
        """Closed-form vertical pressure gradient (hydrostatic by construction)."""
        shape = np.broadcast(np.asarray(phi), np.asarray(theta), np.asarray(z)).shape
        return np.broadcast_to(-self.g * self.density.rho(z), shape)

    def temperature(self, phi, theta, z, t):
        """Ideal-gas temperature p0 / rho0."""
        return self.p0(phi, theta, z, t) / self.density.rho(z)


def lift_solution(base: solutions.EllipticSolution, density: DensityProfile,
                  omega: float, g: float = 1.0, stationarity_tol: float = 1e-8,
                  pressure_offset: float = 0.0) -> Field3D:
    """Embed a zero-mean stationary 2D balance into the stratified 3D layer.

    Requires the exact balance Delta(psi0) = F(psi0) with F(psi0)
    integrating to zero over the sphere: the mean-corrected variant is
    rejected (its lift needs a radial forcing perturbation that is not
    modelled here).  The base solution must provide its analytic gradient.
    """
    if base.gradient is None:
        raise LiftError("base solution must provide analytic partial derivatives")
    if base.vf.antiderivative is None:
        raise LiftError("base balance function must provide an antiderivative")
    report = solutions.verify_stationary(base.psi, 0.0, tolerance=stationarity_tol)
    if not report.stationary:
        raise LiftError(
            f"base field is not stationary for the fixed frame: residual {report.linf:.3e}"
        )
    mean_rhs = _balance_mean(base)
    if abs(mean_rhs) > stationarity_tol:
        raise LiftError(
            f"balance right side has nonzero mean {mean_rhs:.3e}; "
            "only exact zero-mean balances are liftable"
        )
    return Field3D(base=base, density=density, omega=omega, g=g,
                   pressure_offset=pressure_offset)


def _balance_mean(base: solutions.EllipticSolution) -> float:
    from . import sht

    tr = sht.default_transform(base.psi.lmax)
    values = tr.synthesis(base.psi.halves)
    return float(tr.grid.integrate(base.vf.f(values)).real) / FOUR_PI


@dataclasses.dataclass
class TemperatureReport:
    evaluator: Callable
    monotone_fraction: float


def temperature_field(field: Field3D, n_samples: int = 24) -> TemperatureReport:
    """Temperature evaluator plus a monotonicity report.

    With the exponential density a*exp(-b z), the ideal-gas temperature is
    g/b + exp(b z) * (p_hat/a - g/b) with p_hat the tropopause pressure, so
    it increases with height exactly where p_hat/a - g/b > 0 (equivalently,
    where the pressure stays positive aloft).
    """
    if field.density.b == 0.0:
        raise ValueError("temperature profile undefined in this form for constant density")
    phi = np.linspace(0.0, 2.0 * math.pi, n_samples, endpoint=False)
    theta = np.linspace(-1.4, 1.4, n_samples)
    pp, tt = np.meshgrid(phi, theta)
    p_hat = field.tropopause_pressure(pp, tt, 0.0)
    coeff = p_hat / field.density.a - field.g / field.density.b
    frac = float(np.mean(coeff > 0.0))
    return TemperatureReport(evaluator=field.temperature, monotone_fraction=frac)


@dataclasses.dataclass
class Trajectory:
    times: np.ndarray
    phi: np.ndarray
    theta: np.ndarray
    z: float
    level_drift: float


def particle_paths(field: Field3D, seeds: Sequence[tuple[float, float, float]],
                   t_end: float, dt: float) -> list[Trajectory]:
    """Integrate fluid trajectories of the lifted flow (fixed-step RK4).

    Seeds are (phi, theta, z); parcels stay at their height at leading
    order.  Each seed is integrated on its own in Python floats, with one
    call of the base gradient per stage.  Along each path the base stream
    value at the co-drifting longitude is conserved; the maximum deviation
    from its initial value is reported as the level drift.  `t_end` must be
    a whole number of steps of `dt` (`dynamics.whole_steps`).
    """
    n_steps = dynamics.whole_steps(t_end, dt)
    omega = field.omega
    gradient = field.base.gradient
    half, sixth = 0.5 * dt, dt / 6.0
    out = []
    for phi0, theta0, z0 in seeds:
        isr = float(field.density.inv_sqrt(z0))

        def rhs(t, phi, theta):
            cos_lat = math.cos(theta)
            dph, dth = gradient(phi + omega * t, math.sin(theta), math)
            u = -omega * cos_lat - isr * dth
            return u / cos_lat, isr * dph / cos_lat

        phi, theta, t = float(phi0), float(theta0), 0.0
        path = [(t, phi, theta)]
        for _ in range(n_steps):
            a1, b1 = rhs(t, phi, theta)
            a2, b2 = rhs(t + half, phi + half * a1, theta + half * b1)
            a3, b3 = rhs(t + half, phi + half * a2, theta + half * b2)
            a4, b4 = rhs(t + dt, phi + dt * a3, theta + dt * b3)
            phi = phi + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            theta = theta + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            t += dt
            path.append((t, phi, theta))
        times, phis, thetas = np.array(path).T
        levels = field.base.evaluate(phis + omega * times, np.sin(thetas))
        drift = float(np.max(np.abs(levels - levels[0])))
        out.append(Trajectory(times=times, phi=phis, theta=thetas, z=z0, level_drift=drift))
    return out
