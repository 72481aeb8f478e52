import dataclasses
import math

import numpy as np
import pytest

from rotosphere import solutions, stratosphere as strat
from rotosphere import sht
from conftest import random_real_field
from particle_reference import reference_paths


@pytest.fixture(scope="module")
def lifted_field():
    base = solutions.make_log_solution(0.3, lmax=47)
    density = strat.DensityProfile(a=1.0, b=3.0)
    return strat.lift_solution(base, density, omega=18.0, g=58.0)


class TestPlanetParameters:
    def test_earth_row(self):
        reg = strat.load_planet_registry()
        earth = reg["earth"]
        assert abs(earth.omega - 9) <= 0.5
        assert abs(earth.g - 157) <= 1.0
        assert abs(earth.mu - 6e-3) <= 5e-4
        assert abs(earth.delta - 2e-5) <= 1e-6
        assert abs(earth.temperature_scale - 9) <= 0.5

    def test_jupiter_row(self):
        jup = strat.load_planet_registry()["jupiter"]
        assert abs(jup.omega - 82) <= 0.5
        assert abs(jup.g - 297) <= 1.0

    def test_all_rows_match_printed_values(self):
        for planet in strat.load_planet_registry().values():
            printed = planet.printed
            assert abs(planet.omega - printed["omega"]) <= 0.5
            assert abs(planet.g - printed["g"]) <= 1.0
            assert abs(planet.mu - printed["mu"]) <= 0.5 * printed["mu"]
            assert abs(planet.delta - printed["delta"]) <= 0.5 * printed["delta"]
            assert abs(planet.temperature_scale - printed["temperature_factor_K"]) <= 0.6

    def test_unit_scales_identity(self):
        p = strat.PlanetParameters("toy", radius=2.0, stratosphere_depth=1.0,
                                   gravity=1.0, rotation_rate=3.0, horizontal_speed=1.0,
                                   vertical_speed=1.0, gas_constant=287.0)
        assert p.omega == 6.0
        assert p.mu == 0.5
        assert p.delta == 1.0
        assert p.g == 1.0

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            strat.PlanetParameters("bad", radius=-1.0, stratosphere_depth=1.0,
                                   gravity=1.0, rotation_rate=1.0, horizontal_speed=1.0,
                                   vertical_speed=1.0, gas_constant=287.0)

    def test_registry_versioned(self):
        import json
        from importlib import resources

        raw = json.loads(resources.files("rotosphere.data")
                         .joinpath("planets.json").read_text())
        assert raw["version"] == 1
        assert set(raw["planets"]) == {"earth", "jupiter", "saturn", "uranus", "neptune"}


class TestDensityProfile:
    def test_typical_range_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            strat.DensityProfile(a=1.0, b=3.0)

    def test_shallow_decay_warns(self):
        with pytest.warns(UserWarning):
            strat.DensityProfile(a=1.0, b=1.0)

    def test_nonpositive_density_rejected(self):
        with pytest.raises(ValueError):
            strat.DensityProfile(a=0.0, b=3.0)

    def test_column_integral(self):
        rho = strat.DensityProfile(a=2.0, b=3.0)
        z = np.linspace(0, 1, 5)
        expected = 2.0 * (1 - np.exp(-3 * z)) / 3.0
        assert np.max(np.abs(rho.column(z) - expected)) < 1e-15


class TestLiftPrerequisites:
    def test_partial_derivatives_required(self):
        base = solutions.make_log_solution(0.2, lmax=31)
        crippled = dataclasses.replace(base, gradient=None)
        with pytest.raises(strat.LiftError):
            strat.lift_solution(crippled, strat.DensityProfile(1.0, 3.0), omega=1.0)

    def test_mean_corrected_balance_rejected(self):
        # shifting the balance function by a constant leaves the field
        # stationary but violates the zero-mean hypothesis of the embedding
        base = solutions.make_log_solution(0.2, lmax=31)
        shifted_vf = solutions.VorticityFunction(
            f=lambda p: base.vf.f(p) + 0.05,
            fprime=base.vf.fprime,
            antiderivative=lambda p: base.vf.antiderivative(p) + 0.05 * p,
        )
        bad = dataclasses.replace(base, vf=shifted_vf)
        with pytest.raises(strat.LiftError):
            strat.lift_solution(bad, strat.DensityProfile(1.0, 3.0), omega=1.0)

    def test_non_stationary_base_rejected(self):
        base = solutions.make_log_solution(0.2, lmax=31)
        noise = random_real_field(31, seed=40, decay=0.5)
        bad = dataclasses.replace(base, psi=base.psi + noise.scaled(0.1))
        with pytest.raises(strat.LiftError):
            strat.lift_solution(bad, strat.DensityProfile(1.0, 3.0), omega=1.0)


class TestLiftedField:
    def test_westward_drift_functional_form(self, lifted_field):
        # every field depends on longitude and time only through phi + omega*t
        f = lifted_field
        phi, theta, z = 0.7, 0.35, 0.4
        dt = 0.123
        a = f.stream(phi, theta, z, dt)
        b = f.stream(phi + f.omega * dt, theta, z, 0.0)
        assert abs(a - b) < 1e-14

    def test_constant_density_reduces_to_2d_wave(self):
        base = solutions.make_exp_solution(0.2, lmax=31)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            density = strat.DensityProfile(a=1.0, b=0.0)
        field = strat.lift_solution(base, density, omega=2.0, g=1.0)
        phi = np.linspace(0, 2 * math.pi, 7)
        theta = 0.4
        t = 0.6
        expected = 2.0 * math.sin(theta) + base.evaluate(phi + 2.0 * t, math.sin(theta))
        for z in (0.0, 0.5, 1.0):
            got = field.stream(phi, theta, z, t)
            assert np.max(np.abs(got - expected)) < 1e-14

    def test_leading_order_momentum_residuals(self, lifted_field):
        # 4th-order finite differences of the evaluators; the time step is
        # scaled by the rotation rate, which multiplies high derivatives
        f = lifted_field
        rng = np.random.default_rng(2)
        pts = rng.uniform([0, -1.1, 0.0], [2 * math.pi, 1.1, 1.0], size=(40, 3))
        h = 2e-3
        ht = h / f.omega
        t = 0.21
        worst_a = worst_b = worst_d = 0.0
        for phi, th, z in pts:
            st = np.array([-2, -1, 1, 2])

            def d4(fn, which):
                steps = {"phi": (st * h, lambda e: fn(phi + e, th, z, t)),
                         "theta": (st * h, lambda e: fn(phi, th + e, z, t)),
                         "t": (st * ht, lambda e: fn(phi, th, z, t + e))}[which]
                offs, call = steps
                vals = np.array([call(e) for e in offs])
                hh = offs[3] / 2.0
                return (-vals[3] + 8 * vals[2] - 8 * vals[1] + vals[0]) / (12 * hh)

            u = f.u0(phi, th, z, t)
            v = f.v0(phi, th, z, t)
            cos, sin, tan = math.cos(th), math.sin(th), math.tan(th)
            rho = f.density.rho(z)
            res_a = (d4(f.u0, "t") + u / cos * d4(f.u0, "phi") + v * d4(f.u0, "theta")
                     - u * v * tan - 2 * f.omega * v * sin
                     + d4(f.p0, "phi") / (rho * cos))
            res_b = (d4(f.v0, "t") + u / cos * d4(f.v0, "phi") + v * d4(f.v0, "theta")
                     + u * u * tan + 2 * f.omega * u * sin + f.omega**2 * sin * cos
                     + d4(f.p0, "theta") / rho)
            div = d4(f.u0, "phi") + d4(lambda p, q, zz, tt: f.v0(p, q, zz, tt) * math.cos(q),
                                       "theta")
            worst_a = max(worst_a, abs(res_a))
            worst_b = max(worst_b, abs(res_b))
            worst_d = max(worst_d, abs(div))
        assert worst_a < 1e-7
        assert worst_b < 1e-7
        assert worst_d < 1e-7

    def test_hydrostatic_balance_exact(self, lifted_field):
        f = lifted_field
        z = np.linspace(0, 1, 9)
        closed = f.dp0_dz(0.3, 0.5, z, 0.0)
        assert np.max(np.abs(closed + f.g * f.density.rho(z))) == 0.0
        # fourth-order finite-difference cross-check on the pressure itself
        h = 1e-3
        fd = (-f.p0(0.3, 0.5, z + 2 * h, 0.0) + 8 * f.p0(0.3, 0.5, z + h, 0.0)
              - 8 * f.p0(0.3, 0.5, z - h, 0.0) + f.p0(0.3, 0.5, z - 2 * h, 0.0)) / (12 * h)
        assert np.max(np.abs(fd + f.g * f.density.rho(z))) < 1e-9


class TestTemperature:
    def test_ideal_gas_at_tropopause(self, lifted_field):
        f = lifted_field
        phi, theta = 1.2, -0.4
        t0 = f.temperature(phi, theta, 0.0, 0.0)
        expected = f.tropopause_pressure(phi, theta, 0.0) / f.density.a
        assert abs(t0 - expected) < 1e-14

    def test_monotone_increase_where_pressure_positive_aloft(self):
        base = solutions.make_log_solution(0.3, lmax=31)
        density = strat.DensityProfile(a=1.0, b=3.0)
        # a reference-pressure offset puts the whole layer in the regime
        # where pressure stays positive as z -> infinity
        field = strat.lift_solution(base, density, omega=18.0, g=58.0,
                                    pressure_offset=25.0)
        report = strat.temperature_field(field)
        assert report.monotone_fraction == 1.0
        z = np.linspace(0, 1, 6)
        temps = field.temperature(0.5, 0.3, z, 0.0)
        assert np.all(np.diff(temps) > 0)

    def test_decreasing_without_offset(self, lifted_field):
        report = strat.temperature_field(lifted_field)
        assert report.monotone_fraction == 0.0
        z = np.linspace(0, 1, 6)
        temps = lifted_field.temperature(0.5, 0.3, z, 0.0)
        assert np.all(np.diff(temps) < 0)

    def test_constant_density_rejected(self):
        base = solutions.make_exp_solution(0.2, lmax=31)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            density = strat.DensityProfile(a=1.0, b=0.0)
        field = strat.lift_solution(base, density, omega=1.0, g=1.0)
        with pytest.raises(ValueError):
            strat.temperature_field(field)


class TestParticlePaths:
    def test_level_set_conservation(self, lifted_field):
        period = 2 * math.pi / lifted_field.omega
        paths = strat.particle_paths(lifted_field,
                                     [(0.5, 0.4, 0.2), (2.0, -0.7, 0.8)],
                                     t_end=period, dt=period / 10000)
        for p in paths:
            assert p.level_drift < 1e-6

    def test_critical_point_is_stationary_in_corotating_frame(self, lifted_field):
        # the base pattern peaks where cos(lat) sin(phi) = 1
        period = 2 * math.pi / lifted_field.omega
        (path,) = strat.particle_paths(lifted_field, [(math.pi / 2, 0.0, 0.3)],
                                       t_end=period / 4, dt=period / 8000)
        big_phi = path.phi + lifted_field.omega * path.times
        assert np.max(np.abs(big_phi - big_phi[0])) < 1e-8
        assert np.max(np.abs(path.theta - path.theta[0])) < 1e-8

    def test_same_level_seeds_share_conserved_value(self, lifted_field):
        u = 0.4
        phi_a = math.asin(u)          # equator points with the same axis distance
        phi_b = math.pi - math.asin(u)
        period = 2 * math.pi / lifted_field.omega
        paths = strat.particle_paths(lifted_field,
                                     [(phi_a, 0.0, 0.1), (phi_b, 0.0, 0.1)],
                                     t_end=period / 8, dt=period / 8000)
        v0 = lifted_field.base.evaluate(paths[0].phi[0], math.sin(paths[0].theta[0]))
        v1 = lifted_field.base.evaluate(paths[1].phi[0], math.sin(paths[1].theta[0]))
        assert abs(v0 - v1) < 1e-12
        for p in paths:
            assert p.level_drift < 1e-8

    @pytest.mark.parametrize("t_end, dt", [
        (1.0, -0.01), (1.0, 0.0), (1.0, math.nan), (1.0, math.inf), (-1.0, 0.01), (1.0, 0.3),
    ], ids=["negative-dt", "zero-dt", "nan-dt", "infinite-dt", "negative-t-end",
            "t-end-not-multiple"])
    def test_step_is_checked(self, lifted_field, t_end, dt):
        with pytest.raises(ValueError):
            strat.particle_paths(lifted_field, [(0.5, 0.4, 0.2)], t_end=t_end, dt=dt)

    def test_non_finite_path_is_arithmetic_error(self, lifted_field):
        period = 2 * math.pi / lifted_field.omega
        # above z ~ 248 the density exp(-3 z) underflows to 0: the angles run
        # to infinity and math's domain error is turned into ArithmeticError
        with pytest.raises(ArithmeticError, match="diverged: math domain error"):
            strat.particle_paths(lifted_field, [(0.5, 0.4, 300.0)],
                                 t_end=period / 4, dt=period / 8000)
        # a NaN velocity passes math's functions; the finished path is checked
        nan_base = dataclasses.replace(lifted_field.base,
                                       gradient=lambda phi, s, lib: (math.nan, math.nan))
        with pytest.raises(ArithmeticError, match="is not finite"):
            strat.particle_paths(dataclasses.replace(lifted_field, base=nan_base),
                                 [(0.5, 0.4, 0.2)], t_end=period / 4, dt=period / 8000)

    @pytest.mark.parametrize("family", ["log", "exp"])
    def test_matches_numpy_reference(self, family):
        make = {"log": solutions.make_log_solution, "exp": solutions.make_exp_solution}[family]
        field = strat.lift_solution(make(0.3, phi0=0.2, lmax=31),
                                    strat.DensityProfile(a=1.0, b=3.0), omega=18.0, g=58.0)
        seeds = [(0.5, 0.02, 0.2), (2.0, -0.01, 0.7), (4.0, 1.4, 0.0), (1.0, -1.41, 0.9)]
        period = 2 * math.pi / field.omega
        paths = strat.particle_paths(field, seeds, t_end=period / 2, dt=period / 2000)
        for path, (times, phi, theta) in zip(paths, reference_paths(field, seeds, period / 2,
                                                                    period / 2000)):
            assert np.array_equal(path.times, times)
            assert np.max(np.abs(path.phi - phi)) < 1e-13
            assert np.max(np.abs(path.theta - theta)) < 1e-13


class TestGradient:
    @pytest.fixture(params=["log", "exp"])
    def base(self, request):
        make = {"log": solutions.make_log_solution, "exp": solutions.make_exp_solution}
        return make[request.param](0.4, phi0=0.3, lmax=15)

    @staticmethod
    def points():
        rng = np.random.default_rng(7)
        return rng.uniform(0.0, 2 * math.pi, 500), rng.uniform(-1.45, 1.45, 500)

    def test_float_path_matches_array_path(self, base):
        phi, theta = self.points()
        arrays = base.gradient(phi, np.sin(theta))
        floats = [base.gradient(p, math.sin(t), math)
                  for p, t in zip(phi.tolist(), theta.tolist())]
        assert all(isinstance(x, float) for pair in floats for x in pair)
        ulp = 4 * np.finfo(float).eps
        for arr, got in zip(arrays, np.array(floats).T):
            assert np.all(np.abs(got - arr) <= ulp * np.abs(arr))

    def test_matches_central_differences(self, base):
        phi, theta = self.points()
        h = 1e-6
        d_phi, d_theta = base.gradient(phi, np.sin(theta))
        fd_phi = (base.evaluate(phi + h, np.sin(theta))
                  - base.evaluate(phi - h, np.sin(theta))) / (2 * h)
        fd_theta = (base.evaluate(phi, np.sin(theta + h))
                    - base.evaluate(phi, np.sin(theta - h))) / (2 * h)
        assert np.max(np.abs(d_phi - fd_phi)) < 1e-8
        assert np.max(np.abs(d_theta - fd_theta)) < 1e-8

    def test_rotated_solution_has_no_gradient(self):
        base = solutions.make_log_solution(0.2, lmax=15)
        rotated = solutions.rotate_solution(base, sht.RotationSpec(0.1, 0.5, 0.0))
        assert rotated.gradient is None
