import math

import numpy as np
import pytest

from rotosphere import sht, solutions, stability
from conftest import random_real_field
from spectral_reference import reality_defect


class TestRossbyHaurwitz:
    def test_stationary_choice_for_degree_two(self):
        omega = 1.7
        wave = solutions.make_rossby_haurwitz(
            2, solutions.stationary_alpha(2, omega), {1: 0.5}, omega)
        assert wave.speed == 0.0
        assert wave.stationary

    def test_degree_one_carries_the_frame_rate(self):
        # alpha = omega: the pattern is frozen in the non-rotating frame,
        # so in this frame it drifts at the full rotation rate
        omega = 1.0
        wave = solutions.make_rossby_haurwitz(1, omega, {1: 0.5}, omega)
        assert abs(abs(wave.speed) - omega) < 1e-15

    def test_pure_degree_three_wave_speed_magnitude(self):
        wave = solutions.make_rossby_haurwitz(3, 0.0, {0: 1.0}, omega=1.0)
        assert abs(abs(wave.speed) - 1.0 / 6.0) < 1e-15
        assert wave.speed < 0.0  # pure waves drift westward

    def test_reality_completion_and_conflict(self):
        wave = solutions.make_rossby_haurwitz(2, 0.0, {1: 0.5 - 0.25j}, 0.0)
        assert reality_defect(wave.psi.coeffs) == 0.0
        with pytest.raises(ValueError):
            solutions.make_rossby_haurwitz(2, 0.0, {1: 1.0, -1: 1.0}, 0.0)

    def test_degree_mixing_rejected(self):
        with pytest.raises(ValueError):
            solutions.make_rossby_haurwitz(2, 0.0, {3: 1.0}, 0.0)

    def test_exact_evolution_matches_dynamics(self):
        from rotosphere import dynamics

        lmax = 12
        omega = 1.0
        wave = solutions.make_rossby_haurwitz(2, 0.3, {1: 0.4}, omega, lmax=lmax)
        cfg = dynamics.SimulationConfig(
            omega=omega, dt=0.005, t_end=0.5,
            lmax=lmax)
        res = dynamics.run(sht.laplacian(wave.psi), cfg)
        exact = sht.laplacian(wave.at_time(0.5))
        diff = np.max(np.abs(res.states[-1].vorticity.coeffs - exact.coeffs))
        assert diff < 1e-9


class TestLogFamily:
    def test_residual_small_on_fine_grid(self):
        sol = solutions.make_log_solution(0.3, lmax=63)
        _, linf = sol.grid_residual()
        assert linf < 1e-8
        assert sol.tail_norm < 1e-12

    def test_balance_function_consistency(self):
        sol = solutions.make_log_solution(0.4)
        assert sol.vf.consistency_defect(-0.5, 0.5) < 1e-6

    def test_small_parameter_limit(self):
        sol = solutions.make_log_solution(1e-6, lmax=15)
        tr = sht.default_transform(15)
        assert tr.max_abs(sol.psi) < 1e-5
        assert abs(sol.vf.fprime(0.0) + 2.0 * (1.0 - 1e-12)) < 1e-12

    def test_zonal_parent_satisfies_same_balance(self):
        # the latitude-only profile solves the identical local balance
        eps = 0.35
        sol = solutions.make_log_solution(eps, lmax=31)
        tr = sht.default_transform(31)
        s = tr.grid.nodes
        parent = np.log((1 + eps * s) / (1 - eps * s))[:, None] * np.ones((1, tr.spec.nlon))
        coeffs = tr.analysis(parent)
        resid = tr.synthesis(sht.laplacian(coeffs)).values - sol.vf.f(parent)
        assert np.max(np.abs(resid)) < 1e-9

    def test_parameter_range_enforced(self):
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                solutions.make_log_solution(bad)

    def test_antiderivative_matches_balance(self):
        sol = solutions.make_log_solution(0.25)
        x = np.linspace(-0.4, 0.4, 41)
        h = 1e-6
        fd = (sol.vf.antiderivative(x + h) - sol.vf.antiderivative(x - h)) / (2 * h)
        assert np.max(np.abs(fd - sol.vf.f(x))) < 1e-8


class TestExpFamily:
    def test_residual_small_on_fine_grid(self):
        sol = solutions.make_exp_solution(0.2, lmax=63)
        _, linf = sol.grid_residual()
        assert linf < 1e-8

    def test_level_sets_are_circles_about_tilted_axis(self):
        # the stream value depends only on the distance coordinate to the axis
        sol = solutions.make_exp_solution(0.45, phi0=0.3)
        rng = np.random.default_rng(1)
        for level in (-0.3, 0.1, 0.6):
            u = level
            phi = rng.uniform(0, 2 * math.pi, 50)
            # choose latitudes so cos(lat) * sin(phi - phi0) = u where possible
            with np.errstate(invalid="ignore", divide="ignore"):
                cos_lat = u / np.sin(phi - 0.3)
            mask = (cos_lat <= 1.0) & (cos_lat > 1e-8)  # cos(lat) >= 0 on the sphere
            s = np.sqrt(1 - cos_lat[mask] ** 2)
            for sign in (1.0, -1.0):  # both hemispheres lie on the same circle pair
                values = sol.evaluate(phi[mask], sign * s)
                assert np.max(np.abs(values - (math.exp(0.45 * u) - 1.0))) < 1e-12

    def test_small_parameter_limit(self):
        sol = solutions.make_exp_solution(1e-6, lmax=15)
        assert abs(sol.vf.fprime(0.0) + 2.0) < 1e-11

    def test_nonpositive_parameter_rejected(self):
        with pytest.raises(ValueError):
            solutions.make_exp_solution(0.0)


class TestStationarityCheck:
    def test_zonal_fields_always_stationary(self):
        psi = sht.SpectralField.zeros(15)
        for l, a in [(1, 0.4), (3, -0.2), (7, 0.05)]:
            psi.set(l, 0, a)
        for omega in (0.0, 2.5):
            report = solutions.verify_stationary(psi, omega)
            assert report.linf < 1e-13

    def test_stationary_degree_two_wave(self):
        omega = 1.2
        wave = solutions.make_rossby_haurwitz(
            2, solutions.stationary_alpha(2, omega), {1: 0.3, 2: 0.2}, omega, lmax=15)
        report = solutions.verify_stationary(wave.psi, omega)
        assert report.linf < 1e-9

    def test_log_solution_stationary_fixed_frame(self):
        sol = solutions.make_log_solution(0.3, lmax=63)
        assert solutions.verify_stationary(sol.psi, 0.0).linf < 1e-8

    def test_rotation_equivariance(self):
        sol = solutions.make_log_solution(0.25, lmax=47)
        base = solutions.verify_stationary(sol.psi, 0.0)
        rot = sht.RotationSpec(0.3, 1.1, -0.7)
        rotated = solutions.rotate_solution(sol, rot)
        after = solutions.verify_stationary(rotated.psi, 0.0)
        assert after.linf < 1e-8
        assert abs(after.l2 - base.l2) < 1e-9

    def test_tilting_the_zonal_parent_reproduces_the_family(self):
        # rotating the latitude-only profile onto an equatorial axis gives
        # exactly the non-zonal family member
        eps, lmax = 0.3, 31
        tr = sht.default_transform(lmax)
        s = tr.grid.nodes
        parent_vals = np.log((1 + eps * s) / (1 - eps * s))[:, None] * np.ones((1, tr.spec.nlon))
        parent = tr.analysis(parent_vals)
        # g^{-1} must send the axis coordinate to cos(lat) sin(phi)
        g_inv = sht._rot_z(0.0) @ np.array([[1.0, 0.0, 0.0],
                                            [0.0, 0.0, -1.0],
                                            [0.0, 1.0, 0.0]])  # x-axis quarter turn
        rot = sht.euler_from_matrix(np.linalg.inv(g_inv))
        tilted = sht.rotate(parent, rot)
        family = solutions.make_log_solution(eps, phi0=0.0, lmax=lmax)
        assert np.max(np.abs(tilted.coeffs - family.psi.coeffs)) < 1e-12

    def test_moving_wave_not_stationary(self):
        wave = solutions.make_rossby_haurwitz(2, 0.0, {1: 0.5}, omega=1.0, lmax=12)
        report = solutions.verify_stationary(wave.psi, 1.0)
        assert not report.stationary


class TestStabilityRange:
    def test_log_family_small_parameter_is_stable(self):
        sol = solutions.make_log_solution(0.1, lmax=31)
        lo, hi = solutions.arnold_range(sol.vf, sol)
        assert -6.0 < lo and hi < 0.0
        verdict = stability.arnold_theorem_check((lo, hi))
        assert verdict.verdict == "stable"

    def test_exp_family_small_parameter_is_stable(self):
        sol = solutions.make_exp_solution(0.1, lmax=31)
        lo, hi = solutions.arnold_range(sol.vf, sol)
        assert -6.0 < lo and hi < 0.0

    def test_log_family_range_matches_closed_form(self):
        # F' along the solution is -2(1-eps^2)(1+3 eps^2 u^2)/(1-eps^2 u^2)^2
        eps = 0.3
        sol = solutions.make_log_solution(eps, lmax=31)
        lo, hi = solutions.arnold_range(sol.vf, sol)

        def closed(u):
            return (-2 * (1 - eps**2) * (1 + 3 * eps**2 * u**2)
                    / (1 - eps**2 * u**2) ** 2)

        tr = sht.default_transform(31)
        grid = tr.grid
        u_grid = np.sqrt(1 - grid.nodes[:, None] ** 2) * np.sin(grid.longitudes[None, :])
        assert abs(hi - closed(np.min(np.abs(u_grid)))) < 1e-10
        assert abs(lo - closed(np.max(np.abs(u_grid)))) < 1e-10

    def test_degree_two_wave_is_critical(self):
        # the local balance of a degree-2 pattern has constant slope -6
        vf = solutions.VorticityFunction(f=lambda p: -6.0 * p,
                                         fprime=lambda p: -6.0 * np.ones_like(p))
        wave = solutions.make_rossby_haurwitz(2, 0.0, {1: 0.4}, 0.0, lmax=8)
        rng = solutions.arnold_range(vf, wave.psi)
        verdict = stability.arnold_theorem_check(rng)
        assert verdict.verdict == "critical"

    def test_threshold_search_reports_value(self):
        thr = solutions.stable_epsilon_threshold("exp", eps_lo=0.05, eps_hi=4.0,
                                                 lmax=15, tol=1e-2)
        assert 0.05 < thr < 4.0
        sol = solutions.make_exp_solution(thr + 0.05, lmax=15)
        lo, hi = solutions.arnold_range(sol.vf, sol)
        assert not (-6.0 < lo and hi < 0.0)
