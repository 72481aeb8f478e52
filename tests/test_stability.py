import math
from fractions import Fraction

import numpy as np
import pytest

from rotosphere import dynamics, sht, solutions, stability
from conftest import real_part


class TestZonalProfile:
    def test_consistency_check_accepts_matching_pair(self):
        zp = stability.ZonalProfile(
            psi=lambda s: 0.5 * s**2,
            dpsi=lambda s: np.asarray(s, dtype=float),
            vort=lambda s: (1 - np.asarray(s) ** 2) - 2 * np.asarray(s) ** 2,
            dvort=lambda s: -6.0 * np.asarray(s, dtype=float),
        )
        assert zp.consistency_defect() < 1e-8

    def test_consistency_check_rejects_mismatch(self):
        with pytest.raises(ValueError):
            stability.ZonalProfile(
                psi=lambda s: 0.5 * s**2,
                dpsi=lambda s: np.asarray(s, dtype=float),
                vort=lambda s: np.ones_like(np.asarray(s, dtype=float)),
                dvort=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            )

    def test_from_zonal_coefficients(self):
        zp = stability.ZonalProfile.from_zonal_coefficients({1: 2.0})
        s = np.linspace(-0.9, 0.9, 7)
        expected = 2.0 * math.sqrt(3 / (4 * math.pi)) * s
        assert np.max(np.abs(zp.psi(s) - expected)) < 1e-14
        assert np.max(np.abs(zp.vort(s) + 2 * expected)) < 1e-13


class TestNecessaryCriteria:
    def test_solid_rotation_fails_both(self):
        zp = stability.ZonalProfile.solid_rotation(0.7)
        omega = 1.5
        ray = stability.rayleigh_criterion(zp, omega)
        assert not ray.met and not ray.degenerate
        fjo = stability.fjortoft_criterion(zp, omega, gamma_samples=[-1.0, 0.0, 1.0])
        assert not fjo.met

    def test_quadratic_profile_meets_both(self):
        # stream (omega/3) s^2: total vorticity gradient 2 omega (1 - 2s)
        omega = 1.2
        zp = stability.ZonalProfile(
            psi=lambda s: omega / 3 * np.asarray(s) ** 2,
            dpsi=lambda s: 2 * omega / 3 * np.asarray(s, dtype=float),
            vort=lambda s: 2 * omega / 3 * (1 - 3 * np.asarray(s) ** 2),
            dvort=lambda s: -4 * omega * np.asarray(s, dtype=float),
        )
        ray = stability.rayleigh_criterion(zp, omega)
        assert ray.met
        assert abs(ray.sign_change_locations[0] - 0.5) < 1e-10
        fjo = stability.fjortoft_criterion(zp, omega, gamma_samples=[-0.5, 0.0, 0.5])
        assert fjo.met

    def test_degenerate_gradient(self):
        # solid rotation at exactly the frame rate: gradient identically zero
        zp = stability.ZonalProfile.solid_rotation(1.0)
        ray = stability.rayleigh_criterion(zp, omega=1.0)
        assert ray.degenerate
        fjo = stability.fjortoft_criterion(zp, omega=1.0, gamma_samples=[0.0])
        assert fjo.degenerate

    def test_fjortoft_implies_rayleigh(self):
        rng = np.random.default_rng(0)
        for trial in range(12):
            coeffs = {l: rng.normal() for l in range(1, 5)}
            zp = stability.ZonalProfile.from_zonal_coefficients(coeffs)
            omega = rng.uniform(-2, 2)
            fjo = stability.fjortoft_criterion(zp, omega, gamma_samples=[-1, 0, 1])
            if fjo.met:
                assert stability.rayleigh_criterion(zp, omega).met

    def test_empty_gamma_samples_rejected(self):
        zp = stability.ZonalProfile.solid_rotation(1.0)
        with pytest.raises(ValueError):
            stability.fjortoft_criterion(zp, 0.5, gamma_samples=[])


class TestOperatorSpectrum:
    def test_solid_rotation_closed_form(self):
        alpha, omega, n_basis = 1.0, 2.0, 64
        zp = stability.ZonalProfile.solid_rotation(alpha)
        for k in range(1, 5):
            rep = stability.zonal_operator_spectrum(zp, omega, k, n_basis)
            expected = np.sort(stability.solid_rotation_eigenvalues(alpha, omega, k, n_basis))
            got = np.sort(rep.eigenvalues.real)
            assert np.max(np.abs(got - expected)) < 1e-8
            assert np.max(np.abs(rep.eigenvalues.imag)) < 1e-12
            assert not rep.unstable

    def test_degree_one_two_zonal_flow_is_spectrally_real(self):
        zp = stability.ZonalProfile.from_zonal_coefficients({1: 1.0, 2: 1.0})
        for k in (1, 2, 3):
            rep = stability.zonal_operator_spectrum(zp, 2.0, k, 64)
            assert np.max(np.abs(rep.eigenvalues.imag)) < 1e-8
            assert not rep.unstable

    def test_three_jet_instability_beyond_critical_amplitude(self):
        omega = 1.0
        critical = stability.critical_amplitude_three_jet(omega, k_range=(1, 2),
                                                          n_basis=40, rel_tol=1e-3)
        zp_low = stability.ZonalProfile.from_zonal_coefficients({3: 0.9 * critical})
        zp_high = stability.ZonalProfile.from_zonal_coefficients({3: 1.1 * critical})
        low_unstable = any(
            stability.zonal_operator_spectrum(zp_low, omega, k, 40).unstable for k in (1, 2))
        high_unstable = any(
            stability.zonal_operator_spectrum(zp_high, omega, k, 40).unstable for k in (1, 2))
        assert not low_unstable
        assert high_unstable

    def test_spectrum_converges_under_basis_enlargement(self):
        # solid rotation: every eigenvalue is discrete and matches the formula
        zp = stability.ZonalProfile.solid_rotation(0.8)
        small = stability.zonal_operator_spectrum(zp, 1.5, 1, 32)
        large = stability.zonal_operator_spectrum(zp, 1.5, 1, 64)
        a = np.sort(small.eigenvalues.real)
        b = np.sort(large.eigenvalues.real)[-a.size:]
        assert np.max(np.abs(a - b)) < 1e-10

        # three-jet profile: the unstable complex pair is stable under N -> 2N
        zp3 = stability.ZonalProfile.from_zonal_coefficients({3: 6.0})
        pair = {}
        for n_basis in (96, 192):
            rep = stability.zonal_operator_spectrum(zp3, 1.0, 1, n_basis)
            pair[n_basis] = [z for z in rep.discrete_eigenvalues if z.imag > 0][0]
        assert abs(pair[96] - pair[192]) < 1e-6

        # the stable low-degree profile has no discrete points at either size
        zp12 = stability.ZonalProfile.from_zonal_coefficients({1: 0.7, 2: 0.5})
        for n_basis in (32, 64):
            rep = stability.zonal_operator_spectrum(zp12, 1.0, 1, n_basis)
            assert rep.discrete_eigenvalues == []

    def test_conjugation_symmetry(self):
        zp = stability.ZonalProfile.from_zonal_coefficients({3: 4.0})
        rep = stability.zonal_operator_spectrum(zp, 1.0, 1, 48)
        assert rep.pairing_defect < 1e-8

    def test_zero_wavenumber_rejected(self):
        zp = stability.ZonalProfile.solid_rotation(1.0)
        with pytest.raises(ValueError):
            stability.zonal_operator_spectrum(zp, 1.0, 0, 16)


class TestArnoldCheck:
    def test_strict_interior_is_stable(self):
        assert stability.arnold_theorem_check((-5.5, -0.1)).verdict == "stable"

    def test_boundary_is_critical(self):
        assert stability.arnold_theorem_check((-6.0, -0.5)).verdict == "critical"

    def test_outside_is_inconclusive(self):
        assert stability.arnold_theorem_check((-7.0, -1.0)).verdict == "inconclusive"
        assert stability.arnold_theorem_check((-3.0, 0.5)).verdict == "inconclusive"


class TestQuinticFits:
    def test_uranus_exact_fractions(self):
        p = stability.fit_quintic_profile(Fraction(1, 2), Fraction(-8, 15), Fraction(4, 3))
        assert (p.alpha, p.beta, p.gamma) == (
            Fraction(64, 45), Fraction(-272, 45), Fraction(184, 45))

    def test_neptune_exact_fractions(self):
        p = stability.fit_quintic_profile(Fraction(1, 4), Fraction(-2), Fraction(1))
        assert (p.alpha, p.beta, p.gamma) == (
            Fraction(2048, 75), Fraction(-2656, 75), Fraction(458, 75))

    def test_degenerate_symmetric_fit(self):
        # zero max at the same cosine scale collapses onto a pure cos profile
        p = stability.fit_quintic_profile(Fraction(1, 2), Fraction(0), Fraction(0))
        assert p.wind(np.array([0.0]))[0] == 0.0

    def test_singular_system_rejected(self):
        with pytest.raises(ZeroDivisionError):
            stability.fit_quintic_profile(Fraction(1), Fraction(0), Fraction(0))

    def test_uranus_verdict_and_quadratic(self):
        out = stability.planet_wind_stability("uranus")
        v = out["verdict"]
        assert v.verdict == "stable"
        assert v.denominator_quadratic.p == Fraction(-5, 2)
        assert v.denominator_quadratic.q == Fraction(155, 96)
        assert v.denominator_quadratic.discriminant() < 0
        assert v.numerator_quadratic.discriminant() < 0

    def test_neptune_verdict_and_quadratic(self):
        out = stability.planet_wind_stability("neptune")
        v = out["verdict"]
        assert v.verdict == "stable"
        assert v.denominator_quadratic.p == Fraction(-211, 160)
        assert v.denominator_quadratic.q == Fraction(20731, 30720)
        assert v.denominator_quadratic.discriminant() < 0

    def test_fabricated_profile_is_inconclusive(self):
        # choose the quadratic roots first: x^2 - x + 3/16 has roots 1/4, 3/4
        # via q = (gamma - omega - 8 beta)/(15 alpha), p = 2(beta-2alpha)/(5alpha)
        alpha = Fraction(1)
        beta = -alpha / 2  # gives p = -1
        gamma = Fraction(3, 16) * 15 * alpha + 8 * beta  # omega = 0
        profile = stability.QuinticZonalProfile(alpha=alpha, beta=beta, gamma=gamma)
        verdict = stability.theorem42_check(profile, 0)
        assert verdict.denominator_quadratic.p == -1
        assert verdict.denominator_quadratic.q == Fraction(3, 16)
        assert verdict.verdict == "inconclusive"

    def test_zero_leading_coefficient_rejected(self):
        profile = stability.QuinticZonalProfile(Fraction(0), Fraction(1), Fraction(1))
        with pytest.raises(ZeroDivisionError):
            stability.theorem42_check(profile, 0)

    def test_quintic_profile_spectrum_is_stable(self):
        # the fitted profiles also pass the numerical spectrum check
        out = stability.planet_wind_stability("uranus")
        zp = out["profile"].zonal_profile(float(out["omega"]))
        rep = stability.zonal_operator_spectrum(zp, float(out["omega"]), 1, 48)
        assert not rep.unstable


class TestModalExperiment:
    def test_unperturbed_state_stays_put(self):
        lmax = 10
        cfg = dynamics.SimulationConfig(
            omega=0.0, dt=0.02, t_end=0.4,
            lmax=lmax, diag_stride=5)
        wave = solutions.make_rossby_haurwitz(2, 0.5, {0: 1.0}, 0.0, lmax=lmax)
        series = stability.rh2_modal_experiment(
            wave, perturbation=sht.SpectralField.zeros(lmax), config=cfg)
        assert np.max(np.abs(series.quadratic_combination - 1.0)) < 1e-12
        assert np.max(series.weighted_tail) < 1e-24

    def test_deviations_scale_with_perturbation(self):
        lmax = 10
        devs, tails = [], []
        eps_values = [1e-2, 1e-3]
        for eps in eps_values:
            pert = real_part(lmax, {(2, 0): 0.4 * eps, (2, 1): 0.3 * eps, (3, 1): 0.5 * eps})
            cfg = dynamics.SimulationConfig(
                omega=0.0, dt=0.02, t_end=2.0,
                lmax=lmax, diag_stride=10)
            wave = solutions.make_rossby_haurwitz(2, 0.4, {0: 1.0}, 0.0, lmax=lmax)
            series = stability.rh2_modal_experiment(wave, perturbation=pert, config=cfg)
            devs.append(np.max(np.abs(series.quadratic_combination - 1.0)))
            tails.append(np.max(series.weighted_tail))
        slope_dev = math.log(devs[0] / devs[1]) / math.log(10.0)
        slope_tail = math.log(tails[0] / tails[1]) / math.log(10.0)
        assert 0.8 <= slope_dev <= 1.2
        assert 1.8 <= slope_tail <= 2.2


class TestSeparationBound:
    def test_pure_tesseral_bound_value(self):
        # unit-norm degree-2 pattern carried by the order-1 pair:
        # wave term = 4 pi beta^2 * (|a|^2 + |a|^2)/(2 pi) = 2 beta^2
        a = 1.0 / math.sqrt(2.0)
        bound = stability.instability_separation_bound(
            2, beta=1.0, ycoeffs={1: a, -1: -a}, n=10)
        assert abs(bound.wave_term - 2.0) < 1e-12
        assert abs(bound.perturbation_term - 4 * math.pi / 300.0) < 1e-15
        assert bound.total > 0.0

    def test_zonal_pattern_rejected(self):
        with pytest.raises(ValueError):
            stability.instability_separation_bound(2, 1.0, {0: 1.0}, 10)

    def test_simulated_separation_exceeds_bound(self):
        # the detuned and base patterns are exact travelling waves whose
        # squared distance beats; the simulated sup must clear the bound
        lmax = 10
        omega = 1.0
        n = 5
        alpha = solutions.stationary_alpha(2, omega)
        a = 1.0 / math.sqrt(2.0)
        ycoeffs = {1: a, -1: -a}
        base = solutions.make_rossby_haurwitz(2, alpha, ycoeffs, omega, lmax=lmax)
        pert = solutions.make_rossby_haurwitz(2, alpha + 1.0 / n, ycoeffs, omega, lmax=lmax)
        beat_period = 2 * math.pi / abs(pert.speed - base.speed)
        cfg = dynamics.SimulationConfig(
            omega=omega, dt=beat_period / 4000, t_end=beat_period,
            lmax=lmax, diag_stride=40)
        states = []
        dynamics.run(sht.laplacian(pert.psi), cfg, on_step=lambda i, state: states.append(state))
        bound = stability.instability_separation_bound(2, 1.0, ycoeffs, n)
        sup = 0.0
        for state in states:
            psi = state.stream_function()
            delta = psi - base.at_time(state.time)
            sup = max(sup, delta.norm() ** 2)
        assert sup >= 0.9 * bound.wave_term
        assert sup >= 0.9 * bound.total
