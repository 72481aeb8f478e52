import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import Legendre, Polynomial, legendre
from scipy import optimize

from rotosphere import dynamics, sht, solutions, stability
from conftest import real_part


def _power_psi(gradient):
    """Integer power-basis psi whose vort' is a positive multiple of the
    polynomial `gradient` (coefficients lowest first), and that multiple:
    (1 - s^2) psi' = u with u'' = gradient and u(+-1) = 0, solved exactly."""
    u = [Fraction(0), Fraction(0)] + [Fraction(c) / ((k + 1) * (k + 2))
                                      for k, c in enumerate(gradient)]
    even, odd = sum(u[0::2]), sum(u[1::2])  # u(1) = even + odd, u(-1) = even - odd
    u[0] -= even
    u[1] -= odd
    dpsi = [Fraction(0)] * len(u)  # u_k = dpsi_k - dpsi_{k-2}
    for k in range(len(u) - 1, 1, -1):
        dpsi[k - 2] = dpsi[k] - u[k]
    assert dpsi[:2] == u[:2]  # no remainder
    psi = [Fraction(0)] + [c / (k + 1) for k, c in enumerate(dpsi)]
    scale = math.lcm(*(c.denominator for c in psi))
    return Polynomial([float(c * scale) for c in psi]), scale


class TestZonalProfile:
    def test_from_zonal_coefficients(self):
        zp = stability.ZonalProfile.from_zonal_coefficients({1: 2.0})
        s = np.linspace(-0.9, 0.9, 7)
        expected = 2.0 * math.sqrt(3 / (4 * math.pi)) * s
        assert np.max(np.abs(zp.psi(s) - expected)) < 1e-14
        assert np.max(np.abs(zp.vort(s) + 2 * expected)) < 1e-13

    def test_power_and_legendre_bases_agree(self):
        # -l(l+1) c_l on the Legendre series against ((1 - s^2) psi')' on
        # the same stream function in the power basis
        rng = np.random.default_rng(3)
        legendre = stability.ZonalProfile(Legendre(rng.normal(size=9)))
        power = stability.ZonalProfile(legendre.psi.convert(kind=Polynomial))
        s = np.linspace(-1.0, 1.0, 101)
        for name in ("psi", "dpsi", "vort", "dvort"):
            a, b = getattr(legendre, name)(s), getattr(power, name)(s)
            assert np.max(np.abs(a - b)) < 1e-11 * np.max(np.abs(a)), name


class TestNecessaryCriteria:
    def test_solid_rotation_fails_both(self):
        zp = stability.ZonalProfile.solid_rotation(0.7)
        omega = 1.5
        shear = stability.shear_criteria(zp, omega)
        assert not shear.rayleigh_met and not shear.degenerate
        assert not shear.fjortoft_met

    def test_quadratic_profile_meets_both(self):
        # stream (omega/3) s^2: total vorticity gradient 2 omega (1 - 2s)
        omega = 1.2
        zp = stability.ZonalProfile(Polynomial([0.0, 0.0, omega / 3]))
        shear = stability.shear_criteria(zp, omega)
        assert shear.rayleigh_met
        assert abs(shear.sign_changes[0] - 0.5) < 1e-10
        assert shear.fjortoft_met

    def test_degenerate_gradient(self):
        # solid rotation at exactly the frame rate: gradient identically zero
        zp = stability.ZonalProfile.solid_rotation(1.0)
        shear = stability.shear_criteria(zp, omega=1.0)
        assert shear.degenerate
        assert not shear.rayleigh_met and not shear.fjortoft_met

    def test_fjortoft_implies_rayleigh(self):
        # and conversely, for a profile regular at the poles: if g (w - gamma) <= 0
        # everywhere, h = (1 - s^2)(w - gamma) vanishes at +-1 and
        # g = 2 (gamma + omega) - h'', so convexity keeps g to one sign
        rng = np.random.default_rng(0)
        verdicts = set()
        for trial in range(240):
            coeffs = {l: rng.normal() for l in range(1, int(rng.integers(2, 9)))}
            zp = stability.ZonalProfile.from_zonal_coefficients(coeffs)
            shear = stability.shear_criteria(zp, float(rng.uniform(-2, 2) * rng.choice([1, 10])))
            assert shear.fjortoft_met == shear.rayleigh_met
            verdicts.add(shear.rayleigh_met)
        assert verdicts == {True, False}


class TestExactSignRegions:
    """The criteria read the gradient polynomial's roots, not samples."""

    @staticmethod
    def _dip_profile(depth, relative=False):
        # {2: 0.0123, 3: -1.0}: the gradient is a s^2 + b s + c + 2 omega, from
        # vort = -l(l+1) psi_l, P2' = 3s and P3' = (15 s^2 - 3)/2; omega puts
        # its minimum, near s = 0.00104, `depth` below zero, or `depth` times
        # its largest |value| (at s = 1 or -1)
        c2, c3 = 0.0123 * math.sqrt(5 / (4 * math.pi)), -math.sqrt(7 / (4 * math.pi))
        a, b, c = -90.0 * c3, -18.0 * c2, 18.0 * c3
        vertex = -b / (2 * a)
        bottom = a * vertex**2 + b * vertex + c
        if relative:
            depth *= max(a + b, a - b) + c - bottom
        zp = stability.ZonalProfile.from_zonal_coefficients({2: 0.0123, 3: -1.0})
        return zp, -(bottom + depth) / 2

    def test_shallow_dip_meets_both(self):
        # negative on (0.0010273, 0.0010517): between two of any 1e-3-spaced samples
        zp, omega = self._dip_profile(1e-8)
        shear = stability.shear_criteria(zp, omega)
        assert shear.rayleigh_met and not shear.degenerate
        assert len(shear.sign_changes) == 2
        assert all(0.00102 < x < 0.00106 for x in shear.sign_changes)
        assert shear.fjortoft_met

    def test_dip_of_1e_10_of_the_scale_is_met(self):
        zp, omega = self._dip_profile(1e-10, relative=True)
        shear = stability.shear_criteria(zp, omega)
        assert len(shear.sign_changes) == 2
        assert shear.fjortoft_met

    @pytest.mark.parametrize("gradient", [[1, -4, 4], [0, 0, 1], [-81, 1080, -5400, 12000, -10000]],
                             ids=["(s-1/2)^2", "s^2", "-(s-0.3)^4"])
    def test_power_basis_tangency_is_not_met(self, gradient):
        psi, scale = _power_psi(gradient)
        zp = stability.ZonalProfile(psi)
        assert np.array_equal(zp.dvort.coef, scale * np.array(gradient, dtype=float))  # stored exactly
        shear = stability.shear_criteria(zp, 0.0)
        assert not shear.rayleigh_met and shear.sign_changes == []
        assert not shear.fjortoft_met

    def test_legendre_basis_tangency_is_not_met(self):
        # vort' = 105 - 180 P1 + 120 P2 = 180 (s - 1/2)^2, stored exactly
        zp = stability.ZonalProfile(Legendre([0.0, -40.5, 10.0, -2.0]))
        assert np.array_equal(zp.dvort.coef, [105.0, -180.0, 120.0])
        shear = stability.shear_criteria(zp, 0.0)
        assert not shear.rayleigh_met and not shear.fjortoft_met

    def test_crossings_match_a_dense_scan_at_degree_48(self):
        # the gradient from the test's own Legendre coefficients, scanned at
        # spacing 1e-6; 1e-3-spaced samples in [-0.999, 0.999] miss one crossing
        rng = np.random.default_rng(75)
        coeffs = {l: rng.normal() for l in range(1, 49)}
        omega = float(rng.uniform(-2.0, 2.0))
        l = np.arange(49)
        c = np.array([0.0] + [coeffs[k] for k in range(1, 49)]) * np.sqrt((2 * l + 1) / (4 * math.pi))
        gradient = legendre.legder(-l * (l + 1.0) * c)
        gradient[0] += 2.0 * omega
        s = np.linspace(-1.0, 1.0, 2_000_001)
        sign = np.sign(legendre.legval(s, gradient))
        changes = np.flatnonzero(sign[1:] * sign[:-1] < 0)
        assert np.min(np.diff(changes)) > 10  # the scan resolves every pair
        found = stability.shear_criteria(
            stability.ZonalProfile.from_zonal_coefficients(coeffs), omega).sign_changes
        assert len(found) == changes.size
        assert np.max(np.abs(np.array(found) - s[changes])) <= s[1] - s[0]

    def test_essential_interval_is_the_range_of_dpsi_at_degree_40(self):
        rng = np.random.default_rng(40)
        coeffs = {l: rng.normal() for l in range(1, 41)}
        l = np.arange(41)
        c = np.array([0.0] + [coeffs[k] for k in range(1, 41)]) * np.sqrt((2 * l + 1) / (4 * math.pi))
        dpsi = legendre.legder(c)
        curvature = legendre.legder(dpsi)
        s = np.linspace(-1.0, 1.0, 200_001)
        flips = np.flatnonzero(np.diff(np.sign(legendre.legval(s, curvature))))
        critical = [optimize.brentq(legendre.legval, s[i], s[i + 1], args=(curvature,), xtol=1e-15)
                    for i in flips]
        values = legendre.legval(np.array([-1.0, 1.0, *critical]), dpsi)
        zp = stability.ZonalProfile.from_zonal_coefficients(coeffs)
        lo, hi = stability.zonal_operator_spectrum(zp, 1.0, 1, 8).essential_interval
        assert lo == pytest.approx(values.min(), rel=1e-12, abs=0)
        assert hi == pytest.approx(values.max(), rel=1e-12, abs=0)

    def test_fjortoft_reduction_matches_a_gamma_scan(self):
        # met iff every gamma has a point with g (wind - gamma) > 0: scan the
        # gammas between the wind's extremes on a dense grid
        rng = np.random.default_rng(5)
        s = np.linspace(-1.0, 1.0, 20001)
        verdicts = set()
        for _ in range(20):
            zp = stability.ZonalProfile.from_zonal_coefficients(
                {l: rng.normal() for l in range(1, 4)})
            omega = float(rng.uniform(-8.0, 8.0))
            g, wind = zp.dvort(s) + 2.0 * omega, -zp.dpsi(s)
            gammas = np.linspace(wind.min(), wind.max(), 2001)
            scanned = all(np.any(g * (wind - gamma) > 0.0) for gamma in gammas)
            verdict = stability.shear_criteria(zp, omega).fjortoft_met
            assert verdict == scanned
            verdicts.add(verdict)
        assert verdicts == {True, False}


    @pytest.mark.parametrize("seed", [256, 600])
    def test_fjortoft_extremes_match_a_dense_scan(self, seed):
        # the reported sup of the wind over S+ and inf over S-; in these
        # profiles the wind's own max or min lies on the other side
        rng = np.random.default_rng(seed)
        zp = stability.ZonalProfile.from_zonal_coefficients(
            {l: rng.normal() for l in range(1, int(rng.integers(2, 9)))})
        omega = float(rng.uniform(-3.0, 3.0) * rng.choice([1, 10]))
        s = np.linspace(-1.0, 1.0, 2_000_001)
        g, wind = zp.dvort(s) + 2.0 * omega, -zp.dpsi(s)
        shear = stability.shear_criteria(zp, omega)
        sup, inf = shear.wind_sup, shear.wind_inf
        assert sup == pytest.approx(wind[g > 0].max(), rel=1e-5)
        assert inf == pytest.approx(wind[g < 0].min(), rel=1e-5)
        assert sup < wind.max() - 1e-3 or inf > wind.min() + 1e-3


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
        critical = stability.critical_amplitude_three_jet(omega, n_basis=40, rel_tol=1e-3)
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

    @pytest.mark.parametrize("r1, r2, inside", [
        (1 - Fraction(1, 10**20), 5, True), (Fraction(1, 10**20), 5, True),
        (-1, Fraction(1, 2), True), (1, 5, False), (0, 5, False), (2, 3, False),
        (-1, -2, False),
    ], ids=["below-one", "above-zero", "larger-inside", "one", "zero", "both-above-one",
            "both-negative"])
    def test_roots_in_unit_interval_decided_exactly(self, r1, r2, inside):
        # (x - r1)(x - r2): a float square root of the discriminant rounds
        # the first two r1 onto 1 and 0
        quad = stability.QuadraticForm(p=-Fraction(r1 + r2), q=Fraction(r1 * r2))
        assert quad.roots_in_unit_interval() is inside

    def test_denominator_root_just_below_one_is_inconclusive(self):
        # denominator roots 1 - 1e-20 and 5 with alpha = 1 and omega = 0, via
        # p = 2(beta - 2)/5 and q = (gamma - 8 beta)/15; beta != -4/3, so the
        # numerator cannot match the denominator
        r1, r2 = 1 - Fraction(1, 10**20), Fraction(5)
        beta = -Fraction(5, 2) * (r1 + r2) + 2
        gamma = 15 * r1 * r2 + 8 * beta
        profile = stability.QuinticZonalProfile(alpha=Fraction(1), beta=beta, gamma=gamma)
        verdict = stability.theorem42_check(profile, 0)
        assert verdict.denominator_quadratic.p == -(r1 + r2)
        assert verdict.denominator_quadratic.q == r1 * r2
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

    def test_order_beyond_degree_rejected(self):
        with pytest.raises(ValueError, match="beyond degree 2"):
            stability.instability_separation_bound(2, 1.0, {1: 0.5, 3: 1.0}, 10)

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
