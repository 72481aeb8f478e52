import math

import numpy as np
import pytest

from rotosphere import fields, sht, solutions
from conftest import random_real_field, real_part
from fields_reference import casimir_moment, grid_energy

SQPI = math.sqrt(math.pi)


class TestVelocity:
    def test_sin_lat_stream(self):
        # psi = sin(lat): u = -cos(lat), v = 0
        lmax = 8
        tr = sht.default_transform(lmax)
        psi = sht.SpectralField.zeros(lmax)
        psi.set(1, 0, 2 * math.sqrt(math.pi / 3))
        vel = fields.velocity_from_stream(psi, tr)
        cos_lat = tr.grid.cos_lat[:, None]
        assert np.max(np.abs(vel.u + cos_lat)) < 1e-13
        assert np.max(np.abs(vel.v)) < 1e-14

    def test_zonal_stream_has_no_meridional_flow(self):
        lmax = 10
        tr = sht.default_transform(lmax)
        psi = sht.SpectralField.zeros(lmax)
        for l, a in [(1, 0.3), (2, -0.8), (5, 0.1)]:
            psi.set(l, 0, a)
        vel = fields.velocity_from_stream(psi, tr)
        assert np.max(np.abs(vel.v)) < 1e-14

    def test_speed_parseval(self):
        # grid quadrature of |U|^2 equals the gradient Parseval sum
        psi = real_part(9, {(1, 1): 0.7 - 0.2j, (2, 1): 0.1 + 0.4j})
        expected = sum(
            l * (l + 1) * p for l, p in enumerate(psi.degree_power())
        )
        grid_value = 2.0 * grid_energy(psi)
        assert abs(grid_value - expected) < 1e-12

    def test_grid_energy_matches_spectral_for_random_fields(self):
        psi = random_real_field(21, seed=3, decay=0.3)
        assert abs(grid_energy(psi) - fields.energy(psi)) < 1e-10

    def test_complex_stream_rejected(self):
        # a stream function is one real half table; a second (imaginary) one is refused
        with pytest.raises(ValueError):
            sht.SpectralField(np.zeros((2, 5, 5), dtype=complex))


class TestAdvection:
    def test_self_advection_vanishes(self):
        psi = random_real_field(12, seed=1, decay=0.2)
        out = fields.advection(psi, psi)
        assert out.norm() < 1e-13 * max(1.0, psi.norm())

    def test_zonal_zonal_vanishes(self):
        a = sht.SpectralField.zeros(10)
        b = sht.SpectralField.zeros(10)
        for l in (1, 3, 6):
            a.set(l, 0, 0.5 / l)
            b.set(l, 0, -1.0 / l)
        assert fields.advection(a, b).norm() < 1e-14

    def test_antisymmetry(self):
        a = random_real_field(10, seed=4, decay=0.2)
        b = random_real_field(10, seed=5, decay=0.2)
        ab = fields.advection(a, b)
        ba = fields.advection(b, a)
        defect = fields.enstrophy(ab + ba) ** 0.5
        assert defect < 1e-10 * max(1.0, fields.enstrophy(ab) ** 0.5)

    def test_output_mean_exactly_zero(self):
        a = random_real_field(9, seed=6)
        b = random_real_field(9, seed=7)
        assert fields.advection(a, b).mean_coefficient == 0.0

    def test_integral_of_bracket_vanishes(self):
        a = random_real_field(11, seed=8, decay=0.1)
        b = random_real_field(11, seed=9, decay=0.1)
        out = fields.advection(a, b)
        tr = sht.default_transform(11)
        assert abs(tr.grid.integrate(tr.synthesis(out.halves))) < 1e-10

    def test_travelling_wave_phase_advance_rate(self):
        # bracket applied to the rigid pattern reproduces -speed * d/dphi
        lmax = 15
        omega, alpha = 1.3, 0.25
        wave = solutions.make_rossby_haurwitz(2, alpha, {1: 0.4 - 0.1j}, omega, lmax=lmax)
        q = sht.laplacian(wave.psi)
        q.add_to(1, 0, fields.coriolis_stream_coefficient(omega))
        bracket = fields.advection(wave.psi, q)
        m = np.arange(-lmax, lmax + 1)
        expected = wave.speed * (1j * m)[None, :] * sht.laplacian(wave.psi).coeffs
        assert np.max(np.abs(bracket.coeffs - expected)) < 1e-12

    def test_truncation_mismatch_rejected(self):
        with pytest.raises(sht.GridShapeError):
            fields.advection(random_real_field(8), random_real_field(9))
        # the fused bracket takes exactly one [psi, q] pair of half tables
        tr, half = sht.dealiased_transform(8), random_real_field(8).halves
        for pair in (half, np.stack([half] * 3), np.stack([half, half])[:, :8, :8]):
            with pytest.raises(sht.GridShapeError):
                tr.bracket(pair)


class TestIntegralDiagnostics:
    def test_energy_enstrophy_of_unit_y20(self):
        psi = sht.SpectralField.zeros(8)
        psi.set(2, 0, 1.0)
        assert abs(fields.energy(psi) - 3.0) < 1e-14
        assert abs(fields.enstrophy(psi) - 36.0) < 1e-13

    def test_cubic_moment_of_zonal_combination(self):
        # I_3 for the coefficient combination alpha*Y_1^0 + Y_2^0
        alpha = 0.8
        psi = sht.SpectralField.zeros(8)
        psi.set(1, 0, alpha)
        psi.set(2, 0, 1.0)
        expected = -(72 / math.sqrt(5 * math.pi)) * alpha**2 - 216 * math.sqrt(5) / (7 * SQPI)
        assert abs(casimir_moment(psi, 3) - expected) < 1e-10

    def test_moments_of_zero_field(self):
        psi = sht.SpectralField.zeros(6)
        for k in fields.SUPPORTED_CASIMIR_ORDERS:
            assert casimir_moment(psi, k) == 0.0

    def test_quadratic_moment_is_enstrophy(self):
        psi = random_real_field(13, seed=10, decay=0.3)
        assert abs(casimir_moment(psi, 2) - fields.enstrophy(psi)) < 1e-10

    def test_unsupported_order_rejected(self):
        with pytest.raises(ValueError):
            casimir_moment(random_real_field(5), 6)

    def test_first_modes_are_vorticity_components(self):
        psi = sht.SpectralField.zeros(5)
        psi.set(1, 0, 0.5)
        psi.set(1, 1, 0.25 - 0.1j)
        psi.set(1, -1, -np.conj(0.25 - 0.1j))
        cm, c0, cp = fields.first_modes(psi)
        assert abs(c0 - (-1.0)) < 1e-15
        assert abs(cp - (-0.5 + 0.2j)) < 1e-15
        assert abs(cm - (-1) * np.conj(cp)) < 1e-15


# every tabulated product integral (quadrature oracle against exact values);
# the quintic zonal value is the exact 25*sqrt(5)/(154 pi^(3/2))
PRODUCT_INTEGRALS = [
    ([(2, 0, 2)], 1.0),
    ([(2, -1, 1), (2, 1, 1)], -1.0),
    ([(2, -2, 1), (2, 2, 1)], 1.0),
    ([(2, 0, 3)], math.sqrt(5) / (7 * SQPI)),
    ([(2, 0, 1), (2, -1, 1), (2, 1, 1)], -math.sqrt(5) / (14 * SQPI)),
    ([(2, 0, 1), (2, -2, 1), (2, 2, 1)], -math.sqrt(5) / (7 * SQPI)),
    ([(2, 2, 1), (2, -1, 2)], math.sqrt(15) / (7 * math.sqrt(2 * math.pi))),
    ([(2, -2, 1), (2, 1, 2)], math.sqrt(15) / (7 * math.sqrt(2 * math.pi))),
    ([(2, 0, 4)], 15 / (28 * math.pi)),
    ([(2, 0, 2), (2, -2, 1), (2, 2, 1)], 5 / (28 * math.pi)),
    ([(2, 0, 2), (2, -1, 1), (2, 1, 1)], -5 / (28 * math.pi)),
    ([(2, 0, 1), (2, 2, 1), (2, -1, 2)], 0.0),
    ([(2, 0, 1), (2, -2, 1), (2, 1, 2)], 0.0),
    ([(2, 2, 2), (2, -2, 2)], 5 / (14 * math.pi)),
    ([(2, 1, 2), (2, -1, 2)], 5 / (14 * math.pi)),
    ([(2, -2, 1), (2, 2, 1), (2, -1, 1), (2, 1, 1)], -5 / (28 * math.pi)),
    ([(2, 0, 5)], 25 * math.sqrt(5) / (154 * math.pi * SQPI)),
    ([(2, 0, 3), (2, -2, 1), (2, 2, 1)], -5 * math.sqrt(5) / (154 * math.pi * SQPI)),
    ([(2, 0, 3), (2, -1, 1), (2, 1, 1)], -25 * math.sqrt(5) / (4 * 154 * math.pi * SQPI)),
    ([(1, 0, 3)], 0.0),
    ([(1, 0, 1), (2, 0, 2)], 0.0),
    ([(1, 0, 1), (2, -2, 1), (2, 2, 1)], 0.0),
    ([(1, 0, 1), (2, -1, 1), (2, 1, 1)], 0.0),
    ([(1, 0, 2), (2, 0, 1)], 1 / math.sqrt(5 * math.pi)),
    ([(1, 0, 4)], 9 / (20 * math.pi)),
    ([(1, 0, 1), (2, 0, 3)], 0.0),
    ([(1, 0, 2), (2, 0, 2)], 11 / (28 * math.pi)),
    # the next two are 3/(28 pi) and -9/(28 pi) by exact rational integration
    ([(1, 0, 2), (2, 2, 1), (2, -2, 1)], 3 / (28 * math.pi)),
    ([(1, 0, 2), (2, 1, 1), (2, -1, 1)], -9 / (28 * math.pi)),
]


class TestProductIntegrals:
    @pytest.mark.parametrize("factors,expected", PRODUCT_INTEGRALS)
    def test_tabulated_values(self, factors, expected):
        assert abs(fields.harmonic_product_integral(factors) - expected) < 1e-10

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            fields.harmonic_product_integral([(2, 3, 1)])
        with pytest.raises(ValueError):
            fields.harmonic_product_integral([])


class TestPoincare:
    def test_sharpness_at_lowest_remaining_degree(self):
        for n in (1, 2, 4):
            psi = sht.SpectralField.zeros(8)
            psi.set(n + 1, 0, 1.0)
            report = fields.poincare_check(psi, n)
            assert report.holds
            assert abs(report.lhs_enstrophy - report.rhs_scaled_energy) < 1e-10

    def test_strict_inequality_one_degree_up(self):
        n = 2
        psi = sht.SpectralField.zeros(8)
        psi.set(n + 2, 0, 1.0)
        report = fields.poincare_check(psi, n)
        # Parseval ratio (n+2)(n+3) vs (n+1)(n+2)
        assert report.holds
        ratio = report.lhs_enstrophy / report.rhs_scaled_energy
        assert abs(ratio - (n + 3) / (n + 1)) < 1e-12

    def test_random_mixed_field(self):
        psi = random_real_field(12, seed=15, decay=0.1)
        for n in (1, 3, 5):
            assert fields.poincare_check(psi, n).holds


class TestDiagnosticsRecord:
    def test_energy_consistency_invariant(self):
        psi = random_real_field(10, seed=16, decay=0.4)
        rec = fields.diagnostics(psi, time=1.5)
        recomputed = 0.5 * sum(
            l * (l + 1) * p for l, p in enumerate(psi.degree_power())
        )
        assert abs(rec.energy - recomputed) < 1e-10
        assert abs(rec.casimirs[2] - rec.enstrophy) < 1e-10

    def test_csv_round_trip_of_columns(self):
        psi = random_real_field(6, seed=17)
        rec = fields.diagnostics(psi, time=0.25)
        header = fields.DiagnosticRecord.csv_header(6)
        row = rec.csv_row()
        assert len(header.split(",")) == len(row.split(","))
        values = [float(x) for x in row.split(",")]
        assert values[0] == 0.25
        assert abs(values[1] - rec.energy) == 0.0
