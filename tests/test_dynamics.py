import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotosphere import dynamics, fields, sht, snapshot, solutions
from conftest import random_real_field
from spectral_reference import reality_defect


def _config(lmax, omega, dt, t_end, **kw):
    return dynamics.SimulationConfig(
        omega=omega, dt=dt, t_end=t_end,
        lmax=lmax, **kw)


def _unfused_bracket(tr, pair):
    """The advection bracket of the half tables pair = [psi, q] through the
    public unfused path: one stacked `gradient_values`, the grid product,
    `analysis`."""
    dtheta, dphi_over_cos = tr.gradient_values(pair)
    out = tr.analysis(-dtheta[0] * dphi_over_cos[1] + dphi_over_cos[0] * dtheta[1])
    out[0, 0] = 0.0
    return out


def _unfused_tendency(vort, omega):
    """Minus the unfused advection bracket of psi and the total vorticity q."""
    lmax = vort.shape[0] - 1
    l = np.arange(1, lmax + 1, dtype=float)
    psi = np.zeros_like(vort)
    psi[1:] = vort[1:] / (-l * (l + 1.0))[:, None]
    q = vort.copy()
    q[1, 0] += fields.coriolis_stream_coefficient(omega)
    return -_unfused_bracket(sht.dealiased_transform(lmax), np.stack([psi, q]))


def _unfused_rk4_step(c0, cfg):
    """One RK4 step of the half table c0 on `_unfused_tendency`, then the filter."""
    dt, omega = cfg.dt, cfg.omega
    k1 = _unfused_tendency(c0, omega)
    k2 = _unfused_tendency(c0 + 0.5 * dt * k1, omega)
    k3 = _unfused_tendency(c0 + 0.5 * dt * k2, omega)
    k4 = _unfused_tendency(c0 + dt * k3, omega)
    new = c0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if cfg.filter_strength == 0.0:
        return new
    l = np.arange(cfg.lmax + 1) / cfg.lmax
    return new * np.exp(-cfg.filter_strength * dt * l**8)[:, None]


def _assert_two_steps_match_unfused(vort, filter_strength):
    """Two steps of `dynamics.step` equal two `_unfused_rk4_step`s, and the
    entries a snapshot writes have the same bytes, sign bits of zeros included."""
    cfg = _config(vort.lmax, omega=1.3, dt=0.01, t_end=0.02, filter_strength=filter_strength)
    state, want = dynamics.SimulationState(0.0, vort), vort.halves
    for _ in range(2):
        state = dynamics.step(state, cfg)
        want = _unfused_rk4_step(want, cfg)
    assert np.array_equal(state.vorticity.halves, want)
    got, ref = snapshot._flatten(state.vorticity), snapshot._flatten(sht.SpectralField(want))
    assert got.tobytes() == ref.tobytes()


class TestTendency:
    def test_zonal_state_is_stationary(self):
        lmax = 12
        vort = sht.SpectralField.zeros(lmax)
        for l, a in [(1, 0.4), (2, -0.9), (5, 0.2)]:
            vort.set(l, 0, a)
        out = dynamics.tendency(dynamics.SimulationState(0.0, vort), omega=1.7)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_ground_state_without_rotation(self):
        vort = sht.SpectralField.zeros(8)
        vort.set(1, 0, 0.6)
        out = dynamics.tendency(dynamics.SimulationState(0.0, vort), omega=0.0)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_travelling_wave_tendency(self):
        # rigid pattern: tendency is -speed * d/dphi of the vorticity
        lmax = 15
        omega, alpha = 1.0, 0.4
        wave = solutions.make_rossby_haurwitz(2, alpha, {1: 0.3 + 0.2j}, omega, lmax=lmax)
        vort = sht.laplacian(wave.psi)
        out = dynamics.tendency(dynamics.SimulationState(0.0, vort), omega)
        m = np.arange(-lmax, lmax + 1)
        expected = -wave.speed * (1j * m)[None, :] * vort.coeffs
        assert np.max(np.abs(out.coeffs - expected)) < 1e-8

    def test_tendency_has_zero_mean(self):
        vort = random_real_field(10, seed=21, decay=0.3)
        out = dynamics.tendency(dynamics.SimulationState(0.0, vort), omega=0.7)
        assert out.mean_coefficient == 0.0


class TestConfig:
    @pytest.mark.parametrize("dt, t_end", [(0.07, 0.2), (0.0, 1.0), (-0.1, 1.0),
                                           (math.inf, 1.0), (0.1, -0.1), (0.1, math.nan)])
    def test_rejects_partial_or_invalid_steps(self, dt, t_end):
        # 0.2 / 0.07 = 2.86 steps: the library does not round to 3 (t = 0.21)
        with pytest.raises(ValueError):
            _config(6, omega=0.0, dt=dt, t_end=t_end)


class TestStep:
    def test_zero_field_stays_zero(self):
        cfg = _config(8, omega=1.0, dt=0.05, t_end=1.0)
        state = dynamics.SimulationState(0.0, sht.SpectralField.zeros(8))
        out = dynamics.step(state, cfg)
        assert np.max(np.abs(out.vorticity.coeffs)) == 0.0
        assert out.time == 0.05

    def test_stationary_wave_unchanged(self):
        # solid-rotation strength chosen to freeze the degree-2 pattern
        lmax = 15
        omega = 1.4
        alpha = solutions.stationary_alpha(2, omega)
        wave = solutions.make_rossby_haurwitz(2, alpha, {2: 0.3 - 0.5j}, omega, lmax=lmax)
        vort = sht.laplacian(wave.psi)
        cfg = _config(lmax, omega=omega, dt=0.02, t_end=1.0)
        state = dynamics.SimulationState(0.0, vort)
        out = dynamics.step(state, cfg)
        assert np.max(np.abs(out.vorticity.coeffs - vort.coeffs)) < 1e-9

    def test_reality_preserved_exactly(self):
        vort = random_real_field(10, seed=22, decay=0.4)
        cfg = _config(10, omega=0.5, dt=0.01, t_end=1.0)
        out = dynamics.step(dynamics.SimulationState(0.0, vort), cfg)
        assert reality_defect(out.vorticity.coeffs) == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_blowup_detection(self):
        vort = random_real_field(6, seed=23)
        vort.set(2, 0, np.inf)
        cfg = _config(6, omega=0.0, dt=0.1, t_end=1.0)
        with pytest.raises(dynamics.SimulationBlowup):
            dynamics.step(dynamics.SimulationState(0.0, vort), cfg)

    # the count of non-finite coefficients in the message, as the step on
    # complex half tables gives it; the last two states are finite and their
    # tendencies overflow
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lmax, omega, lm, value, count", [
        (6, 0.0, (2, 0), np.inf, 48),
        (6, 0.0, (2, 1), complex(np.nan, 1.0), 48),
        (12, 1.0, (4, 2), complex(0.0, np.inf), 168),
        (12, 0.0, (5, 3), 1e300, 168),
        (31, 1.0, (2, 1), 1e154, 767),
    ])
    def test_blowup_count(self, lmax, omega, lm, value, count):
        vort = random_real_field(lmax, seed=23)
        vort.set(*lm, value)
        cfg = _config(lmax, omega=omega, dt=0.1, t_end=1.0)
        with pytest.raises(dynamics.SimulationBlowup) as info:
            dynamics.step(dynamics.SimulationState(0.0, vort), cfg)
        assert info.value.detail == f"{count} non-finite coefficients after RK4 step"

    # lmax 12 and 31 on grids below 192 longitudes, lmax 63 on 192
    @pytest.mark.parametrize("filter_strength", [0.0, 3.0])
    @pytest.mark.parametrize("lmax", [12, 31, 63])
    def test_bit_identical_to_unfused_rk4(self, lmax, filter_strength):
        vort = random_real_field(lmax, seed=lmax, decay=0.1)
        # zero parts of both signs, as a Rossby-Haurwitz state holds -0.0 at (0, 0)
        rng = np.random.default_rng(lmax)
        for part in (vort.halves.real, vort.halves.imag):
            part[rng.random(part.shape) < 0.3] = -0.0
            part[rng.random(part.shape) < 0.1] = 0.0
        vort.halves.imag[:, 0] = 0.0
        vort.halves[0, 0] = -0.0
        _assert_two_steps_match_unfused(vort, filter_strength)

    @settings(max_examples=40, deadline=None, database=None)
    @given(lmax=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           filter_strength=st.sampled_from([0.0, 3.0]))
    def test_bit_identical_to_unfused_rk4_property(self, lmax, seed, filter_strength):
        rng = np.random.default_rng(seed)
        vort = random_real_field(lmax, seed=seed, decay=rng.uniform(0.0, 0.5))
        for part in (vort.halves.real, vort.halves.imag):
            part[rng.random(part.shape) < rng.uniform(0.0, 0.5)] = -0.0
            part[rng.random(part.shape) < rng.uniform(0.0, 0.5)] = 0.0
        vort.halves.imag[:, 0] = 0.0
        vort.halves[0, 0] = rng.choice([0.0, -0.0])
        _assert_two_steps_match_unfused(vort, filter_strength)

    @pytest.mark.parametrize("filter_strength", [0.0, 3.0])
    @pytest.mark.parametrize("lmax", [12, 63])
    def test_zonal_zero_signs_match_unfused_rk4(self, lmax, filter_strength):
        # a zonal flow's tendency is zero, so the m >= 1 parts of its next
        # states are sums of signed zeros, which the snapshot writes
        vort = sht.SpectralField.zeros(lmax)
        vort.halves[1:, 0] = np.random.default_rng(lmax).normal(size=lmax)
        vort.halves[:, 1:] = complex(-0.0, -0.0)
        _assert_two_steps_match_unfused(vort, filter_strength)

    @pytest.mark.parametrize("lmax", [12, 31, 63])
    def test_bracket_bit_identical_to_unfused(self, lmax):
        tr = sht.dealiased_transform(lmax)
        pair = np.stack([random_real_field(lmax, seed=lmax + k, decay=0.1).halves for k in (1, 2)])
        assert tr.bracket(pair).tobytes() == _unfused_bracket(tr, pair).tobytes()

    def test_filter_reported_and_damps(self):
        vort = random_real_field(10, seed=24, decay=0.0)
        cfg = _config(10, omega=0.0, dt=0.01, t_end=0.05, filter_strength=5.0)
        res = dynamics.run(vort, cfg)
        top_before = vort.degree_power()[-1]
        top_after = res.final.vorticity.degree_power()[-1]
        assert top_after < top_before


class TestRunInvariants:
    def test_fixed_frame_degree_one_conservation(self):
        # 10^4 steps: degree-1 vorticity components constant to 1e-8
        lmax = 10
        vort = random_real_field(lmax, seed=25, decay=0.6)
        cfg = _config(lmax, omega=0.0, dt=0.002, t_end=20.0, diag_stride=200)
        res = dynamics.run(vort, cfg)
        assert cfg.n_steps == 10000
        assert max(res.drift_report["c1_modulated_drift"]) < 1e-8

    def test_rotating_frame_modulated_invariants(self):
        lmax = 10
        omega = 1.3
        vort = random_real_field(lmax, seed=26, decay=0.6)
        cfg = _config(lmax, omega=omega, dt=0.005, t_end=3.0, diag_stride=20)
        res = dynamics.run(vort, cfg)
        assert max(res.drift_report["c1_abs_drift"]) < 1e-9
        assert max(res.drift_report["c1_modulated_drift"]) < 1e-8
        # the order-1 coefficient rotates at exactly the frame rate
        psi0 = sht.invert_laplacian(vort)
        psi1 = sht.invert_laplacian(res.final.vorticity)
        t_end = res.final.time
        phase = np.angle(psi1.get(1, 1) / psi0.get(1, 1))
        expected = (omega * t_end + math.pi) % (2 * math.pi) - math.pi
        assert abs(phase - expected) < 1e-6

    def test_energy_enstrophy_drift_small(self):
        lmax = 12
        omega, alpha = 1.0, 0.4
        wave = solutions.make_rossby_haurwitz(2, alpha, {1: 0.5}, omega, lmax=lmax)
        period = wave.period()
        cfg = _config(lmax, omega=omega, dt=period / 600, t_end=period, diag_stride=60)
        res = dynamics.run(sht.laplacian(wave.psi), cfg)
        assert res.drift_report["energy_rel_drift"] < 1e-8
        assert res.drift_report["enstrophy_rel_drift"] < 1e-8

    def test_casimir_drift_small_for_bandlimited_dynamics(self):
        # higher moments are conserved by the truncated dynamics only when
        # the evolution stays bandlimited, as it does for a rigid pattern
        lmax = 10
        wave = solutions.make_rossby_haurwitz(2, 0.4, {1: 0.5 - 0.2j}, 1.0, lmax=lmax)
        cfg = _config(lmax, omega=1.0, dt=0.005, t_end=1.0, diag_stride=40)
        res = dynamics.run(sht.laplacian(wave.psi), cfg)
        for k in (2, 3, 4, 5):
            assert res.drift_report["casimir_rel_drift"][k] < 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cfl_advisory_reported(self):
        # reported, never enforced: at dt 0.25 (CFL 2.05) the step is stable;
        # at dt 5 (CFL 41) the enstrophy grows 1e11-fold and the run fails
        vort = random_real_field(8, seed=28)
        res = dynamics.run(vort, _config(8, omega=0.0, dt=0.25, t_end=0.25))
        assert res.cfl["cfl_number"] > 1.0
        assert not res.cfl["advisory_ok"]
        with pytest.raises(dynamics.SimulationBlowup):
            dynamics.run(vort, _config(8, omega=0.0, dt=5.0, t_end=5.0))

    def test_on_step_sees_every_state_once(self):
        vort = random_real_field(8, seed=27)
        cfg = _config(8, omega=1.0, dt=0.05, t_end=0.35, diag_stride=3)
        seen = []
        res = dynamics.run(vort, cfg, on_step=lambda i, state: seen.append((i, state)))
        assert [i for i, _ in seen] == list(range(cfg.n_steps + 1))
        assert np.array_equal(seen[0][1].vorticity.coeffs, vort.coeffs)
        assert seen[-1][1] is res.final
        times = [state.time for _, state in seen]
        assert times[0] == 0.0
        assert all(b == a + cfg.dt for a, b in zip(times, times[1:]))
        # the diagnostics are recorded at the hook's times: every third step and the last
        assert [d.time for d in res.diagnostics] == [times[i] for i in (0, 3, 6, 7)]

    def test_initial_mean_rejected(self):
        vort = random_real_field(6, seed=29, zero_mean=False)
        vort.set(0, 0, 0.3)
        cfg = _config(6, omega=0.0, dt=0.1, t_end=0.2)
        with pytest.raises(sht.MeanConstraintError):
            dynamics.run(vort, cfg)


class TestSymmetryProperties:
    def test_change_of_frame_equivalence(self):
        # rotating-frame evolution equals the shifted fixed-frame evolution
        lmax = 12
        omega, t_end, dt = 1.3, 0.8, 0.004
        vort0 = random_real_field(lmax, seed=30, decay=0.5)
        corio = fields.coriolis_stream_coefficient(omega)

        res_rot = dynamics.run(vort0, _config(lmax, omega, dt, t_end, diag_stride=50))
        fixed_init = vort0.copy()
        fixed_init.add_to(1, 0, corio)
        res_fix = dynamics.run(fixed_init, _config(lmax, 0.0, dt, t_end, diag_stride=50))

        shifted = res_fix.final.vorticity.copy()
        m = np.arange(lmax + 1)
        shifted.halves *= np.exp(1j * m * omega * t_end)
        shifted.add_to(1, 0, -corio)
        diff = np.max(np.abs(shifted.coeffs - res_rot.final.vorticity.coeffs))
        assert diff < 1e-8

    def test_scaling_symmetry(self):
        # doubling the state and halving the horizon solves the double-rate frame
        lmax = 10
        omega, t_end, dt = 0.9, 0.6, 0.003
        vort0 = random_real_field(lmax, seed=31, decay=0.5)
        res_1 = dynamics.run(vort0, _config(lmax, omega, dt, t_end))
        res_2 = dynamics.run(vort0.scaled(2.0), _config(lmax, 2 * omega, dt / 2, t_end / 2))
        diff = np.max(np.abs(res_2.final.vorticity.coeffs
                             - 2.0 * res_1.final.vorticity.coeffs))
        assert diff < 1e-9


class TestConvergence:
    def test_rk4_drift_order(self):
        # enstrophy drift of a neutral wave scales as dt^5: log-log slope
        # within [4.7, 5.3].  The wave's tendency is linear on its support,
        # so each (2, +-1) mode is an oscillator with y = speed*dt = 2*pi/N,
        # and RK4 gives |R(iy)|^2 = 1 - y^6/72 + y^8/576 per step: over
        # T = N*dt the drift is about N*y^6/72, i.e. O(dt^5).
        lmax = 12
        omega, alpha = 1.0, 0.3
        wave = solutions.make_rossby_haurwitz(2, alpha, {1: 0.6 + 0.2j}, omega, lmax=lmax)
        vort = sht.laplacian(wave.psi)
        period = wave.period()
        off_wave = np.ones(vort.coeffs.shape, dtype=bool)
        for l, m in [(1, 0), (2, 1), (2, -1)]:
            off_wave[l, lmax + m] = False
        drifts, dts = [], []
        # at 40 divisions and below RK4 is unstable for modes off the wave,
        # whose round-off growth then dominates the drift
        for divisions in (80, 160, 320):
            dt = period / divisions
            cfg = _config(lmax, omega, dt, period, diag_stride=divisions)
            res = dynamics.run(vort, cfg)
            # premise: the run stays on the wave's support
            assert np.max(np.abs(res.final.vorticity.coeffs[off_wave])) < 1e-12
            drifts.append(res.drift_report["enstrophy_rel_drift"])
            dts.append(dt)
        slope = np.polyfit(np.log(dts), np.log(drifts), 1)[0]
        assert 4.7 <= slope <= 5.3

    def test_travelling_phase_accuracy(self):
        lmax = 15
        omega, alpha = 1.0, 0.5
        wave = solutions.make_rossby_haurwitz(2, alpha, {1: 0.4}, omega, lmax=lmax)
        period = wave.period()
        cfg = _config(lmax, omega, period / 500, period, diag_stride=100)
        res = dynamics.run(sht.laplacian(wave.psi), cfg)
        final = sht.invert_laplacian(res.final.vorticity)
        phase = np.angle(final.get(2, 1) / wave.psi.get(2, 1))
        # one full period returns the phase to zero
        assert abs((phase + math.pi) % (2 * math.pi) - math.pi) < 1e-6
