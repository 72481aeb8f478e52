"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from rotosphere import bifurcation as bif
from rotosphere import cli, dynamics, fields, sht, solutions, stability, stratosphere
from conftest import real_part

SQPI = math.sqrt(math.pi)


def _report(num: int, text: str) -> None:
    print(f"\n[acceptance {num:02d}] PASS: {text}")


def test_01_harmonic_integral_oracle():
    t0 = time.time()
    cases = [
        ([(2, 0, 3)], math.sqrt(5) / (7 * SQPI)),
        ([(2, 0, 4)], 15 / (28 * math.pi)),
        ([(1, 0, 2), (2, 0, 1)], 1 / math.sqrt(5 * math.pi)),
        ([(2, 1, 2), (2, -1, 2)], 5 / (14 * math.pi)),
        ([(2, 2, 2), (2, -2, 2)], 5 / (14 * math.pi)),
        ([(2, 0, 1), (2, -1, 1), (2, 1, 1)], -math.sqrt(5) / (14 * SQPI)),
        ([(2, 0, 1), (2, -2, 1), (2, 2, 1)], -math.sqrt(5) / (7 * SQPI)),
        ([(2, 2, 1), (2, -1, 2)], math.sqrt(15) / (7 * math.sqrt(2 * math.pi))),
        ([(2, 0, 2), (2, -2, 1), (2, 2, 1)], 5 / (28 * math.pi)),
        ([(2, 0, 2), (2, -1, 1), (2, 1, 1)], -5 / (28 * math.pi)),
        ([(1, 0, 4)], 9 / (20 * math.pi)),
        ([(1, 0, 2), (2, 0, 2)], 11 / (28 * math.pi)),
    ]
    worst = 0.0
    for factors, expected in cases:
        got = fields.harmonic_product_integral(factors)
        worst = max(worst, abs(got - expected))
    elapsed = time.time() - t0
    assert worst < 1e-10
    assert elapsed < 10.0
    _report(1, f"{len(cases)} product integrals, worst |error| {worst:.2e}, "
               f"{elapsed:.2f} s")


def test_02_eigenrelation_transforms_rotation():
    # eigenrelation for every degree and order up to 31, each harmonic
    # checked through the transform pipeline on its conforming grid
    worst_eig = 0.0
    for l in range(1, 32):
        tr = sht.default_transform(l)
        for m in range(0, l + 1):
            y = sht.harmonic(l, m, tr.grid)
            # the complex harmonic goes through the transforms as its real and imaginary parts
            back = sum(unit * tr.synthesis(sht.laplacian(sht.SpectralField(tr.analysis(part))).halves)
                       for unit, part in ((1.0, y.real), (1j, y.imag)))
            defect = np.max(np.abs(back + l * (l + 1) * y)) / (l * (l + 1))
            worst_eig = max(worst_eig, float(defect))
    assert worst_eig < 1e-12

    # transform round trip at lmax = 63
    tr63 = sht.default_transform(63)
    rng = np.random.default_rng(2)
    f = real_part(63, {(l, m): rng.normal() + 1j * rng.normal()
                       for l in range(1, 64) for m in range(0, l + 1)})
    back = sht.SpectralField(tr63.analysis(tr63.synthesis(f.halves)))
    round_trip = np.max(np.abs(back.coeffs - f.coeffs)) / np.max(np.abs(f.coeffs))
    assert round_trip < 1e-12

    # rotation unitarity through degree 63
    rot = sht.RotationSpec(0.37, 0.9, -1.21)
    worst_unitary = 0.0
    for l in (1, 2, 7, 31, 63):
        block = sht.rotation_block(l, rot)
        worst_unitary = max(worst_unitary, float(np.max(np.abs(
            block @ block.conj().T - np.eye(2 * l + 1)))))
    assert worst_unitary < 1e-12
    _report(2, f"eigenrelation {worst_eig:.2e}, round trip {round_trip:.2e}, "
               f"unitarity {worst_unitary:.2e}")


def test_03_zonal_operator_spectrum():
    alpha, omega, n_basis = 1.0, 2.0, 64
    zp = stability.ZonalProfile.solid_rotation(alpha)
    worst = 0.0
    for k in range(1, 5):
        rep = stability.zonal_operator_spectrum(zp, omega, k, n_basis)
        expected = np.sort(stability.solid_rotation_eigenvalues(alpha, omega, k, n_basis))
        got = np.sort(rep.eigenvalues.real)
        worst = max(worst, float(np.max(np.abs(got - expected))))
        worst = max(worst, float(np.max(np.abs(rep.eigenvalues.imag))))
    assert worst < 1e-8

    zp2 = stability.ZonalProfile.from_zonal_coefficients({1: 1.0, 2: 1.0})
    worst_imag = 0.0
    for k in range(1, 5):
        rep = stability.zonal_operator_spectrum(zp2, omega, k, n_basis)
        worst_imag = max(worst_imag, float(np.max(np.abs(rep.eigenvalues.imag))))
    assert worst_imag < 1e-8
    _report(3, f"solid-rotation eigenvalues to {worst:.2e}; "
               f"degree-1+2 zonal flow max |imag| {worst_imag:.2e}")


def test_04_planetary_fits():
    t0 = time.time()
    uranus = stability.planet_wind_stability("uranus")
    assert (uranus["profile"].alpha, uranus["profile"].beta, uranus["profile"].gamma) == (
        Fraction(64, 45), Fraction(-272, 45), Fraction(184, 45))
    uq = uranus["verdict"].denominator_quadratic
    assert (uq.p, uq.q) == (Fraction(-5, 2), Fraction(155, 96))
    assert uq.discriminant() < 0
    assert uranus["verdict"].verdict == "stable"

    neptune = stability.planet_wind_stability("neptune")
    assert (neptune["profile"].alpha, neptune["profile"].beta, neptune["profile"].gamma) == (
        Fraction(2048, 75), Fraction(-2656, 75), Fraction(458, 75))
    nq = neptune["verdict"].denominator_quadratic
    assert (nq.p, nq.q) == (Fraction(-211, 160), Fraction(20731, 30720))
    assert nq.discriminant() < 0
    assert neptune["verdict"].verdict == "stable"
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(4, f"exact rational fits and negative discriminants, {elapsed*1e3:.1f} ms")


def test_05_travelling_wave_dynamics():
    lmax = 31
    omega, alpha = 1.0, 1.0
    wave = solutions.make_rossby_haurwitz(2, alpha, {1: 0.5}, omega, lmax=lmax)
    period = wave.period()
    n_periods = 10
    cfg = dynamics.SimulationConfig(
        omega=omega, dt=period / 2000, t_end=n_periods * period,
        lmax=lmax, diag_stride=500)
    res = dynamics.run(sht.laplacian(wave.psi), cfg)

    final = sht.invert_laplacian(res.final.vorticity)
    # after an integer number of periods the order-1 phase returns to zero
    phase_defect = np.angle(final.get(2, 1) / wave.psi.get(2, 1))
    phase_defect = (phase_defect + math.pi) % (2 * math.pi) - math.pi
    total_phase = abs(wave.speed) * cfg.t_end
    speed_rel_error = abs(phase_defect) / total_phase
    assert speed_rel_error < 1e-3

    drift = res.drift_report
    assert drift["energy_rel_drift"] < 1e-6
    assert drift["enstrophy_rel_drift"] < 1e-6
    assert drift["c1_abs_drift"][0] < 1e-8 and drift["c1_abs_drift"][2] < 1e-8

    # fourth-order phase-drift signature under dt halving (smaller setup)
    lm = 15
    wave2 = solutions.make_rossby_haurwitz(2, 0.3, {1: 0.6 + 0.2j}, 1.0, lmax=lm)
    p2 = wave2.period()
    errors, dts = [], []
    for divisions in (100, 200, 400):
        c2 = dynamics.SimulationConfig(
            omega=1.0, dt=p2 / divisions, t_end=p2,
            lmax=lm, diag_stride=divisions)
        r2 = dynamics.run(sht.laplacian(wave2.psi), c2)
        f2 = sht.invert_laplacian(r2.final.vorticity)
        ph = np.angle(f2.get(2, 1) / wave2.psi.get(2, 1))
        errors.append(abs((ph + math.pi) % (2 * math.pi) - math.pi))
        dts.append(p2 / divisions)
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    assert 3.7 <= slope <= 4.3
    _report(5, f"phase-speed error {speed_rel_error:.2e}, energy drift "
               f"{drift['energy_rel_drift']:.2e}, enstrophy drift "
               f"{drift['enstrophy_rel_drift']:.2e}, phase-drift slope {slope:.2f}")


def test_06_degree_two_modal_mechanics():
    # (a) deviation scalings for perturbed zonal degree-2 states
    lmax = 12
    eps_values = [1e-2, 1e-3, 1e-4]
    quad_devs, tail_sizes = [], []
    for eps in eps_values:
        pert = real_part(lmax, {(1, 1): 0.2 * eps, (2, 0): 0.4 * eps, (2, 1): 0.3 * eps,
                                (2, 2): 0.2 * eps, (3, 1): 0.5 * eps, (4, 2): 0.3 * eps})
        cfg = dynamics.SimulationConfig(
            omega=0.0, dt=0.01, t_end=4.0,
            lmax=lmax, diag_stride=20)
        wave = solutions.make_rossby_haurwitz(2, 0.4, {0: 1.0}, 0.0, lmax=lmax)
        series = stability.rh2_modal_experiment(wave, perturbation=pert, config=cfg)
        quad_devs.append(float(np.max(np.abs(series.quadratic_combination - 1.0))))
        tail_sizes.append(float(np.max(series.weighted_tail)))
    log_eps = np.log(eps_values)
    slope_quad = float(np.polyfit(log_eps, np.log(quad_devs), 1)[0])
    slope_tail = float(np.polyfit(log_eps, np.log(tail_sizes), 1)[0])
    assert 0.8 <= slope_quad <= 1.2
    assert 1.8 <= slope_tail <= 2.2

    # (b) non-zonal separation against the analytic lower bound
    omega = 1.0
    lm = 10
    a = 1.0 / math.sqrt(2.0)
    ycoeffs = {1: a, -1: -a}
    alpha0 = solutions.stationary_alpha(2, omega)
    base = solutions.make_rossby_haurwitz(2, alpha0, ycoeffs, omega, lmax=lm)
    ratios = []
    for n in (10, 100):
        pert_wave = solutions.make_rossby_haurwitz(2, alpha0 + 1.0 / n, ycoeffs,
                                                   omega, lmax=lm)
        beat = 2 * math.pi / abs(pert_wave.speed - base.speed)
        t_end = round(0.55 * beat / 0.05) * 0.05
        cfg = dynamics.SimulationConfig(
            omega=omega, dt=0.05, t_end=t_end,
            lmax=lm, diag_stride=40)
        states = []
        dynamics.run(sht.laplacian(pert_wave.psi), cfg,
                     on_step=lambda i, state: states.append(state))
        bound = stability.instability_separation_bound(2, 1.0, ycoeffs, n)
        sup = 0.0
        for state in states:
            psi = state.stream_function()
            sup = max(sup, (psi - base.psi).norm() ** 2)
        assert sup >= 0.9 * bound.total
        ratios.append(sup / bound.total)
    _report(6, f"deviation slopes {slope_quad:.2f} (target 1) / {slope_tail:.2f} "
               f"(target 2); separation/bound ratios {ratios[0]:.2f}, {ratios[1]:.2f}")


def test_07_explicit_solutions():
    log_sol = solutions.make_log_solution(0.3, lmax=63)
    _, log_linf = log_sol.grid_residual()
    assert log_linf < 1e-8

    exp_sol = solutions.make_exp_solution(0.2, lmax=63)
    _, exp_linf = exp_sol.grid_residual()
    assert exp_linf < 1e-8

    verdicts = []
    for make in (solutions.make_log_solution, solutions.make_exp_solution):
        sol = make(0.1, lmax=31)
        rng = solutions.arnold_range(sol.vf, sol)
        verdict = stability.arnold_theorem_check(rng)
        assert -6.0 < rng[0] and rng[1] < 0.0
        assert verdict.verdict == "stable"
        verdicts.append(rng)
    _report(7, f"residuals {log_linf:.2e} / {exp_linf:.2e}; slope ranges "
               f"({verdicts[0][0]:.2f},{verdicts[0][1]:.2f}) and "
               f"({verdicts[1][0]:.2f},{verdicts[1][1]:.2f}) inside (-6,0)")


def test_08_bifurcation():
    subspace = bif.build_subspace("tetrahedral", 12)
    family = bif.CubicShiftFamily(mu=1.0, mu1=1.0, degree=3)
    problem = bif.ContinuationProblem(family=family, subspace=subspace)
    points = bif.detect_bifurcation_points(problem, (-2.0, 2.0), degrees=[3])
    target = 1.0 / math.sqrt(3.0)
    lams = sorted(p.lam for p in points)
    assert abs(lams[0] + target) < 1e-10
    assert abs(lams[-1] - target) < 1e-10

    branch = bif.continue_branch(problem, points[-1], steps=50, ds=0.08)
    assert branch.status == "completed"
    assert len(branch.points) == 51
    first = branch.points[1]
    gen = subspace.generator_index(3)
    alignment = abs(first.x[gen]) / np.linalg.norm(first.x)
    assert alignment > 0.99
    a_minus, a_plus, amp = family.apriori_bounds()
    for p in branch.points:
        assert abs(p.lam) + p.sup_psi <= 2 * (a_plus - a_minus) + 1e-9
        assert p.sup_vorticity <= 2 * amp + 1e-9

    rot_family = bif.SaturatingLinearFamily(beta=1.0, mu=1.0, degree=3)
    rot_problem = bif.ContinuationProblem(family=rot_family, subspace=subspace)
    rot_points = bif.detect_bifurcation_points(rot_problem, (0.5, 3.5), degrees=[3])
    assert abs(rot_points[0].lam - 2.0) < 1e-10
    _report(8, f"crossings at +/-{target:.12f} (error "
               f"{abs(lams[-1]-target):.1e}), tangent alignment {alignment:.6f}, "
               f"50 bounded steps; rotating-frame crossing at "
               f"{rot_points[0].lam:.12f}")


def test_09_stratospheric_lift():
    base = solutions.make_log_solution(0.3, lmax=63)
    density = stratosphere.DensityProfile(a=1.0, b=3.0)
    field = stratosphere.lift_solution(base, density, omega=18.0, g=58.0)

    # leading-order momentum/continuity residuals on a 32^3 sample by
    # 4th-order differences (time step scaled by the rotation rate)
    n = 32
    phi = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    theta = np.linspace(-1.25, 1.25, n)
    z = np.linspace(0.0, 1.0, n)
    pp, tt, zz = np.meshgrid(phi, theta, z, indexing="ij")
    t0 = 0.17
    h = 2e-3
    ht = h / field.omega

    def d4(fn, var):
        offsets = {"phi": (h, lambda e: fn(pp + e, tt, zz, t0)),
                   "theta": (h, lambda e: fn(pp, tt + e, zz, t0)),
                   "t": (ht, lambda e: fn(pp, tt, zz, t0 + e))}
        step, call = offsets[var]
        return (-call(2 * step) + 8 * call(step)
                - 8 * call(-step) + call(-2 * step)) / (12 * step)

    u = field.u0(pp, tt, zz, t0)
    v = field.v0(pp, tt, zz, t0)
    cos, sin = np.cos(tt), np.sin(tt)
    tan = sin / cos
    rho = density.rho(zz)
    om = field.omega
    res_a = (d4(field.u0, "t") + u / cos * d4(field.u0, "phi") + v * d4(field.u0, "theta")
             - u * v * tan - 2 * om * v * sin + d4(field.p0, "phi") / (rho * cos))
    res_b = (d4(field.v0, "t") + u / cos * d4(field.v0, "phi") + v * d4(field.v0, "theta")
             + u * u * tan + 2 * om * u * sin + om * om * sin * cos
             + d4(field.p0, "theta") / rho)
    res_d = d4(field.u0, "phi") + d4(
        lambda p, q, zq, tq: field.v0(p, q, zq, tq) * np.cos(q), "theta")
    worst = max(float(np.max(np.abs(r))) for r in (res_a, res_b, res_d))
    assert worst < 1e-7

    # hydrostatic balance from the closed form, to round-off
    hydro = float(np.max(np.abs(field.dp0_dz(pp, tt, zz, t0) + field.g * rho)))
    assert hydro == 0.0
    hz = 1e-3
    fd_z = (-field.p0(pp, tt, zz + 2 * hz, t0) + 8 * field.p0(pp, tt, zz + hz, t0)
            - 8 * field.p0(pp, tt, zz - hz, t0) + field.p0(pp, tt, zz - 2 * hz, t0)) / (12 * hz)
    assert float(np.max(np.abs(fd_z + field.g * rho))) < 1e-9

    period = 2 * math.pi / field.omega
    paths = stratosphere.particle_paths(
        field, [(0.4, 0.5, 0.2), (2.2, -0.8, 0.7)], t_end=period, dt=period / 10000)
    drift = max(p.level_drift for p in paths)
    assert drift < 1e-6

    registry = stratosphere.load_planet_registry()
    assert abs(registry["earth"].omega - 9) <= 0.5
    assert abs(registry["earth"].g - 157) <= 1.0
    assert abs(registry["jupiter"].omega - 82) <= 0.5
    assert abs(registry["jupiter"].g - 297) <= 1.0
    _report(9, f"leading-order residuals {worst:.2e}, hydrostatic defect 0, "
               f"path drift {drift:.2e}, planet rows reproduced")


def test_10_cli_determinism(tmp_path):
    sim_config = {
        "omega": 1.0, "dt": 0.05, "t_end": 0.5, "lmax": 8, "diag_stride": 5,
        "initial": {"kind": "random", "decay": 0.6}, "seed": 7,
    }
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(sim_config))
    pairs = []
    for cmd, outs in [
        (["simulate", str(cfg)], ("a1", "a2")),
        (["stability", "planet", "--name", "uranus"], ("b1", "b2")),
        (["make-solution", "--family", "exp", "--params",
          '{"epsilon": 0.2, "lmax": 15}'], ("c1", "c2")),
    ]:
        for out in outs:
            assert cli.main(cmd + ["--outdir", str(tmp_path / out)]) == 0
        pairs.append(outs)
    compared = 0
    for out1, out2 in pairs:
        d1, d2 = tmp_path / out1, tmp_path / out2
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d2.iterdir())
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
            compared += 1
    _report(10, f"{compared} output files byte-identical across reruns "
                f"of three commands")
