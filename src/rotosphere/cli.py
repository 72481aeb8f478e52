"""Command-line surface: simulation, solution factories, stability reports,
branch continuation, 3D lifts, and the transform self-test.

Every command resolves its inputs to a canonical JSON config, hashes it,
runs single-threaded and deterministically, and finishes by writing a run
manifest listing every output file.  Exit codes: 0 success, 2 config
error, 3 numerical failure, 4 failed self-test/acceptance assertion.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, bifurcation, dynamics, fields, snapshot, solutions, stability
from . import sht, stratosphere

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ASSERTION = 4


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------

def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp_manifest")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class RunContext:
    """Collects output files and writes the manifest atomically at the end."""

    def __init__(self, outdir: Path, command: str, config: dict, seed: int | None,
                 record_wallclock: bool):
        self.outdir = outdir
        self.command = command
        self.config = config
        self.seed = seed
        self.record_wallclock = record_wallclock
        self.started = datetime.datetime.now(datetime.timezone.utc) if record_wallclock else None
        self.outputs: list[str] = []
        outdir.mkdir(parents=True, exist_ok=True)
        config_text = _canonical_json(config) + "\n"
        self.config_hash = hashlib.sha256(config_text.encode()).hexdigest()
        self.write_text("config.json", config_text)

    def path(self, name: str) -> Path:
        return self.outdir / name

    def register(self, name: str) -> Path:
        if name not in self.outputs:
            self.outputs.append(name)
        return self.path(name)

    def write_text(self, name: str, text: str) -> Path:
        p = self.register(name)
        p.write_text(text, encoding="utf-8")
        return p

    def write_json(self, name: str, payload) -> Path:
        return self.write_text(name, json.dumps(payload, sort_keys=True, indent=1) + "\n")

    def finish(self) -> None:
        ended = datetime.datetime.now(datetime.timezone.utc) if self.record_wallclock else None
        manifest = {
            "command": self.command,
            "config_hash": self.config_hash,
            "code_version": __version__,
            "seed": self.seed,
            "started_at": self.started.isoformat() if self.started else None,
            "finished_at": ended.isoformat() if ended else None,
            "outputs": list(self.outputs),
        }
        _atomic_write(self.outdir / "manifest.json",
                      json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")


def _check_int(key: str, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    return value


def _require(config: dict, key: str, kind=None):
    if key not in config:
        raise ConfigError(f"missing config key {key!r}")
    value = config[key]
    if kind is int:
        return _check_int(key, value)
    if kind is not None:
        try:
            value = kind(value)
        except (TypeError, ValueError):
            raise ConfigError(f"config key {key!r} has invalid value {config[key]!r}")
    return value


def _write_svg(path: Path, series: list[tuple[str, np.ndarray, np.ndarray]]) -> None:
    """Minimal polyline SVG for batch diagnostics; no interactive plotting."""
    width, height, pad = 640, 360, 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    for idx, (label, x, y) in enumerate(series):
        if x.size < 2:
            continue
        x0, x1 = float(np.min(x)), float(np.max(x))
        y0, y1 = float(np.min(y)), float(np.max(y))
        xs = (x - x0) / (x1 - x0 or 1.0) * (width - 2 * pad) + pad
        ys = height - pad - (y - y0) / (y1 - y0 or 1.0) * (height - 2 * pad)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(xs, ys))
        color = colors[idx % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" points="{pts}"/>')
        parts.append(
            f'<text x="{pad}" y="{pad + 14 * idx}" fill="{color}" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _modes_field(entries: list, lmax: int) -> sht.SpectralField:
    """Real field from [l, m, re, im] entries; the negative orders follow by reality."""
    field = sht.SpectralField.zeros(lmax)
    for entry in entries:
        l, m = _check_int("mode degree", entry[0]), _check_int("mode order", entry[1])
        re, im = float(entry[2]), float(entry[3])
        if not (0 <= l <= lmax and abs(m) <= l):
            raise ConfigError(f"mode (l, m) = ({l}, {m}) outside the table of lmax={lmax}")
        field.set(l, m, complex(re, im))
    return field.enforce_reality()


def _initial_field(spec: dict, lmax: int, seed: int) -> sht.SpectralField:
    kind = spec.get("kind", "modes")
    if kind == "snapshot":
        field, _ = snapshot.read_snapshot(spec["path"])
        return field.truncated(lmax)
    if kind == "modes":
        field = _modes_field(spec.get("coefficients", []), lmax)
        field.coeffs[0, lmax] = 0.0
        return field
    if kind == "rossby_haurwitz":
        ycoeffs = {int(k): complex(v[0], v[1]) for k, v in spec["ycoeffs"].items()}
        wave = solutions.make_rossby_haurwitz(
            _require(spec, "degree", int), float(spec.get("alpha", 0.0)), ycoeffs,
            float(spec.get("omega", 0.0)), lmax=lmax)
        return sht.laplacian(wave.psi)
    if kind == "random":
        rng = np.random.default_rng(seed)
        field = sht.SpectralField.zeros(lmax)
        decay = float(spec.get("decay", 0.5))
        for l in range(1, lmax + 1):
            for m in range(0, l + 1):
                field.set(l, m, (rng.normal() + 1j * rng.normal()) * math.exp(-decay * l))
        field.enforce_reality()
        field.coeffs[0, lmax] = 0.0
        return field
    raise ConfigError(f"unknown initial-state kind {kind!r}")


def _optional_int(config: dict, key: str, default: int | None) -> int | None:
    value = config.get(key, default)
    return value if value is None else _check_int(key, value)


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    lmax = _require(config, "lmax", int)
    if {"nlat", "nlon"} & set(config):
        raise ConfigError("nlat/nlon are not supported: simulate integrates on the dealiased grid")
    seed = _optional_int(config, "seed", 0)
    try:
        sim_config = dynamics.SimulationConfig(
            omega=_require(config, "omega", float),
            dt=_require(config, "dt", float),
            t_end=_require(config, "t_end", float),
            truncation=sht.TruncationSpec.for_lmax(lmax),
            diag_stride=_optional_int(config, "diag_stride", 10),
            snapshot_stride=_optional_int(config, "snapshot_stride", None),
            filter_strength=float(config.get("filter_strength", 0.0)),
        )
        initial = _initial_field(_require(config, "initial", dict), lmax, seed)
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc))

    ctx = RunContext(Path(args.outdir), "simulate", config, seed, args.record_wallclock)
    result = dynamics.run(initial, sim_config)

    rows = [fields.DiagnosticRecord.csv_header(lmax)]
    rows.extend(rec.csv_row() for rec in result.diagnostics)
    ctx.write_text("diagnostics.csv", "\n".join(rows) + "\n")
    for idx, state in enumerate(result.states):
        name = f"snapshot_{idx:06d}.shc"
        snapshot.write_snapshot(ctx.register(name), state.vorticity, time=state.time)
    ctx.write_json("report.json", {
        "drift": result.drift_report,
        "cfl": result.cfl,
        "filter_strength": result.filter_strength,
        "n_steps": sim_config.n_steps,
    })
    if args.svg:
        times = np.array([d.time for d in result.diagnostics])
        _write_svg(ctx.register("diagnostics.svg"), [
            ("energy", times, np.array([d.energy for d in result.diagnostics])),
            ("enstrophy", times, np.array([d.enstrophy for d in result.diagnostics])),
        ])
    ctx.finish()
    return EXIT_OK


# ---------------------------------------------------------------------------
# make-solution
# ---------------------------------------------------------------------------

def cmd_make_solution(args) -> int:
    params = json.loads(args.params) if args.params else {}
    if args.params_file:
        params.update(_load_config(args.params_file))
    config = {"family": args.family, "parameters": params}
    try:
        spec = solutions.SolutionSpec(kind=args.family, parameters=params)
        built = solutions.build_solution(spec)
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc))

    ctx = RunContext(Path(args.outdir), "make-solution", config, None, args.record_wallclock)
    report: dict = {"family": args.family}
    if isinstance(built, solutions.EllipticSolution):
        psi = built.psi
        l2, linf = built.grid_residual()
        lo, hi = solutions.arnold_range(built.vf, built)
        verdict = stability.arnold_theorem_check((lo, hi))
        report.update({
            "residual_l2": l2, "residual_linf": linf,
            "projection_tail": built.tail_norm,
            "fprime_range": [lo, hi],
            "stability_verdict": verdict.verdict,
        })
    elif isinstance(built, solutions.RossbyHaurwitzWave):
        psi = built.psi
        report.update({"speed": built.speed, "degree": built.degree,
                       "stationary": built.stationary})
    else:
        psi = built
    stat = solutions.verify_stationary(psi, float(params.get("omega", 0.0)))
    report.update({"advection_l2": stat.l2, "advection_linf": stat.linf,
                   "stationary": bool(stat.stationary)})
    snapshot.write_snapshot(ctx.register("solution.shc"), psi)
    snapshot.write_snapshot_json(ctx.register("solution.json"), psi)
    ctx.write_json("residual_report.json", report)
    ctx.finish()
    return EXIT_OK


# ---------------------------------------------------------------------------
# stability subcommands
# ---------------------------------------------------------------------------

def _fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def cmd_stability(args) -> int:
    if args.analysis == "planet":
        name = args.name.lower()
        try:
            result = stability.planet_wind_stability(name)
        except KeyError as exc:
            raise ConfigError(str(exc))
        profile, verdict = result["profile"], result["verdict"]
        payload = {
            "planet": name,
            "omega": _fraction_str(result["omega"]),
            "coefficients": {
                "alpha": _fraction_str(profile.alpha),
                "beta": _fraction_str(profile.beta),
                "gamma": _fraction_str(profile.gamma),
            },
            "denominator_quadratic": {
                "p": _fraction_str(verdict.denominator_quadratic.p),
                "q": _fraction_str(verdict.denominator_quadratic.q),
                "discriminant": _fraction_str(verdict.denominator_quadratic.discriminant()),
            },
            "chosen_shift": _fraction_str(verdict.chosen_shift) if verdict.chosen_shift is not None else None,
            "verdict": verdict.verdict,
        }
        config = {"analysis": "planet", "name": name}
        ctx = RunContext(Path(args.outdir), "stability planet", config, None, args.record_wallclock)
        ctx.write_json("stability_report.json", payload)
        ctx.finish()
        print(json.dumps(payload, sort_keys=True, indent=1))
        return EXIT_OK

    if args.analysis == "zonal":
        config = _load_config(args.config)
        omega = _require(config, "omega", float)
        coeffs = {int(k): float(v) for k, v in _require(config, "zonal_coefficients", dict).items()}
        ks = config.get("wavenumbers", [1, 2])
        n_basis = _optional_int(config, "basis_size", 48)
        zp = stability.ZonalProfile.from_zonal_coefficients(coeffs)
        reports = {}
        for k in ks:
            rep = stability.zonal_operator_spectrum(zp, omega, _check_int("wavenumbers", k), n_basis)
            reports[str(k)] = {
                "essential_interval": list(rep.essential_interval),
                "unstable": rep.unstable,
                "max_growth_rate": rep.max_growth_rate,
                "pairing_defect": rep.pairing_defect,
                "discrete_eigenvalues": [[z.real, z.imag] for z in rep.discrete_eigenvalues],
            }
        ray = stability.rayleigh_criterion(zp, omega)
        fjo = stability.fjortoft_criterion(zp, omega, config.get("gamma_samples", [-1.0, 0.0, 1.0]))
        payload = {
            "per_wavenumber": reports,
            "rayleigh": {"met": ray.met, "degenerate": ray.degenerate,
                         "sign_changes": ray.sign_change_locations},
            "fjortoft": {"met": fjo.met, "degenerate": fjo.degenerate, "detail": fjo.detail},
        }
        ctx = RunContext(Path(args.outdir), "stability zonal", config, None, args.record_wallclock)
        ctx.write_json("stability_report.json", payload)
        ctx.finish()
        print(json.dumps(payload, sort_keys=True, indent=1))
        return EXIT_OK

    if args.analysis == "rh2":
        config = _load_config(args.config)
        lmax = _optional_int(config, "lmax", 15)
        spec = sht.TruncationSpec.for_lmax(lmax)
        sim_config = dynamics.SimulationConfig(
            omega=float(config.get("omega", 0.0)),
            dt=_require(config, "dt", float),
            t_end=_require(config, "t_end", float),
            truncation=spec,
            diag_stride=_optional_int(config, "diag_stride", 10),
        )
        perturbation = _modes_field(config.get("perturbation", []), lmax)
        y_unit = {int(k): complex(v[0], v[1]) for k, v in _require(config, "y_unit", dict).items()}
        series = stability.rh2_modal_experiment(
            alpha=float(config.get("alpha", 0.0)),
            beta0=_require(config, "beta0", float),
            y_unit=y_unit, perturbation=perturbation, config=sim_config,
        )
        ctx = RunContext(Path(args.outdir), "stability rh2", config, None, args.record_wallclock)
        rows = ["time,quadratic_combination,order_balance,weighted_tail,c1_abs_m,c1_abs_0,c1_abs_p"]
        for i, t in enumerate(series.times):
            rows.append(",".join(repr(float(x)) for x in (
                t, series.quadratic_combination[i], series.order_balance[i],
                series.weighted_tail[i], *series.c1_abs[i])))
        ctx.write_text("modal_series.csv", "\n".join(rows) + "\n")
        ctx.write_json("summary.json", {
            "max_quadratic_deviation": float(np.max(np.abs(
                series.quadratic_combination - series.quadratic_combination[0]))),
            "max_order_balance": float(np.max(np.abs(series.order_balance))),
            "max_weighted_tail": float(np.max(series.weighted_tail)),
            "drift": series.drift_report,
        })
        ctx.finish()
        return EXIT_OK

    raise ConfigError(f"unknown stability analysis {args.analysis!r}")


# ---------------------------------------------------------------------------
# bifurcate
# ---------------------------------------------------------------------------

def cmd_bifurcate(args) -> int:
    config = _load_config(args.problem)
    lmax = _optional_int(config, "lmax", 12)
    fam_cfg = _require(config, "family", dict)
    kind = fam_cfg.get("kind", "cubic")
    if kind not in ("cubic", "saturating"):
        raise ConfigError(f"unknown family kind {kind!r}")
    degree = _require(fam_cfg, "degree", int)
    steps = _optional_int(config, "steps", 30 if kind == "cubic" else 20)
    try:
        ds, direction = float(config.get("ds", 0.05)), float(config.get("direction", 1.0))
        subspace = bifurcation.build_subspace(config.get("group", "tetrahedral"), lmax)
        if kind == "cubic":
            family = bifurcation.CubicShiftFamily(
                mu=float(fam_cfg["mu"]), mu1=float(fam_cfg["mu1"]), degree=degree)
            problem = bifurcation.ContinuationProblem(family=family, subspace=subspace)
            lo, hi = config.get("lambda_range", [-3.0, 3.0])
            points = bifurcation.detect_bifurcation_points(problem, (float(lo), float(hi)))
            if not points:
                raise ConfigError("no bifurcation points detected in the range")
            which = _optional_int(config, "branch_from", len(points) - 1)
            if not -len(points) <= which < len(points):
                raise ConfigError(f"branch_from {which} outside the {len(points)} detected points")
            branch = bifurcation.continue_branch(problem, points[which], steps=steps, ds=ds,
                                                 direction=direction)
        else:
            family = bifurcation.SaturatingLinearFamily(
                beta=float(fam_cfg["beta"]), mu=float(fam_cfg["mu"]), degree=degree)
            branch = bifurcation.omega_branch(family, subspace, steps=steps, ds=ds,
                                              direction=direction)
            points = [branch.origin]
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc))

    ctx = RunContext(Path(args.outdir), "bifurcate", config, None, args.record_wallclock)
    rows = ["lambda,amplitude,residual,full_residual,sup_psi,sup_vorticity,arclength,within_bounds"]
    for p in branch.points:
        rows.append(",".join(repr(float(x)) for x in (
            p.lam, float(np.linalg.norm(p.x)), p.residual, p.full_residual,
            p.sup_psi, p.sup_vorticity, p.arclength)) + f",{int(p.within_bounds)}")
    ctx.write_text("branch.csv", "\n".join(rows) + "\n")
    stride = max(1, len(branch.points) // 5)
    for idx in range(0, len(branch.points), stride):
        field = subspace.assemble(branch.points[idx].x)
        snapshot.write_snapshot(ctx.register(f"branch_point_{idx:04d}.shc"), field,
                                time=branch.points[idx].arclength)
    ctx.write_json("branch_report.json", {
        "status": branch.status,
        "origin_lambda": branch.origin.lam,
        "origin_degree": branch.origin.degree,
        "detected_points": [[p.lam, p.degree] for p in points],
        "n_points": len(branch.points),
        "subspace_dimensions": {str(k): v for k, v in subspace.dimension_by_degree.items()},
    })
    if args.svg:
        lam = branch.lambdas()
        amp = np.array([np.linalg.norm(p.x) for p in branch.points])
        _write_svg(ctx.register("branch.svg"), [("amplitude vs lambda", lam, amp)])
    ctx.finish()
    return EXIT_OK


# ---------------------------------------------------------------------------
# lift3d
# ---------------------------------------------------------------------------

def cmd_lift3d(args) -> int:
    config = {
        "family": args.family, "epsilon": args.epsilon, "phi0": args.phi0,
        "omega": args.omega, "g": args.g, "density_a": args.density_a,
        "density_b": args.density_b, "samples": args.samples, "z_max": args.z_max,
        "lmax": args.lmax, "seeds": args.seeds, "t_end": args.t_end, "dt": args.dt,
    }
    try:
        make = {"log": solutions.make_log_solution, "exp": solutions.make_exp_solution}[args.family]
    except KeyError:
        raise ConfigError(f"family must be 'log' or 'exp', got {args.family!r}")
    try:
        base = make(args.epsilon, args.phi0, lmax=args.lmax)
        density = stratosphere.DensityProfile(a=args.density_a, b=args.density_b)
        field = stratosphere.lift_solution(base, density, omega=args.omega, g=args.g)
    except (ValueError, stratosphere.LiftError) as exc:
        raise ConfigError(str(exc))

    ctx = RunContext(Path(args.outdir), "lift3d", config, None, args.record_wallclock)
    n = args.samples
    phis = 2.0 * math.pi * np.arange(n) / n
    thetas = np.arcsin(np.linspace(-0.98, 0.98, n))
    zs = np.linspace(0.0, args.z_max, n)
    rows = ["phi,theta,z,psi,u,v,p,T"]
    pp, tt, zz = np.meshgrid(phis, thetas, zs, indexing="ij")
    psi = field.stream(pp, tt, zz, 0.0)
    u = field.u0(pp, tt, zz, 0.0)
    v = field.v0(pp, tt, zz, 0.0)
    p = field.p0(pp, tt, zz, 0.0)
    temp = field.temperature(pp, tt, zz, 0.0)
    flat = [x.ravel() for x in (pp, tt, zz, psi, u, v, p, temp)]
    for vals in zip(*flat):
        rows.append(",".join(repr(float(x)) for x in vals))
    ctx.write_text("fields.csv", "\n".join(rows) + "\n")

    seeds = json.loads(args.seeds) if args.seeds else []
    if seeds:
        t_end = args.t_end if args.t_end else 2.0 * math.pi / max(abs(args.omega), 1e-6)
        dt = args.dt if args.dt else t_end / 10000
        trajectories = stratosphere.particle_paths(
            field, [tuple(map(float, s)) for s in seeds], t_end, dt)
        for i, traj in enumerate(trajectories):
            rows = ["t,phi,theta"]
            for j in range(traj.times.size):
                rows.append(",".join(repr(float(x)) for x in
                                     (traj.times[j], traj.phi[j], traj.theta[j])))
            ctx.write_text(f"trajectory_{i:03d}.csv", "\n".join(rows) + "\n")
        ctx.write_json("trajectory_report.json", {
            "level_drifts": [t.level_drift for t in trajectories],
            "t_end": t_end, "dt": dt,
        })
    ctx.finish()
    return EXIT_OK


# ---------------------------------------------------------------------------
# sht-selftest
# ---------------------------------------------------------------------------

def _selftest_checks(lmax: int) -> list[tuple[str, float, float]]:
    """(name, measured, tolerance) triples; pass iff measured <= tolerance."""
    checks: list[tuple[str, float, float]] = []
    tr = sht.default_transform(lmax)
    rng = np.random.default_rng(2024)
    f = sht.SpectralField.zeros(lmax)
    for l in range(1, lmax + 1):
        for m in range(0, l + 1):
            f.set(l, m, rng.normal() + 1j * rng.normal())
    f.enforce_reality()
    g = tr.analysis(tr.synthesis(f))
    scale = float(np.max(np.abs(f.coeffs)))
    checks.append(("transform round trip", float(np.max(np.abs(g.coeffs - f.coeffs))) / scale, 1e-12))

    grid = tr.grid
    checks.append(("quadrature weight sum", abs(float(np.sum(grid.weights)) - 2.0), 1e-14))
    checks.append(("quadrature s^4 moment", abs(float(grid.weights @ grid.nodes**4) - 0.4), 1e-14))

    worst = 0.0
    for l in (1, 2, min(5, lmax)):
        for m in range(0, l + 1):
            y = sht.harmonic(l, m, grid)
            lap = sht.laplacian(tr.analysis(y.values, real_valued=False))
            back = tr.synthesis(lap).values
            worst = max(worst, float(np.max(np.abs(back + l * (l + 1) * y.values))))
    checks.append(("eigenrelation", worst, 1e-11))

    rot = sht.RotationSpec(0.31, 0.77, -0.21)
    udef = 0.0
    for l in (1, lmax // 2, lmax):
        block = sht.rotation_block(l, rot)
        udef = max(udef, float(np.max(np.abs(block @ block.conj().T - np.eye(2 * l + 1)))))
    checks.append(("rotation unitarity", udef, 1e-12))
    # the factorised blocks against the independent Rodrigues closed form
    cdef = 0.0
    for l in range(1, min(5, lmax) + 1):
        closed = sht.rotation_block(l, rot, closed_form=True)
        cdef = max(cdef, float(np.max(np.abs(sht.rotation_block(l, rot) - closed))))
    checks.append(("rotation closed form", cdef, 1e-12))

    val = fields.harmonic_product_integral([(2, 0, 3)])
    checks.append(("triple product integral",
                   abs(val - math.sqrt(5.0) / (7.0 * math.sqrt(math.pi))), 1e-12))

    zp = stability.ZonalProfile.solid_rotation(1.0)
    rep = stability.zonal_operator_spectrum(zp, 2.0, 1, 32)
    expected = stability.solid_rotation_eigenvalues(1.0, 2.0, 1, 32)
    err = float(np.max(np.abs(np.sort(rep.eigenvalues.real) - np.sort(expected))))
    err = max(err, float(np.max(np.abs(rep.eigenvalues.imag))))
    checks.append(("linearized spectrum", err, 1e-10))
    return checks


def cmd_selftest(args) -> int:
    checks = _selftest_checks(args.lmax)
    width = max(len(name) for name, _, _ in checks)
    failed = 0
    lines = []
    for name, measured, tol in checks:
        ok = measured <= tol
        failed += 0 if ok else 1
        status = "PASS" if ok else "FAIL"
        lines.append(f"{name:<{width}}  {measured:.3e} <= {tol:.0e}  {status}")
    report = "\n".join(lines)
    print(report)
    if args.outdir:
        ctx = RunContext(Path(args.outdir), "sht-selftest", {"lmax": args.lmax}, None,
                         args.record_wallclock)
        ctx.write_text("selftest.txt", report + "\n")
        ctx.finish()
    return EXIT_OK if failed == 0 else EXIT_ASSERTION


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rotosphere",
        description="Pseudospectral toolkit for inviscid vorticity dynamics on a rotating sphere",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--outdir", default="rotosphere_out", help="output directory")
        p.add_argument("--record-wallclock", action="store_true",
                       help="store wall-clock timestamps in the manifest "
                            "(off by default so reruns are byte-identical)")
        p.add_argument("--svg", action="store_true", help="emit simple SVG line plots")

    p = sub.add_parser("simulate", help="integrate the vorticity equation from a JSON config")
    p.add_argument("config")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("make-solution", help="materialize an explicit solution family member")
    p.add_argument("--family", required=True,
                   choices=sorted(solutions.SOLUTION_KINDS) + ["log", "exp"])
    p.add_argument("--params", default="", help="JSON object of family parameters")
    p.add_argument("--params-file", default="", help="JSON file of family parameters")
    common(p)
    p.set_defaults(func=_dispatch_make_solution)

    p = sub.add_parser("stability", help="stability analyses with JSON reports")
    p.add_argument("analysis", choices=["zonal", "rh2", "planet"])
    p.add_argument("--name", default="uranus", help="planet name for the planet analysis")
    p.add_argument("--config", default="", help="JSON config for zonal/rh2 analyses")
    common(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("bifurcate", help="detect bifurcation points and continue a branch")
    p.add_argument("problem", help="JSON problem description")
    common(p)
    p.set_defaults(func=cmd_bifurcate)

    p = sub.add_parser("lift3d", help="lift a stationary solution into the stratified 3D layer")
    p.add_argument("--family", default="log")
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--phi0", type=float, default=0.0)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--g", type=float, default=58.0)
    p.add_argument("--density-a", type=float, default=1.0)
    p.add_argument("--density-b", type=float, default=3.0)
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--z-max", type=float, default=1.0)
    p.add_argument("--lmax", type=int, default=63)
    p.add_argument("--seeds", default="", help="JSON list of [phi, theta, z] seeds")
    p.add_argument("--t-end", type=float, default=0.0)
    p.add_argument("--dt", type=float, default=0.0)
    common(p)
    p.set_defaults(func=cmd_lift3d)

    p = sub.add_parser("sht-selftest", help="transform/quadrature/spectrum self-checks")
    p.add_argument("--lmax", type=int, default=31)
    p.add_argument("--outdir", default="")
    p.add_argument("--record-wallclock", action="store_true")
    p.set_defaults(func=cmd_selftest)
    return ap


def _dispatch_make_solution(args) -> int:
    if args.family in ("log", "exp"):
        args.family = f"{args.family}_family"
    return cmd_make_solution(args)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (dynamics.SimulationBlowup, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
