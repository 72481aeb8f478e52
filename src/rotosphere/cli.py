"""Command-line surface: simulation, solution factories, stability reports,
branch continuation, 3D lifts, and the transform self-test.

Every command resolves its inputs to a canonical JSON config, hashes it,
runs single-threaded and deterministically, and finishes by writing a run
manifest listing every output file.  Exit codes: 0 success, 2 config
error, 3 numerical failure, 4 failed self-test/acceptance assertion.

Each `cmd_*` reads its config through `_get`, builds what the run needs and
returns `(command, config, seed, work)` without writing: a ValueError or
OSError there is a config error, and so is a config key that no `_get` read.
`main` then creates the output directory and calls `work(ctx)`, which runs
the numerics and writes the outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import hashlib
import json
import math
import os
import re
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

def _print_report(text: str) -> None:
    """Print to stdout.  Once the reader has closed the pipe (`| head`), the
    rest of the output is dropped and the command goes on to its own status."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # later writes, and the flush at exit, go to the null device
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


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
        self.seed = seed
        self.record_wallclock = record_wallclock
        self.started = datetime.datetime.now(datetime.timezone.utc) if record_wallclock else None
        self.outputs: list[str] = []
        outdir.mkdir(parents=True, exist_ok=True)
        config_text = json.dumps(config, sort_keys=True, separators=(",", ":")) + "\n"
        self.config_hash = hashlib.sha256(config_text.encode()).hexdigest()
        self.write_text("config.json", config_text)

    def register(self, name: str) -> Path:
        if name not in self.outputs:
            self.outputs.append(name)
        return self.outdir / name

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


# ---------------------------------------------------------------------------
# Config reader
# ---------------------------------------------------------------------------

_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               dict: "an object", list: "a list"}


class _Object(dict):
    """A parsed JSON object that records which of its keys `_get` has read."""

    def __init__(self, items):
        super().__init__(items)
        self.read: set[str] = set()


def _unread_keys(value, path: str = ""):
    """Paths of the keys of parsed JSON objects in `value` that nothing read."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        where = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else key
        if isinstance(value, _Object) and key not in value.read:
            yield where
        else:
            yield from _unread_keys(child, where)


def _check(key: str, value, kind):
    """`value` if it is of `kind`, else a ConfigError.

    int is a JSON integer and float a finite JSON number (returned as a
    float); neither accepts a bool.  complex is an [re, im] pair of numbers,
    a tuple of kinds a list of that length, {int: kind} an object with
    integer keys written as strings ({"1": ...}), and str, dict and list are
    the JSON types themselves.
    """
    if kind is complex:
        return complex(*_check(key, value, (float, float)))
    if isinstance(kind, tuple):
        if not (isinstance(value, list) and len(value) == len(kind)):
            raise ConfigError(f"{key!r} must be a list of {len(kind)} entries, got {value!r}")
        return [_check(f"{key}[{i}]", v, k) for i, (v, k) in enumerate(zip(value, kind))]
    if isinstance(kind, dict):
        for k in _check(key, value, dict):
            if not re.fullmatch(r"0|-?[1-9][0-9]*", k):
                raise ConfigError(f"{key!r} must have integer keys, got {k!r}")
        value.read.update(value)
        return {int(k): _check(f"{key}[{k}]", v, kind[int]) for k, v in value.items()}
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float and number and abs(value) <= sys.float_info.max:
        return float(value)
    if (kind is int and number and isinstance(value, int)
            or kind in (str, dict, list) and isinstance(value, kind)):
        return value
    raise ConfigError(f"{key!r} must be {_KIND_NAMES[kind]}, got {value!r}")


def _get(mapping: dict, key: str, kind, default=...):
    """`mapping[key]` checked by `_check`; `default`, if given, when the key is absent.

    `mapping` is a parsed JSON object; the key is recorded as read.
    """
    mapping.read.add(key)
    if key in mapping:
        return _check(key, mapping[key], kind)
    if default is ...:
        raise ConfigError(f"missing config key {key!r}")
    return default


def _parse_json(text: str, what: str, kind=dict):
    """`text` parsed as JSON and checked as `kind`."""
    try:
        value = json.loads(text, object_hook=_Object)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}")
    return _check(what, value, kind)


def _load_config(path: str) -> dict:
    return _parse_json(Path(path).read_text(encoding="utf-8"), f"config file {path}")


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

def _simulation_config(config: dict, **kwargs) -> dynamics.SimulationConfig:
    """`dt`, `t_end` and `diag_stride` plus `kwargs`; a `t_end` that is not a
    whole number of steps is rejected by `SimulationConfig`."""
    return dynamics.SimulationConfig(
        dt=_get(config, "dt", float), t_end=_get(config, "t_end", float),
        diag_stride=_get(config, "diag_stride", int, 10), **kwargs)


def _modes_field(entries: list, lmax: int) -> sht.SpectralField:
    """Real field from [l, m, re, im] entries, each setting c_l^m = re + i im;
    c_l^{-m} follows by reality, so one entry per (l, |m|) and a real m = 0."""
    field = sht.SpectralField.zeros(lmax)
    written = set()
    for entry in entries:
        l, m, re_part, im_part = _check("mode entry", entry, (int, int, float, float))
        if not (1 <= l <= lmax and abs(m) <= l):
            raise ConfigError(f"mode (l, m) = ({l}, {m}) outside degrees 1..{lmax}")
        if (l, abs(m)) in written:
            raise ConfigError(f"mode (l, m) = ({l}, {m}): order {abs(m)} or {-abs(m)} "
                              f"of degree {l} is already set")
        written.add((l, abs(m)))
        field.set(l, m, complex(re_part, im_part))
    return field


def _rossby_haurwitz(spec: dict, lmax: int | None) -> solutions.RossbyHaurwitzWave:
    return solutions.make_rossby_haurwitz(
        _get(spec, "degree", int), _get(spec, "alpha", float, 0.0),
        _get(spec, "ycoeffs", {int: complex}), _get(spec, "omega", float, 0.0), lmax=lmax)


def _initial_field(spec: dict, lmax: int, seed: int, omega: float) -> sht.SpectralField:
    kind = _get(spec, "kind", str, "modes")
    if kind == "snapshot":
        field, _ = snapshot.read_snapshot(_get(spec, "path", str))
        return field.truncated(lmax)
    if kind == "modes":
        return _modes_field(_get(spec, "coefficients", list, []), lmax)
    if kind == "rossby_haurwitz":  # the wave's omega sets only its speed, which the run ignores
        if _get(spec, "omega", float, omega) != omega:
            raise ConfigError(f"initial omega {spec['omega']!r} differs from the run's omega {omega!r}")
        return sht.laplacian(_rossby_haurwitz(spec, lmax).psi)
    if kind == "random":
        return _random_field(lmax, np.random.default_rng(seed), _get(spec, "decay", float, 0.5))
    raise ConfigError(f"unknown initial-state kind {kind!r}")


def _random_field(lmax: int, rng: np.random.Generator, decay: float) -> sht.SpectralField:
    """The real part of sum z Y_l^m over 1 <= l <= lmax, 0 <= m <= l, with
    z = (x + i y) exp(-decay l) and x, y standard normal: z/2 at m > 0 and
    Re z at m = 0 in the half table."""
    field = sht.SpectralField.zeros(lmax)
    for l in range(1, lmax + 1):
        for m in range(0, l + 1):
            z = (rng.normal() + 1j * rng.normal()) * math.exp(-decay * l)
            field.halves[l, m] = z.real if m == 0 else 0.5 * z
    return field


def cmd_simulate(args):
    config = _load_config(args.config)
    sim_config = _simulation_config(
        config, omega=_get(config, "omega", float), lmax=_get(config, "lmax", int),
        filter_strength=_get(config, "filter_strength", float, 0.0))
    n = sim_config.n_steps
    # without a stride, the initial and the final state only
    stride = _get(config, "snapshot_stride", int, max(n, 1))
    if stride < 1:
        raise ConfigError(f"snapshot_stride must be >= 1, got {stride}")
    seed = _get(config, "seed", int, 0)
    initial = _initial_field(_get(config, "initial", dict), sim_config.lmax, seed,
                             sim_config.omega)
    sim_config.check_initial(initial)

    def work(ctx):
        ctx.register("diagnostics.csv")  # listed before the snapshots in the manifest

        def write_snapshot(i, state):
            # snapshot k holds step k * stride, and the last one step n
            if i % stride == 0 or i == n:
                name = f"snapshot_{math.ceil(i / stride):06d}.shc"
                snapshot.write_snapshot(ctx.register(name), state.vorticity, time=state.time)

        result = dynamics.run(initial, sim_config, on_step=write_snapshot)
        rows = [fields.DiagnosticRecord.csv_header(sim_config.lmax)]
        rows.extend(rec.csv_row() for rec in result.diagnostics)
        ctx.write_text("diagnostics.csv", "\n".join(rows) + "\n")
        ctx.write_json("report.json", {
            "drift": result.drift_report,
            "cfl": result.cfl,
            "filter_strength": sim_config.filter_strength,
            "n_steps": n,
        })
        if args.svg:
            times = np.array([d.time for d in result.diagnostics])
            _write_svg(ctx.register("diagnostics.svg"), [
                ("energy", times, np.array([d.energy for d in result.diagnostics])),
                ("enstrophy", times, np.array([d.enstrophy for d in result.diagnostics])),
            ])

    return "simulate", config, seed, work


# ---------------------------------------------------------------------------
# make-solution
# ---------------------------------------------------------------------------

SOLUTION_KINDS = ("zonal_harmonic", "rossby_haurwitz", "log_family", "exp_family", "rotated")


def _solution(kind: str, p: dict):
    """The member of family `kind` with parameters `p`: a stream function, a
    Rossby-Haurwitz wave or an elliptic solution."""
    if kind == "zonal_harmonic":
        lmax = _get(p, "lmax", int, 15)
        if lmax < 1:
            raise ConfigError(f"lmax must be >= 1, got {lmax}")
        psi = sht.SpectralField.zeros(lmax)
        for entry in _get(p, "components", list):
            entry = _check("components entry", entry, dict)
            l = _get(entry, "l", int)
            if not 0 <= l <= lmax:
                raise ConfigError(f"component degree {l} outside 0..{lmax}")
            psi.set(l, 0, _get(entry, "coefficient", float))
        return psi
    if kind == "rossby_haurwitz":
        return _rossby_haurwitz(p, _get(p, "lmax", int, None))
    if kind in ("log_family", "exp_family"):
        make = solutions.make_log_solution if kind == "log_family" else solutions.make_exp_solution
        return make(_get(p, "epsilon", float), _get(p, "phi0", float, 0.0),
                    _get(p, "lmax", int, 63))
    if kind == "rotated":
        base = _get(p, "base", dict)
        inner = _solution(_get(base, "kind", str), _get(base, "parameters", dict))
        rot = sht.RotationSpec(*_get(p, "rotation", (float, float, float), [0.0, 0.0, 0.0]))
        if isinstance(inner, solutions.EllipticSolution):
            return solutions.rotate_solution(inner, rot)
        if isinstance(inner, solutions.RossbyHaurwitzWave):
            return dataclasses.replace(inner, psi=sht.rotate(inner.psi, rot))
        return sht.rotate(inner, rot)
    raise ConfigError(f"unknown solution kind {kind!r}; expected one of {SOLUTION_KINDS}")


def cmd_make_solution(args):
    kind = {"log": "log_family", "exp": "exp_family"}.get(args.family, args.family)
    params = _parse_json(args.params or "{}", "--params")
    # overflow is left to the finite check in `work`, before anything is written
    with np.errstate(all="ignore"):
        built = _solution(kind, params)
    omega = _get(params, "omega", float, 0.0)

    @np.errstate(all="ignore")
    def work(ctx):
        report: dict = {"family": kind}
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
            report.update({"speed": built.speed, "degree": built.degree})
        else:
            psi = built
        stat = solutions.verify_stationary(psi, omega)
        report.update({"advection_l2": stat.l2, "advection_linf": stat.linf,
                       "stationary": bool(stat.stationary)})
        if not all(np.isfinite(v).all() for v in [psi.halves, *report.values()]
                   if not isinstance(v, str)):
            raise ArithmeticError("the solution or its residual report is not finite")
        snapshot.write_snapshot(ctx.register("solution.shc"), psi)
        snapshot.write_snapshot_json(ctx.register("solution.json"), psi)
        ctx.write_json("residual_report.json", report)

    return "make-solution", {"family": kind, "parameters": params}, None, work


# ---------------------------------------------------------------------------
# stability subcommands
# ---------------------------------------------------------------------------

def _fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def cmd_stability_planet(args):
    name = args.name.lower()
    result = stability.planet_wind_stability(name)  # exact rational arithmetic, no numerics

    def work(ctx):
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
            "chosen_shift": (_fraction_str(verdict.chosen_shift)
                             if verdict.chosen_shift is not None else None),
            "verdict": verdict.verdict,
        }
        ctx.write_json("stability_report.json", payload)
        _print_report(json.dumps(payload, sort_keys=True, indent=1))

    return "stability planet", {"analysis": "planet", "name": name}, None, work


def cmd_stability_zonal(args):
    config = _load_config(args.config)
    omega = _get(config, "omega", float)
    zp = stability.ZonalProfile.from_zonal_coefficients(
        _get(config, "zonal_coefficients", {int: float}))
    ks = [_check("wavenumbers", k, int) for k in _get(config, "wavenumbers", list, [1, 2])]
    n_basis = _get(config, "basis_size", int, 48)
    if 0 in ks or n_basis < 1:
        raise ConfigError("need nonzero wavenumbers and basis_size >= 1")
    if len({abs(k) for k in ks}) < len(ks):
        raise ConfigError(f"wavenumbers {ks} repeat a |k|: k and -k have one spectrum")

    def work(ctx):
        reports = {}
        for k in ks:
            rep = stability.zonal_operator_spectrum(zp, omega, k, n_basis)
            reports[str(k)] = {
                "essential_interval": list(rep.essential_interval),
                "unstable": rep.unstable,
                "max_growth_rate": rep.max_growth_rate,
                "pairing_defect": rep.pairing_defect,
                "discrete_eigenvalues": [[z.real, z.imag] for z in rep.discrete_eigenvalues],
            }
        shear = stability.shear_criteria(zp, omega)
        if shear.degenerate:
            detail = "degenerate: gradient identically zero"
        elif not shear.sign_changes:
            detail = "gradient does not change sign"
        else:
            detail = (f"sup of the wind over S+ {shear.wind_sup!r} "
                      f"{'>' if shear.fjortoft_met else '<='} its inf over S- {shear.wind_inf!r}")
        payload = {
            "per_wavenumber": reports,
            "rayleigh": {"met": shear.rayleigh_met, "degenerate": shear.degenerate,
                         "sign_changes": shear.sign_changes},
            "fjortoft": {"met": shear.fjortoft_met, "degenerate": shear.degenerate,
                         "detail": detail},
        }
        ctx.write_json("stability_report.json", payload)
        _print_report(json.dumps(payload, sort_keys=True, indent=1))

    return "stability zonal", config, None, work


def cmd_stability_rh2(args):
    config = _load_config(args.config)
    sim_config = _simulation_config(config, omega=_get(config, "omega", float, 0.0),
                                    lmax=_get(config, "lmax", int, 15))
    perturbation = _modes_field(_get(config, "perturbation", list, []), sim_config.lmax)
    beta0 = _get(config, "beta0", float)
    wave = solutions.make_rossby_haurwitz(
        2, _get(config, "alpha", float, 0.0),
        {m: beta0 * c for m, c in _get(config, "y_unit", {int: complex}).items()},
        sim_config.omega, lmax=sim_config.lmax)

    def work(ctx):
        series = stability.rh2_modal_experiment(wave, perturbation, sim_config)
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

    return "stability rh2", config, None, work


# ---------------------------------------------------------------------------
# bifurcate
# ---------------------------------------------------------------------------

def cmd_bifurcate(args):
    config = _load_config(args.problem)
    lmax = _get(config, "lmax", int, 12)
    fam_cfg = _get(config, "family", dict)
    kind = _get(fam_cfg, "kind", str, "cubic")
    if kind not in ("cubic", "saturating"):
        raise ConfigError(f"unknown family kind {kind!r}")
    degree = _get(fam_cfg, "degree", int)
    steps = _get(config, "steps", int, 30 if kind == "cubic" else 20)
    ds, direction = _get(config, "ds", float, 0.05), _get(config, "direction", float, 1.0)
    if steps < 0 or not ds > 0.0 or direction not in (1.0, -1.0):
        raise ConfigError(f"need steps >= 0, ds > 0 and direction 1 or -1, "
                          f"got steps {steps}, ds {ds}, direction {direction}")
    try:
        subspace = bifurcation.build_subspace(_get(config, "group", str, "tetrahedral"), lmax)
    except ArithmeticError as exc:  # no invariant harmonics: nothing to continue
        raise ConfigError(str(exc)) from exc
    if kind == "cubic":
        family = bifurcation.CubicShiftFamily(
            mu=_get(fam_cfg, "mu", float), mu1=_get(fam_cfg, "mu1", float), degree=degree)
        window = tuple(_get(config, "lambda_range", (float, float), [-3.0, 3.0]))
        degrees, which = subspace.simple_degrees(), _get(config, "branch_from", int, -1)
    else:  # the positive crossing of the degree's multiplier
        family = bifurcation.SaturatingLinearFamily(
            beta=_get(fam_cfg, "beta", float), mu=_get(fam_cfg, "mu", float), degree=degree)
        window, degrees, which = (0.0, math.inf), [degree], 0
    problem = bifurcation.ContinuationProblem(family=family, subspace=subspace)
    points = bifurcation.detect_bifurcation_points(problem, window, degrees)
    if not points:
        raise ConfigError("no bifurcation points detected in the range")
    if not -len(points) <= which < len(points):
        raise ConfigError(f"branch_from {which} outside the {len(points)} detected points")
    subspace.generator_index(points[which].degree)  # the branch leaves this degree's line

    def work(ctx):
        branch = bifurcation.continue_branch(problem, points[which], steps=steps, ds=ds,
                                             direction=direction)
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

    return "bifurcate", config, None, work


# ---------------------------------------------------------------------------
# lift3d
# ---------------------------------------------------------------------------

def cmd_lift3d(args):
    config = {key: getattr(args, key) for key in (
        "family", "epsilon", "phi0", "omega", "g", "density_a", "density_b", "samples",
        "z_max", "lmax", "seeds", "t_end", "dt")}
    for key, value in config.items():  # argparse's float() takes "nan" and "inf"
        if isinstance(value, float):
            _check(key, value, float)
    if args.samples < 1:
        raise ConfigError(f"samples must be positive, got {args.samples}")
    if args.t_end < 0.0 or args.dt < 0.0:
        raise ConfigError("t_end and dt must not be negative (0 selects the default)")
    if not args.t_end and args.omega == 0.0:
        raise ConfigError("omega 0 has no rotation period to default t_end to: give --t-end")
    t_end = args.t_end if args.t_end else 2.0 * math.pi / abs(args.omega)
    dt = args.dt if args.dt else t_end / 10000
    dynamics.whole_steps(t_end, dt)
    seeds = [_check("seeds entry", s, (float, float, float))
             for s in _parse_json(args.seeds, "--seeds", list)] if args.seeds else []
    # the density profile holds above the tropopause, z = 0
    if args.z_max < 0.0:
        raise ConfigError(f"z_max must not be negative, got {args.z_max}")
    for _, theta, z in seeds:
        if not (abs(theta) < math.pi / 2 and z >= 0.0):
            raise ConfigError(f"seed latitude {theta} must lie inside (-pi/2, pi/2) "
                              f"and seed height {z} must not be negative")
    make = {"log": solutions.make_log_solution, "exp": solutions.make_exp_solution}.get(args.family)
    if make is None:
        raise ConfigError(f"family must be 'log' or 'exp', got {args.family!r}")
    base = make(args.epsilon, args.phi0, lmax=args.lmax)
    density = stratosphere.DensityProfile(a=args.density_a, b=args.density_b)
    field = stratosphere.lift_solution(base, density, omega=args.omega, g=args.g)

    def work(ctx):
        n = args.samples
        phis = 2.0 * math.pi * np.arange(n) / n
        thetas = np.arcsin(np.linspace(-0.98, 0.98, n))
        zs = np.linspace(0.0, args.z_max, n)
        rows = ["phi,theta,z,psi,u,v,p,T"]
        grid = np.meshgrid(phis, thetas, zs, indexing="ij")
        with np.errstate(all="ignore"):  # the density underflows high up: checked below
            values = [*grid] + [f(*grid, 0.0) for f in (field.stream, field.u0, field.v0,
                                                         field.p0, field.temperature)]
        if not all(np.isfinite(v).all() for v in values):
            raise ArithmeticError("the lifted fields are not finite at every sample")
        rows.extend(f"{phi!r},{theta!r},{z!r},{psi!r},{u!r},{v!r},{p!r},{T!r}"
                    for phi, theta, z, psi, u, v, p, T in zip(*(x.ravel().tolist()
                                                                for x in values)))
        ctx.write_text("fields.csv", "\n".join(rows) + "\n")
        if not seeds:
            return
        trajectories = stratosphere.particle_paths(field, seeds, t_end, dt)
        for i, traj in enumerate(trajectories):
            rows = ["t,phi,theta"]
            rows.extend(f"{t!r},{phi!r},{theta!r}" for t, phi, theta in zip(
                traj.times.tolist(), traj.phi.tolist(), traj.theta.tolist()))
            ctx.write_text(f"trajectory_{i:03d}.csv", "\n".join(rows) + "\n")
        ctx.write_json("trajectory_report.json", {
            "level_drifts": [t.level_drift for t in trajectories],
            "t_end": t_end, "dt": dt,
        })

    return "lift3d", config, None, work


# ---------------------------------------------------------------------------
# sht-selftest
# ---------------------------------------------------------------------------

def _selftest_checks(lmax: int) -> list[tuple[str, float, float]]:
    """(name, measured, tolerance) triples; pass iff measured <= tolerance."""
    checks: list[tuple[str, float, float]] = []
    tr = sht.default_transform(lmax)
    f = _random_field(lmax, np.random.default_rng(2024), 0.0)
    g = tr.analysis(tr.synthesis(f.halves))
    scale = float(np.max(np.abs(f.halves)))
    checks.append(("transform round trip", float(np.max(np.abs(g - f.halves))) / scale, 1e-12))

    grid = tr.grid
    checks.append(("quadrature weight sum", abs(float(np.sum(grid.weights)) - 2.0), 1e-14))
    # an n-node grid integrates s^k exactly up to k = 2n - 1: the 2-node grid
    # of lmax 1 checks s^2
    k = min(4, 2 * grid.nlat - 2)
    checks.append((f"quadrature s^{k} moment",
                   abs(float(grid.weights @ grid.nodes**k) - 2.0 / (k + 1)), 1e-14))

    # from the exact unit coefficient: analysis round-off is the round trip's to measure
    worst = 0.0
    for l in {1, min(2, lmax), min(5, lmax)}:
        for m in range(0, l + 1):
            y = sht.harmonic(l, m, grid)
            # c_l^m = 1/2 and -i/2 realise Re Y_l^m and Im Y_l^m; c_l^0 = 1 realises Y_l^0
            for value, part in ((0.5, y.real), (-0.5j, y.imag)) if m else ((1.0, y.real),):
                unit = sht.SpectralField.zeros(lmax)
                unit.set(l, m, value)
                back = tr.synthesis(sht.laplacian(unit).halves)
                worst = max(worst, float(np.max(np.abs(back + l * (l + 1) * part))))
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


def cmd_selftest(args):
    sht.default_transform(args.lmax)  # GridShapeError below lmax 1
    if args.record_wallclock and not args.outdir:
        raise ConfigError("--record-wallclock needs --outdir: no manifest is written without it")

    def work(ctx):
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
        _print_report(report)
        if ctx is not None:
            ctx.write_text("selftest.txt", report + "\n")
        return EXIT_OK if failed == 0 else EXIT_ASSERTION

    return "sht-selftest", {"lmax": args.lmax} if args.outdir else None, None, work


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rotosphere",
        description="Pseudospectral toolkit for inviscid vorticity dynamics on a rotating sphere",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(p, svg=False):
        p.add_argument("--outdir", default="rotosphere_out", help="output directory")
        p.add_argument("--record-wallclock", action="store_true",
                       help="store wall-clock timestamps in the manifest "
                            "(off by default so reruns are byte-identical)")
        if svg:
            p.add_argument("--svg", action="store_true", help="emit simple SVG line plots")

    p = sub.add_parser("simulate", help="integrate the vorticity equation from a JSON config")
    p.add_argument("config")
    common(p, svg=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("make-solution", help="materialize an explicit solution family member")
    p.add_argument("--family", required=True, choices=sorted(SOLUTION_KINDS) + ["log", "exp"])
    p.add_argument("--params", default="", help="JSON object of family parameters")
    common(p)
    p.set_defaults(func=cmd_make_solution)

    analyses = sub.add_parser("stability", help="stability analyses with JSON reports")
    analyses = analyses.add_subparsers(dest="analysis", required=True)
    p = analyses.add_parser("planet", help="quintic wind fit and its exact stability test")
    p.add_argument("--name", default="uranus", help="planet name (default uranus)")
    common(p)
    p.set_defaults(func=cmd_stability_planet)
    for analysis, func, what in (
            ("zonal", cmd_stability_zonal, "spectra and instability criteria of a zonal profile"),
            ("rh2", cmd_stability_rh2, "modal experiment on a perturbed degree-2 wave")):
        p = analyses.add_parser(analysis, help=what)
        p.add_argument("--config", required=True, help="JSON config of the analysis")
        common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("bifurcate", help="detect bifurcation points and continue a branch")
    p.add_argument("problem", help="JSON problem description")
    common(p, svg=True)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            command, config, seed, work = args.func(args)
            unread = list(_unread_keys(config))
            if unread:
                raise ConfigError(f"{command} does not read config keys {unread}")
        except (ValueError, OSError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        ctx = None if config is None else RunContext(
            Path(args.outdir), command, config, seed, args.record_wallclock)
        status = work(ctx)
        if ctx is not None:
            ctx.finish()
        return status or EXIT_OK
    except (dynamics.SimulationBlowup, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
