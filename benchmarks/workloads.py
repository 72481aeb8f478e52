"""The benchmark's workloads: seeded CLI inputs, the ops that run them, and
the correctness gate each op must pass.

A workload turns `(seed, index)` into the argv lists of one op; the inputs
depend on nothing else, so a seed reproduces a run's inputs exactly.  Every
gate reads the files the CLI wrote and checks them against the package's
own oracles (analytic wave speed, closed-form bifurcation points, residual
and drift reports).  A gate returns a list of failure messages; an empty
list is a pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class Workload:
    """One benchmark workload.

    `prepare` writes the op's input files under `workdir` and returns the
    op: a dict with the argv lists to pass to `rotosphere.cli.main`, their
    output directories, and whatever the gate needs to know.
    """

    name = ""
    unit = ""

    def prepare(self, seed: int, index: int, workdir: Path) -> dict:
        raise NotImplementedError

    def check(self, op: dict) -> list[str]:
        raise NotImplementedError

    def work_units(self, op: dict) -> int:
        raise NotImplementedError


def _drift_failures(report: dict, bound: float = 1e-6) -> list[str]:
    out = []
    for key in ("energy_rel_drift", "enstrophy_rel_drift"):
        value = report["drift"][key]
        if not (math.isfinite(value) and value < bound):
            out.append(f"{key} {value!r} not below {bound}")
    return out


def _snapshots(outdir: Path) -> list[Path]:
    return sorted(outdir.glob("snapshot_*.shc"))


class SimWave(Workload):
    """Rossby-Haurwitz degree-2 wave at lmax 31: 200 RK4 steps at dt = P/2000."""

    name = "sim-wave-l31"
    unit = "rk4_steps"
    lmax = 31
    steps = 200
    omega = 1.0
    alpha = 1.0

    def prepare(self, seed, index, workdir):
        rng = _rng(seed, index)
        amplitude = float(rng.uniform(0.3, 0.7))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        y1 = amplitude * complex(math.cos(phase), math.sin(phase))
        # analytic phase speed of a degree-2 Rossby-Haurwitz wave, j(j+1) = 6
        speed = -(2.0 * self.omega + self.alpha * (6.0 - 2.0)) / 6.0
        period = 2.0 * math.pi / abs(speed)
        dt = period / 2000.0
        config = {
            "omega": self.omega, "dt": dt, "t_end": self.steps * dt, "lmax": self.lmax,
            "diag_stride": 20, "snapshot_stride": 50, "filter_strength": 0.0, "seed": 0,
            "initial": {"kind": "rossby_haurwitz", "degree": 2, "alpha": self.alpha,
                        "omega": self.omega, "ycoeffs": {"1": [y1.real, y1.imag]}},
        }
        path = _write_json(workdir / "sim.json", config)
        outdir = workdir / "out"
        return {"argvs": [["simulate", path, "--outdir", str(outdir)]],
                "outdirs": [outdir], "y1": [y1.real, y1.imag]}

    def check(self, op):
        from rotosphere import sht, snapshot, solutions

        outdir = op["outdirs"][0]
        failures = _drift_failures(_read_json(outdir / "report.json"))
        snaps = _snapshots(outdir)
        if not snaps:
            return failures + ["no snapshot written"]
        final, t_final = snapshot.read_snapshot(snaps[-1])
        y1 = complex(*op["y1"])
        wave = solutions.make_rossby_haurwitz(2, self.alpha, {1: y1}, self.omega,
                                              lmax=self.lmax)
        expected = wave.at_time(t_final).get(2, 1)
        got = sht.invert_laplacian(final).get(2, 1)
        defect = abs(float(np.angle(got / expected)))
        total_phase = abs(wave.speed) * t_final
        rel = defect / total_phase if total_phase > 0 else math.inf
        if not rel < 1e-3:
            failures.append(f"(2,1) phase error {rel:.3e} of the analytic RH phase "
                            f"at t={t_final:.6g} not below 1e-3")
        return failures

    def work_units(self, op):
        return self.steps


class SimRandom(Workload):
    """Seeded random vorticity (decay 0.05) at lmax 127: 10 RK4 steps at dt 1e-3."""

    name = "sim-random-l127"
    unit = "rk4_steps"
    lmax = 127
    steps = 10

    def prepare(self, seed, index, workdir):
        rng = _rng(seed, index)
        config = {
            "omega": 1.0, "dt": 1e-3, "t_end": self.steps * 1e-3, "lmax": self.lmax,
            "diag_stride": 5, "snapshot_stride": 10, "filter_strength": 0.0,
            "seed": int(rng.integers(0, 2**31 - 1)),
            "initial": {"kind": "random", "decay": 0.05},
        }
        path = _write_json(workdir / "sim.json", config)
        outdir = workdir / "out"
        return {"argvs": [["simulate", path, "--outdir", str(outdir)]], "outdirs": [outdir]}

    def check(self, op):
        outdir = op["outdirs"][0]
        failures = _drift_failures(_read_json(outdir / "report.json"))
        if len(_snapshots(outdir)) != 2:
            failures.append("expected the initial and final snapshots")
        return failures

    def work_units(self, op):
        return self.steps


class BifurcateTetra(Workload):
    """Tetrahedral cubic-family branch at lmax 24: 30 continuation steps, ds 0.08."""

    name = "bifurcate-tetra-l24"
    unit = "branch_points"
    steps = 30
    mu = 1.0

    def prepare(self, seed, index, workdir):
        rng = _rng(seed, index)
        mu1 = float(rng.uniform(0.8, 1.25))
        direction = float(rng.choice([-1.0, 1.0]))
        problem = {
            "group": "tetrahedral", "lmax": 24,
            "family": {"kind": "cubic", "mu": self.mu, "mu1": mu1, "degree": 3},
            "steps": self.steps, "ds": 0.08, "direction": direction,
        }
        path = _write_json(workdir / "problem.json", problem)
        outdir = workdir / "out"
        return {"argvs": [["bifurcate", path, "--outdir", str(outdir)]],
                "outdirs": [outdir], "mu1": mu1}

    def check(self, op):
        outdir = op["outdirs"][0]
        report = _read_json(outdir / "branch_report.json")
        failures = []
        if report["status"] != "completed":
            failures.append(f"branch status {report['status']!r}")
        if report["n_points"] != self.steps + 1:
            failures.append(f"{report['n_points']} branch points, expected {self.steps + 1}")
        rows = (outdir / "branch.csv").read_text(encoding="utf-8").splitlines()[1:]
        if len(rows) != report["n_points"] or not all(r.endswith(",1") for r in rows):
            failures.append("a branch point is outside the a-priori bounds")
        target = math.sqrt(self.mu / (3.0 * op["mu1"]))
        if not abs(report["origin_lambda"] - target) < 1e-10:
            failures.append(f"origin lambda {report['origin_lambda']!r} != {target!r}")
        return failures

    def work_units(self, op):
        report = _read_json(op["outdirs"][0] / "branch_report.json")
        return report["n_points"] - 1


class SolutionLift(Workload):
    """make-solution (log family, lmax 63), lift3d (two particle paths),
    stability zonal (k = 1, 2; basis 48): one pipeline per op."""

    name = "solution-lift-l63"
    unit = "pipelines"
    omega = 18.0

    def prepare(self, seed, index, workdir):
        rng = _rng(seed, index)
        eps = float(rng.uniform(0.2, 0.4))
        seeds = [[float(rng.uniform(0.0, 2.0 * math.pi)), float(rng.uniform(-1.0, 1.0)),
                  float(rng.uniform(0.0, 1.0))] for _ in range(2)]
        zonal = {"omega": self.omega, "wavenumbers": [1, 2], "basis_size": 48,
                 "zonal_coefficients": {"1": float(rng.uniform(0.5, 1.5)),
                                        "2": float(rng.uniform(0.5, 1.5))}}
        zonal_path = _write_json(workdir / "zonal.json", zonal)
        outs = [workdir / "solution", workdir / "lift", workdir / "zonal"]
        argvs = [
            ["make-solution", "--family", "log", "--outdir", str(outs[0]),
             "--params", json.dumps({"epsilon": eps, "lmax": 63})],
            ["lift3d", "--omega", repr(self.omega), "--family", "log",
             "--epsilon", repr(eps), "--lmax", "63", "--samples", "16",
             "--seeds", json.dumps(seeds), "--outdir", str(outs[1])],
            ["stability", "zonal", "--config", zonal_path, "--outdir", str(outs[2])],
        ]
        return {"argvs": argvs, "outdirs": outs}

    def check(self, op):
        sol, lift, zonal = op["outdirs"]
        failures = []
        report = _read_json(sol / "residual_report.json")
        if not report["residual_linf"] < 1e-8:
            failures.append(f"residual_linf {report['residual_linf']!r} not below 1e-8")
        if report["stationary"] is not True:
            failures.append("solution is not stationary")
        drifts = _read_json(lift / "trajectory_report.json")["level_drifts"]
        if len(drifts) != 2 or not all(math.isfinite(d) for d in drifts):
            failures.append(f"level drifts {drifts!r} are not two finite numbers")
        spectra = _read_json(zonal / "stability_report.json")["per_wavenumber"]
        if sorted(spectra) != ["1", "2"] or not all(
                math.isfinite(r["pairing_defect"]) for r in spectra.values()):
            failures.append("zonal spectra missing or not finite")
        return failures

    def work_units(self, op):
        return 1


# sim-random-l127 is not in BENCHMARK.json: its three cold set-ups take about
# 20 s of every run, which the run budget cannot pay with 25 s runs.  It stays
# runnable by name for the lmax-127 step-time and peak-RSS checks.
WORKLOADS = {w.name: w for w in (SimWave(), SimRandom(), BifurcateTetra(), SolutionLift())}
