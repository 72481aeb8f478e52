#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 benchmarks/selftest.py

Checks that (1) a corrupted output fails the correctness gate and is
counted as a failed op, (2) the tracer restores every function it wraps,
also when the traced code raises, and (3) the same seed generates
byte-identical inputs while another seed does not.  Runs a few small CLI
ops; exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

from rotosphere import sht, snapshot  # noqa: E402

from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS, SimWave  # noqa: E402

WORK = run.WORKDIR / "selftest"


def check_corrupted_output_fails() -> list[str]:
    problems = []
    runner = run.Runner(SimWave(), seed=7)
    runner.opdir = WORK / "gate"
    op = runner.prepare()
    runner.execute(op)
    if not runner.verify(op):
        return [f"the untouched op already fails: {runner.failures}"]

    outdir = op["outdirs"][0]
    final = sorted(outdir.glob("snapshot_*.shc"))[-1]
    field, t = snapshot.read_snapshot(final)
    original = final.read_bytes()
    field.set(2, 1, field.get(2, 1) * complex(0.99995, 0.01))  # 0.01 rad phase error
    field.enforce_reality()
    snapshot.write_snapshot(final, field, time=t)
    if not runner.workload.check(op):
        problems.append("a perturbed final snapshot passed the phase check")
    final.write_bytes(original)

    report_path = outdir / "report.json"
    report = json.loads(report_path.read_text())
    report["drift"]["energy_rel_drift"] = 1e-3
    report_path.write_text(json.dumps(report))
    if runner.verify(op) or runner.failed != 1:
        problems.append("an energy drift of 1e-3 was not counted as a failed op")

    op["codes"] = [3]
    if runner.verify(op) or runner.failed != 2:
        problems.append("a non-zero exit code was not counted as a failed op")
    return problems


def _bindings() -> dict:
    """Every name bound in the package's modules and traced classes."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key == "rotosphere" or key.startswith("rotosphere."):
            out.update({(key, k): v for k, v in vars(module).items()})
    for _name, module, cls, _attr in TARGETS:
        if cls is not None:
            owner = getattr(sys.modules[f"rotosphere.{module}"], cls)
            out.update({(module, cls, k): v for k, v in vars(owner).items()})
    return out


def check_tracer_restores() -> list[str]:
    before = _bindings()
    tracer = Tracer()
    try:
        with tracer:
            if sht.rotate is before[("rotosphere.sht", "rotate")]:
                return ["entering the tracer did not wrap sht.rotate"]
            sht.rotate(sht.SpectralField.zeros(2), sht.RotationSpec(0.1, 0.2, 0.3))
            raise RuntimeError("raised inside the traced block")
    except RuntimeError:
        pass
    after = _bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    problems = [f"not restored: {key}" for key in changed]
    if tracer.stats["sht.rotate"].calls != 1:
        problems.append("the traced sht.rotate call was not recorded")
    return problems


def _inputs(workload, seed: int, index: int, where: Path) -> tuple[list, dict]:
    shutil.rmtree(where, ignore_errors=True)
    where.mkdir(parents=True)
    op = workload.prepare(seed, index, where)
    argvs = [[a.replace(str(where), "<dir>") for a in argv] for argv in op["argvs"]]
    files = {p.name: p.read_bytes() for p in where.iterdir() if p.is_file()}
    return argvs, files


def check_seeded_inputs() -> list[str]:
    problems = []
    for name, workload in WORKLOADS.items():
        first = _inputs(workload, 5, 3, WORK / "a")
        again = _inputs(workload, 5, 3, WORK / "b")
        other = _inputs(workload, 6, 3, WORK / "c")
        if first != again:
            problems.append(f"{name}: the same seed gave different inputs")
        if first == other:
            problems.append(f"{name}: another seed gave the same inputs")
    return problems


def main() -> int:
    checks = [
        ("corrupted output fails the gate", check_corrupted_output_fails),
        ("tracer restores every wrapped function", check_tracer_restores),
        ("same seed gives identical inputs", check_seeded_inputs),
    ]
    failed = 0
    try:
        for label, check in checks:
            problems = check()
            failed += bool(problems)
            print(f"{'FAIL' if problems else 'PASS'}  {label}")
            for problem in problems:
                print(f"      {problem}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        run.remove_if_empty(run.WORKDIR)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
