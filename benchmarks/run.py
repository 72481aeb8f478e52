#!/usr/bin/env python3
"""Closed-loop benchmark of the rotosphere command line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
`src/` of that checkout, never from an installed copy.  One process, one
operation at a time, no extra threads; BLAS keeps its default thread count,
which is recorded.  Every op drives `rotosphere.cli.main(argv)` in-process
on inputs generated from `--seed`, and every op's output passes the
workload's correctness gate or counts as failed.

--trace 0 prints the end-to-end metrics, measured untraced.  Op time and
throughput are given in units of a fixed reference kernel (machine.py)
timed around each op, because the shared host's speed drifts by 20% or more
over minutes; the same figures in seconds are on the `# run` line.  --trace 1
wraps the package's layer functions (see tracer.py) and prints per-layer
metrics plus the tracing overhead.  The last line of standard output is the
JSON result; the lines before it describe the machine and the samples.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

# Set-up is repeated this many times per untraced run and its median reported.
SETUP_REPEATS = 3


def remove_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:
        pass


def _dir_bytes(paths) -> int:
    return sum(f.stat().st_size for p in paths if p.exists() for f in p.rglob("*") if f.is_file())


class Runner:
    """Runs ops of one workload and keeps the tallies of the result line."""

    def __init__(self, workload, seed: int):
        from rotosphere import cli, sht

        self.cli = cli
        self.sht = sht
        self.workload = workload
        self.seed = seed
        self.opdir = WORKDIR / workload.name
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.next_index = 0

    def prepare(self) -> dict:
        """Input generation for the next op; not part of the op's time."""
        shutil.rmtree(self.opdir, ignore_errors=True)
        self.opdir.mkdir(parents=True)
        op = self.workload.prepare(self.seed, self.next_index, self.opdir)
        self.next_index += 1
        return op

    def _main(self, argv) -> int:
        try:
            return self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaping exception is a failed op, as in a shell
            self.failures.append(f"op {self.next_index - 1}: {traceback.format_exc()}")
            return 1

    def execute(self, op: dict) -> float:
        """Run the op's CLI calls; returns their wall time in seconds."""
        gc.collect()
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            codes = [self._main(argv) for argv in op["argvs"]]
        elapsed = time.perf_counter() - start
        op["codes"] = codes
        return elapsed

    def verify(self, op: dict) -> bool:
        """Count the op and apply the workload's gate."""
        self.attempted += 1
        if any(code != 0 for code in op["codes"]):
            problems = [f"exit codes {op['codes']}"]
        else:
            try:
                problems = self.workload.check(op)
            except (OSError, LookupError, TypeError, ValueError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failed += 1
            self.failures.extend(f"op {self.next_index - 1}: {p}" for p in problems)
        return not problems

    def cold_op(self, import_s: float, tracer=None) -> float:
        """Set-up: fresh transform cache, input generation, one untimed op."""
        self.sht.get_transform.cache_clear()
        gc.collect()
        start = time.perf_counter()
        op = self.prepare()
        with tracer if tracer is not None else contextlib.nullcontext():
            self.execute(op)
        setup = import_s + time.perf_counter() - start
        self.verify(op)
        return setup


def run_untraced(runner: Runner, seconds: float, import_s: float) -> tuple[dict, dict]:
    from machine import reference_s

    # Each set-up is followed by its share of the timed ops, so the warm
    # samples are spread over the whole run rather than one stretch of it.
    # The reference kernel runs before and after every warm op; the op's
    # time in units of the kernel's mean time there is its *_ref sample.
    setups, samples, ratios, refs, units = [], [], [], [], 0
    reference_s()  # first call pays page faults and lazy BLAS set-up
    for _ in range(SETUP_REPEATS):
        setups.append(runner.cold_op(import_s))
        deadline = time.perf_counter() + seconds / SETUP_REPEATS
        ref_before = reference_s()
        while True:
            op = runner.prepare()
            elapsed = runner.execute(op)
            ref_after = reference_s()
            samples.append(elapsed)
            ratios.append(2.0 * elapsed / (ref_before + ref_after))
            refs.append(ref_after)
            ref_before = ref_after
            if runner.verify(op):
                units += runner.workload.work_units(op)
            if time.perf_counter() >= deadline:
                break
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "op_p50_ref": (statistics.median(ratios), "ref"),
        "throughput_per_ref": (units / sum(ratios), "1/ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    info = {"op_count": len(samples), "op_p50_s": statistics.median(samples),
            "throughput_per_s": units / sum(samples), "ref_p50_s": statistics.median(refs),
            "op_samples": samples, "setup_samples": setups,
            "work_unit": runner.workload.unit, "work_units": units}
    return metrics, info


def run_traced(runner: Runner, seconds: float, import_s: float) -> tuple[dict, dict]:
    from tracer import SPAN_NAMES, Tracer

    cold = Tracer()
    runner.cold_op(import_s, cold)
    warm = Tracer()
    sht = runner.sht
    traced, untraced, out_bytes, units = [], [], 0, 0
    hits = misses = 0
    deadline = time.perf_counter() + seconds
    # alternate untraced and traced ops so drift on the host hits both alike
    while len(traced) < 1 or len(untraced) < 1 or time.perf_counter() < deadline:
        op = runner.prepare()
        if len(untraced) <= len(traced):
            untraced.append(runner.execute(op))
            runner.verify(op)
            continue
        before = sht.get_transform.cache_info()
        with warm:
            traced.append(runner.execute(op))
        after = sht.get_transform.cache_info()
        hits += after.hits - before.hits
        misses += after.misses - before.misses
        out_bytes += _dir_bytes(op["outdirs"])
        if runner.verify(op):
            units += runner.workload.work_units(op)

    n = len(traced)
    metrics = {}
    for name in SPAN_NAMES:
        st = warm.stats[name]
        metrics[f"{name}.calls"] = (st.calls / n, "count/op")
        metrics[f"{name}.self_s"] = (st.self_s / n, "s/op")
    build = cold.stats["sht.table_build"]
    metrics["sht.table_build.cold_calls"] = (build.calls, "count")
    metrics["sht.table_build.cold_s"] = (build.self_s, "s")
    metrics["sht.table_mib"] = (build.retained_bytes / 2**20 / max(build.calls, 1), "MiB")
    metrics["sht.cache_hits"] = (hits / n, "count/op")
    metrics["sht.cache_misses"] = (misses / n, "count/op")
    metrics["snapshot.write.bytes"] = (warm.stats["snapshot.write"].file_bytes / n, "B/op")
    metrics["cli.output_bytes"] = (out_bytes / n, "B/op")
    jac = warm.stats["bifurcation.jacobian"].calls
    metrics["bifurcation.jacobians_per_point"] = (jac / units if units else 0.0, "count")
    step = warm.stats["dynamics.step"]
    metrics["dynamics.step.ms_per_call"] = (
        1e3 * step.total_s / step.calls if step.calls else 0.0, "ms")
    main = warm.stats["cli.main"]
    wall = sum(traced)
    metrics["cli.unattributed_share"] = ((main.self_s + wall - main.total_s) / wall, "ratio")
    traced_p50, untraced_p50 = statistics.median(traced), statistics.median(untraced)
    metrics["trace.op_p50_s"] = (traced_p50, "s")
    metrics["trace.untraced_op_p50_s"] = (untraced_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    info = {"traced_ops": n, "untraced_ops": len(untraced), "work_unit": runner.workload.unit,
            "work_units_traced": units}
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rotosphere" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'rotosphere'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import rotosphere.cli  # noqa: F401  (the import is part of set-up time)
    import_s = time.perf_counter() - start
    if not Path(rotosphere.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: rotosphere imported from {rotosphere.cli.__file__}", file=sys.stderr)
        return 2

    import machine
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    runner = Runner(WORKLOADS[args.workload], args.seed)
    steal_start, total_start = machine.cpu_ticks()
    try:
        if args.trace:
            metrics, info = run_traced(runner, args.seconds, import_s)
        else:
            metrics, info = run_untraced(runner, args.seconds, import_s)
    finally:
        shutil.rmtree(runner.opdir, ignore_errors=True)
        remove_if_empty(WORKDIR)

    steal_end, total_end = machine.cpu_ticks()
    info.update({"workload": args.workload, "seed": args.seed, "import_s": import_s,
                 "cpu_steal_share": (steal_end - steal_start) / max(total_end - total_start, 1),
                 "failed_op_ratio": runner.failed / runner.attempted,
                 "failures": runner.failures[:20]})
    print("# machine " + json.dumps(machine.facts(ROOT), sort_keys=True))
    print("# run " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
