"""Span tracer that times the package's layers from outside.

It replaces each traced function or method with a wrapper that times the
call as a span and charges the span's duration to the enclosing span, and
restores the originals on exit.  A module function is also replaced
wherever another module of the package bound it by name
(`from .sht import ...`), so every call path is seen.  Only aggregates are
kept: per span name the call count, the inclusive time and the self time
(inclusive time minus the time of child spans).
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc

PACKAGE = "rotosphere"

# (span name, module, class name or None, attribute)
TARGETS = [
    ("sht.table_build", "sht", "Transform", "__init__"),
    ("sht.synthesis", "sht", "Transform", "synthesis"),
    ("sht.analysis", "sht", "Transform", "analysis"),
    ("sht.gradient", "sht", "Transform", "gradient_values"),
    ("sht.invert_laplacian", "sht", None, "invert_laplacian"),
    ("sht.rotation_block", "sht", None, "rotation_block"),
    ("sht.rotate", "sht", None, "rotate"),
    ("fields.advection", "fields", None, "advection"),
    ("fields.diagnostics", "fields", None, "diagnostics"),
    ("dynamics.step", "dynamics", None, "step"),
    ("dynamics.run", "dynamics", None, "run"),
    ("snapshot.write", "snapshot", None, "write_snapshot"),
    ("snapshot.write", "snapshot", None, "write_snapshot_json"),
    ("bifurcation.build_subspace", "bifurcation", None, "build_subspace"),
    ("bifurcation.jacobian", "bifurcation", "ContinuationProblem", "jacobian"),
    ("bifurcation.residual", "bifurcation", "ContinuationProblem", "residual"),
    ("bifurcation.continue_branch", "bifurcation", None, "continue_branch"),
    ("solutions.make", "solutions", None, "make_rossby_haurwitz"),
    ("solutions.make", "solutions", None, "make_log_solution"),
    ("solutions.make", "solutions", None, "make_exp_solution"),
    ("solutions.verify_stationary", "solutions", None, "verify_stationary"),
    ("stability.zonal_spectrum", "stability", None, "zonal_operator_spectrum"),
    ("stratosphere.lift", "stratosphere", None, "lift_solution"),
    ("stratosphere.particle_paths", "stratosphere", None, "particle_paths"),
    ("cli.main", "cli", None, "main"),
]

# span names whose wrapper also measures the bytes the call leaves allocated
ALLOC_SPANS = {"sht.table_build"}
# span names whose first argument is a file the call writes; its size is summed
FILE_SPANS = {"snapshot.write"}

SPAN_NAMES = list(dict.fromkeys(name for name, *_ in TARGETS))


class Stats:
    __slots__ = ("calls", "total_s", "self_s", "retained_bytes", "file_bytes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.retained_bytes = 0
        self.file_bytes = 0


class Tracer:
    """Context manager: wraps every target on entry, restores on exit.

    `stats` accumulates across entries, so one tracer can cover many ops.
    """

    def __init__(self):
        self.stats = {name: Stats() for name in SPAN_NAMES}
        self._stack: list[list] = []  # [start, seconds in child spans]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        measure_alloc = name in ALLOC_SPANS
        measure_file = name in FILE_SPANS

        def wrapper(*args, **kwargs):
            started_tm = measure_alloc and not tracemalloc.is_tracing()
            if started_tm:
                tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0] if measure_alloc else 0
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                stack.pop()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if measure_alloc:
                    stats.retained_bytes += tracemalloc.get_traced_memory()[0] - base
                    if started_tm:
                        tracemalloc.stop()
                if measure_file and os.path.exists(args[0]):
                    stats.file_bytes += os.path.getsize(args[0])

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, module, cls, attr in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{module}"]
            if cls is not None:
                owner = getattr(mod, cls)
                orig = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(name, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig)
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is orig:
                        self._patch(other, key, wrapper)
        return self

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)
        self._stack.clear()
        return False
