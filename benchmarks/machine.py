"""Facts about the machine and software a result was measured on."""

from __future__ import annotations

import ctypes
import math
import os
import platform
import time
from pathlib import Path

import numpy as np

# What this benchmark does not measure, and why: it only reads counters that
# an unprivileged process has for itself.
NOT_MEASURED = [
    "hardware counters (cycles, cache misses, memory bandwidth): not read; the benchmark "
    "opens no perf_event counters and relies on no perf tool",
    "CPU frequency and turbo state: not controlled, the host is shared",
    "page-cache state: not dropped between runs",
    "other tenants' load on the shared host",
]

# How each reported count or size was obtained.
PROVENANCE = {
    "*.calls": "counted by the benchmark's tracer at the wrapped function",
    "*.self_s": "measured by the tracer: span time minus child spans",
    "sht.cache_hits/misses": "read from sht.get_transform.cache_info()",
    "sht.table_mib": "measured: tracemalloc bytes retained by each Transform constructor",
    "snapshot.write.bytes": "measured: size of each file snapshot.write produced",
    "cli.output_bytes": "measured: size of every file in the op's output directories",
    "peak_rss_mib": "measured: getrusage(RUSAGE_SELF).ru_maxrss",
    "*_ref": "computed: op wall time over the mean reference_s() just before and after it",
}


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _l3_size() -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in range(8):
        if _read(f"{base}/index{index}/level").strip() == "3":
            return _read(f"{base}/index{index}/size").strip() or "unknown"
    return "unknown"


def _openblas() -> dict:
    """Version and thread count from the OpenBLAS library numpy loaded."""
    libs = sorted({line.split()[-1] for line in _read("/proc/self/maps").splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        info = {"library": os.path.basename(lib)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(handle, f"{prefix}get_config{suffix}", None)
                if get_threads is None:
                    continue
                get_threads.restype = ctypes.c_int
                info["threads"] = int(get_threads())
                if get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    info["config"] = get_config().decode(errors="replace").strip()
                return info
    return {"library": "unknown", "threads": None}


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs so far, from /proc/stat; (0, 0) if unreadable.

    Steal is time the hypervisor ran something else while this VM's vCPUs
    wanted to run; a run with a high share of it was measured on a busy host.
    """
    fields = _read("/proc/stat").split("\n", 1)[0].split()
    if len(fields) < 9 or fields[0] != "cpu":
        return 0, 0
    ticks = [int(x) for x in fields[1:]]
    return ticks[7], sum(ticks[:8])


_REF_MATRIX = np.random.default_rng(0).standard_normal((48, 48))


def reference_s() -> float:
    """Wall time of a fixed reference kernel, about 40 ms on a 2-vCPU VM.

    The host's speed drifts by 20% or more over minutes (frequency and
    neighbours on a shared machine), and that drift moves every timing of a
    run alike.  The kernel mixes, in about equal time, the two kinds of
    work the package does: interpreted scalar code, which tracks the
    particle-path workload best, and small BLAS calls with ufuncs, which
    track the transform workloads best.  It shares no code with the
    package, so an op's time divided by the kernel's time next to it
    cancels the host's speed but keeps every change in the program's own
    cost.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(250_000):
        acc += math.sin(i * 1e-3)
    m = _REF_MATRIX
    for _ in range(400):
        m = np.tanh(m @ _REF_MATRIX * 0.02)
    return time.perf_counter() - start


def _git_commit(root: Path) -> str:
    head = _read(str(root / ".git" / "HEAD")).strip()
    if not head:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    value = _read(str(root / ".git" / ref)).strip()
    if value:
        return value
    for line in _read(str(root / ".git" / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def facts(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l3_cache": _l3_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS") if k in os.environ},
        "git_commit": _git_commit(root),
        "not_measured": NOT_MEASURED,
        "provenance": PROVENANCE,
    }
