"""Pieces shared by the benchmark's parent process, workload process and
traced command-line shim.

Nothing here imports numpy or widthlab: the workload process must pin the
BLAS and OpenMP thread counts before numpy is first imported.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# The box has 2 cores; every process the benchmark starts runs its linear
# algebra on one thread so timings do not depend on scheduling.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Environment variable carrying the parent's time.time() at spawn, so a child
# can report how long the interpreter took to reach its first line.
SPAWN_ENV = "WIDTHBENCH_SPAWN_T"


def child_env(spawn_t: float | None = None) -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    if spawn_t is not None:
        env[SPAWN_ENV] = repr(spawn_t)
    return env


def import_widthlab_timed() -> tuple:
    """Import numpy, scipy.linalg and widthlab in that order, timing each.

    Returns ``(widthlab module, {"numpy_ms", "scipy_ms", "widthlab_ms"})``.
    widthlab imports the other two itself; importing them first attributes
    their cost to them rather than to widthlab.
    """
    import time

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import scipy.linalg  # noqa: F401
    t2 = time.perf_counter()
    import widthlab
    import widthlab.cli  # noqa: F401
    t3 = time.perf_counter()
    origin = Path(widthlab.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"widthlab was imported from {origin}, not from {SRC}")
    return widthlab, {
        "numpy_ms": (t1 - t0) * 1e3,
        "scipy_ms": (t2 - t1) * 1e3,
        "widthlab_ms": (t3 - t2) * 1e3,
    }


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[min(rank, n) - 1]


def write_matrix_file(path, a) -> None:
    """The shared matrix text format, written without widthlab: a
    ``rows cols`` header, then one line per row of 17-significant-digit
    decimals."""
    rows = [f"{len(a)} {len(a[0])}"]
    rows += [" ".join(f"{float(x):.17g}" for x in row) for row in a]
    Path(path).write_text("\n".join(rows) + "\n", encoding="ascii")
