"""Host fingerprint attached to every benchmark result.

Timings from different machines are not comparable, so every result names
the host it was measured on: CPU model, visible cores, interpreter and
numpy versions, the BLAS numpy links, the thread pinning in force, the load
average, and a fixed numpy calibration micro-benchmark that lets rows from
two hosts be normalised against each other.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

#: Thread-pool variables the benchmark pins to one thread in every worker.
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def visible_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def blas_vendor() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"


def calibration_ms(repeats: int = 7) -> float:
    """Median wall of a fixed numpy kernel mix: sort, matmul, elementwise.

    The inputs are fixed, so on one host the figure moves only with the
    machine's speed and load; the ratio of two hosts' figures normalises
    their rows.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    values = rng.random(200_000)
    matrix = rng.random((128, 128))
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.sort(values)
        matrix @ matrix
        np.exp(values).sum()
        np.cumsum(values)
        walls.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(walls)


def fingerprint() -> dict:
    """The fingerprint of the current process's host (imports numpy)."""
    import numpy as np

    return {
        "cpu_model": cpu_model(),
        "nproc": visible_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_vendor(),
        "threads": {name: os.environ.get(name, "") for name in THREAD_VARIABLES},
        "calibration_ms": round(calibration_ms(), 4),
    }
