"""Process environment of the benchmark: BLAS threads, import path, record.

`prepare()` must run before numpy is imported anywhere in the process,
because OpenBLAS reads its thread count once, when it loads.
"""

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One caller drives the library, so BLAS gets one thread (at most nproc).
# With more, OpenBLAS splits dot products across threads, which changes
# their summation order and with it the CG iteration counts, and its idle
# threads spin on CPUs that other processes may need.
BLAS_THREADS = 1


class MissingSourceError(RuntimeError):
    """The checkout holds no `src/semifem` to benchmark."""


def nproc():
    return len(os.sched_getaffinity(0))


def prepare():
    """Fix the BLAS thread count and put the checkout's `src` first on the path."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "semifem" / "__init__.py").is_file():
        raise MissingSourceError(f"no semifem package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_semifem():
    """Import semifem, refusing any copy other than the checkout's own."""
    import semifem

    origin = Path(semifem.__file__).resolve()
    if SRC not in origin.parents:
        raise MissingSourceError(f"semifem was imported from {origin}, not from {SRC}")
    return semifem


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record():
    """Versions and machine facts that a reader needs to compare two runs."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "cpu": cpu_model(),
        "blas_threads": BLAS_THREADS,
        "load": "one process, one workload at a time, closed loop with one caller",
    }
