"""Machine speed, measured by a fixed kernel that uses no semifem code.

On a shared VM the same call can take 1.4 to 1.9 times longer in one
minute than in the next, because other tenants slow the CPU; the process's
CPU time grows with its wall time, so neither shows the change. The
benchmark therefore also times this kernel, and scales each timed
interval to the reference speed:

    time at reference speed = seconds * REFERENCE_S * mean(1 / kernel time)

over kernel times taken during the interval (`Sampler`) or right before
and after it (`Calibration.measure`).

The kernel mixes what the workloads spend their time on: CSR matvecs with
vector updates (CG) on a small matrix that stays in the core's caches and
on a large one (160 000 rows, as at level 8) that does not, sorting and
`unique` on integer arrays (refinement), a `bincount` scatter (assembly)
and a loop of interpreted Python. Other tenants slow these parts by
different amounts; the mix tracks both workloads. Its inputs are fixed, so
its time depends on the machine alone.

Import this module after `env.prepare()`: it imports numpy.
"""

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

# Kernel time, in seconds, that counts as reference speed. On a 2-CPU Intel
# Xeon VM with Python 3.11, numpy 2.4 and scipy 1.17 the kernel takes 11 to
# 22 ms as the machine's speed drifts. Only ratios of scaled times matter.
REFERENCE_S = 0.02
REPEATS = 5
SAMPLE_INTERVAL_S = 0.5


def scaled(seconds, kernel_times):
    """`seconds` at reference speed, the machine's speed given by kernel times."""
    return seconds * REFERENCE_S * statistics.fmean(1.0 / k for k in kernel_times)


def laplacian(grid):
    """Five-point Laplacian on a grid x grid lattice, in CSR."""
    ones = np.ones(grid * grid)
    return sp.diags([4 * ones, -ones[1:], -ones[1:], -ones[grid:], -ones[grid:]],
                    [0, 1, -1, grid, -grid], format="csr")


def power_steps(matrix, p, steps):
    """Power iteration: a matvec and vector updates a step, finite however long it runs."""
    for _ in range(steps):
        q = matrix @ p
        p = q / np.sqrt(q @ q)
    return p


class Timings:
    """Timed intervals as measured and at reference speed."""

    def __init__(self):
        self.raw, self.scaled = [], []

    def add(self, seconds, kernel_times):
        self.raw.append(seconds)
        self.scaled.append(scaled(seconds, kernel_times))


class Calibration:
    """The kernel's inputs, built once."""

    def __init__(self, seed=20241111):
        rng = np.random.default_rng(seed)
        self.large = laplacian(400)
        self.large_vector = rng.random(self.large.shape[0])
        self.small = laplacian(120)
        n = self.small.shape[0]
        self.small_vector = rng.random(n)
        self.keys = rng.integers(0, n, size=(n // 4, 2))
        self.weights = rng.random(n // 4)
        self.loop = 25000

    def kernel(self):
        """One run of the kernel; returns its time in seconds."""
        start = time.perf_counter()
        power_steps(self.large, self.large_vector, 4)
        power_steps(self.small, self.small_vector, 50)
        pairs = np.sort(self.keys, axis=1)
        np.unique(pairs[:, 0] * len(self.small_vector) + pairs[:, 1])
        np.bincount(self.keys[:, 0], weights=self.weights, minlength=len(self.small_vector))
        total = 0
        for i in range(self.loop):
            total += i * i
        return time.perf_counter() - start

    def measure(self):
        """Median kernel time over REPEATS runs, for use before or after an interval."""
        return statistics.median(self.kernel() for _ in range(REPEATS))


class Sampler:
    """Kernel times taken every SAMPLE_INTERVAL_S seconds while a block runs.

    SIGALRM runs the kernel in the main thread between bytecodes, so the
    block pauses while the kernel runs; `spent` is the time it paused.
    """

    def __init__(self, calibration):
        self.calibration = calibration
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        elapsed = self.calibration.kernel()
        self.samples.append(elapsed)
        self.spent += elapsed

    @contextmanager
    def sampling(self):
        """Sample during the block; the samples and the pause replace the previous ones."""
        self.samples, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
