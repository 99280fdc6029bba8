"""A reference kernel that measures how fast the machine runs, pass by pass.

The benchmark runs on shared hosts whose speed wanders by tens of percent,
over seconds and over whole runs, as other tenants contend for the cores
and caches.  The kernel below does a fixed amount of work with the same
mix as duralign (an interpreted loop over small numpy arrays, and float
formatting into text), and never calls duralign.  A ``Gauge`` runs it
between the operations of a pass, outside their timings, and the pass's
times are scaled by ``REFERENCE_S / mean kernel time``: a change in
machine speed moves the kernel and the pass alike and cancels, while a
change in duralign moves the pass alone and shows in full.

The kernel must have the process to itself: if other threads ran during it
(say, a pool left working by the program), the scaling would be wrong, so
a gauge also adds up the CPU time other threads took meanwhile, and the
run is marked incorrect when that is more than a few percent.
"""

from __future__ import annotations

from time import perf_counter, process_time, thread_time

import numpy as np

# Kernel time in a pass on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4) at its fastest;
# scaled figures read as seconds on a machine running that fast.
REFERENCE_S = 0.001
LOOP_ITERATIONS = 120
OTHER_THREADS_MAX = 0.05  # CPU time of other threads, as a share of the kernel's

_rng = np.random.default_rng(0x5EED)
_VEC = _rng.random(14)
_MAT = _rng.random((14, 14))
_GRID = _rng.random((4, 64))


def _work() -> int:
    x = _VEC
    for _ in range(LOOP_ITERATIONS):
        y = np.cumsum(x * 0.5 + 0.1)
        x = _MAT @ (y / y[-1])
    lines = [f"{t},{n},{float(p)!r}" for t, row in enumerate(_GRID) for n, p in enumerate(row)]
    return len("\n".join(lines)) + int(x[0] > 0)


class Gauge:
    """Kernel runs of one pass (or one set-up): their total wall time and
    the CPU time of the process's other threads while they ran."""

    def __init__(self):
        self.seconds = 0.0
        self.runs = 0
        self.own_cpu = 0.0
        self.other_cpu = 0.0

    def sample(self) -> None:
        # An untimed run first brings the kernel's code and data back into
        # the caches, so that the timed run does not depend on how much of
        # them the operation before it evicted.
        _work()
        c0, th0 = process_time(), thread_time()
        t0 = perf_counter()
        _work()
        self.seconds += perf_counter() - t0
        own = thread_time() - th0
        self.own_cpu += own
        self.other_cpu += max(0.0, process_time() - c0 - own)
        self.runs += 1

    def kernel_s(self) -> float:
        """Mean time of one kernel run."""
        return self.seconds / self.runs

    def scale(self) -> float:
        """Factor that takes times measured alongside to the reference speed."""
        return REFERENCE_S / self.kernel_s()

    def shared(self) -> bool:
        """True if other threads took more than OTHER_THREADS_MAX of the
        kernel's CPU time while it ran."""
        return self.other_cpu > OTHER_THREADS_MAX * self.own_cpu
