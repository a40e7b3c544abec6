"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of a core drifts by 20-30% over seconds to
minutes with the load of other tenants (measured on a 2-vCPU VM: the same
``reference`` operation took 0.11 to 0.22 s, and its CPU time moved with
its wall time, so the core itself ran slower, not this process less
often). A run's median then says more about the hour it ran in than about
the program.

The benchmark therefore times a fixed kernel that does not touch the
package: a small-array numpy loop (interpreter and ufunc overhead, like the
integrator's steps), a chain of 160 x 160 matrix products (BLAS, like the
dense Laplacian products) and a 60 x 60 eigenvalue solve (LAPACK, like the
pinning diagnostic). It runs between operations, and each operation's wall
time is scaled by ``REFERENCE_S`` over the median kernel time around it.
A scaled time reads as seconds on a core running at the speed at which the
kernel takes ``REFERENCE_S``; a change to the program moves it, the speed
of the machine at the moment of the run largely does not. Raw wall times
are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's median time on the machine the benchmark was written on
# (2-vCPU Intel Xeon VM, numpy 2, one OpenBLAS thread).
REFERENCE_S = 0.0105
# Kernel samples on each side of an operation that set its speed factor.
WINDOW = 3

_rng = np.random.default_rng(12345)
_VEC = _rng.standard_normal(18)
_MIX = np.eye(18) * 0.5 + 0.01 * _rng.standard_normal((18, 18))
_DENSE = _rng.standard_normal((160, 160)) / 160.0
_SQUARE = _rng.standard_normal((60, 60))


def kernel() -> float:
    """Run the fixed kernel once; return its wall time."""
    t0 = time.perf_counter()
    x = _VEC.copy()
    acc = 0.0
    for _ in range(1500):
        x = _MIX @ x + 1e-3 * np.tanh(x)
        acc += float(x[3])
    y = _DENSE
    for _ in range(6):
        y = _DENSE @ y
        y /= np.abs(y).max()
    np.linalg.eigvals(_SQUARE)
    return time.perf_counter() - t0


def settled_median(samples: int = 5) -> float:
    """Median kernel time after one unrecorded pass (first BLAS calls are slow)."""
    kernel()
    return statistics.median(kernel() for _ in range(samples))


class Speed:
    """Kernel times taken between operations, and the scaling they give.

    Call ``sample()`` once before the first timed operation and once after
    each; sample ``i`` then precedes operation ``i`` and sample ``i + 1``
    follows it.
    """

    def __init__(self) -> None:
        settled_median(3)
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(kernel())

    def factor(self, i: int) -> float:
        """``REFERENCE_S`` over the median kernel time around operation ``i``."""
        around = self.samples[max(0, i + 1 - WINDOW): i + 1 + WINDOW]
        return REFERENCE_S / statistics.median(around)

    def scale(self, walls: list[float]) -> list[float]:
        if len(self.samples) != len(walls) + 1:
            raise ValueError("one kernel sample before the first operation and one after each")
        return [wall * self.factor(i) for i, wall in enumerate(walls)]
