"""Host speed, measured around every timed call with fixed reference kernels.

On a shared host the speed of a core moves between levels 1.5-2x apart, and
a level can hold for seconds or for whole minutes. The drift moves CPU time
as much as wall time, so runs of the same code minutes apart differ by far
more than any bound worth setting. The benchmark therefore runs short fixed
kernels right before and right after each timed call, and reports the call's
time divided by the mean of the two slowdowns (kernel time over its time on
the reference host): the time the call would take at reference speed.

The kernels run no ``unn_csi`` code and use only fixed operands, so a change
to the program does not move them: a program that gets 10% slower reads 10%
slower. Each workload weights the kernels by the kind of work it does
(``host_weights`` on the workload classes). The raw times are printed and
recorded next to the scaled ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((16, 16)).astype(np.float32)
_MATRIX = _RNG.standard_normal((256, 256)).astype(np.float32)
_VECTOR = _RNG.standard_normal(1_000_000).astype(np.float32)


def _interpreter():
    """Pure-Python integer loop: interpreter speed."""
    s = 0
    for i in range(20_000):
        s += i * i
    return s


def _small_arrays():
    """Many numpy calls on 16x16 arrays: per-call dispatch, as in the
    desk-scale fits."""
    x = _SMALL
    for _ in range(200):
        x = np.tanh(x @ _SMALL * 0.1) + _SMALL
    return x


def _large_arrays():
    """A BLAS matmul and an MB-sized elementwise pass, as in the full-scale
    fits."""
    _MATRIX @ _MATRIX
    np.maximum(_VECTOR, 0).sum()


# kernel -> (function, its median seconds on the 2-vCPU host the
# benchmark's bounds were set on, so that scaled times read close to raw
# ones there)
KERNELS = {
    "interpreter": (_interpreter, 0.0018),
    "small_arrays": (_small_arrays, 0.0012),
    "large_arrays": (_large_arrays, 0.0019),
}


class HostSpeed:
    """Kernel timings of one run, taken around each timed call."""

    def __init__(self, weights: dict):
        self.weights = weights  # kernel -> weight, from the workload
        self.samples: list = []  # weighted slowdown of each sample

    def slowdown(self) -> float:
        """Run the weighted kernels now; how many times slower than on the
        reference host they ran, as the weighted mean over kernels."""
        total = 0.0
        for name, weight in self.weights.items():
            fn, reference_s = KERNELS[name]
            t0 = perf_counter()
            fn()
            total += weight * (perf_counter() - t0) / reference_s
        self.samples.append(total / sum(self.weights.values()))
        return self.samples[-1]
