"""Host-speed calibration for the end-to-end times.

A shared host gives this process more or less CPU throughput for minutes at
a time: on the 2-core Xeon virtual machine the figures in ``README.md`` come
from, the same request stream ran 20% faster or slower from one minute to
the next, with the other core idle.  No estimator inside one run removes a
drift that lasts longer than the run.

So the benchmark times fixed kernels between requests.  They use neither
``pslet2d`` nor anything a change to the repository can touch.  Each kernel
stands for one kind of work the requests do, and the host slows each kind by
a different amount:

- ``interpreter``: small numpy arrays and an interpreted expression-tree
  walk, like the expansion's geometry, jets and hierarchy;
- ``lapack``: the lowest eigenvalue of a 4000-cell tridiagonal matrix, like
  the finite-difference oracle.

A workload's mix gives the share of its request time that each kind takes
on the reference host.  ``Meter.speed`` is the reference time of that mix
over its measured time, so it is below 1 while the host is slow, and request
times multiplied by it are the times at the reference speed.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

_TREE = ("+", ("*", "x", ("c", 2.0)), ("/", ("c", 1.0), ("+", "x", ("c", 3.0))))


def _walk(node, env):
    if node == "x":
        return env["x"]
    op = node[0]
    if op == "c":
        return node[1]
    left, right = _walk(node[1], env), _walk(node[2], env)
    if op == "+":
        return left + right
    if op == "*":
        return left * right
    return left / right


def interpreter(reps: int = 40) -> float:
    a = np.linspace(0.1, 1.0, 16)
    acc = 0.0
    for _ in range(reps):
        b = np.convolve(a, a)[:16]
        c = np.cumsum(b * a) / (1.0 + np.abs(b))
        acc += float(c[-1]) + float(np.dot(c, a))
        for k in range(20):
            acc += _walk(_TREE, {"x": 0.5 + 0.01 * k}) + math.sqrt(k + 1.0)
    return acc


def lapack(cells: int = 4000) -> float:
    h = 20.0 / cells
    x = (np.arange(1, cells + 1) - 0.5) * h
    diag = 2.0 / h**2 - 2.0 / x + 0.25 * x**2
    off = np.full(cells - 1, -1.0 / h**2)
    return float(eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0])


# Mean time (s) of each kernel on the reference host (2-core Xeon virtual
# machine, Python 3.11.7).  They only fix the scale of the scaled times; any
# constants would do, as long as they stay the same.
KERNELS = {"interpreter": (interpreter, 2.4e-3), "lapack": (lapack, 2.1e-3)}


class Meter:
    """Times the kernels of one work mix ({kernel name: share}) on demand.

    Each call of ``sample`` adds one slowdown: the mix's measured time over
    its reference time.
    """

    def __init__(self, mix: dict[str, float], warmup: int = 20):
        self.mix = mix
        self.slowdowns: list[float] = []
        for name in mix:
            for _ in range(warmup):
                KERNELS[name][0]()

    def sample(self) -> None:
        slowdown = 0.0
        for name, share in self.mix.items():
            kernel, ref = KERNELS[name]
            start = time.perf_counter()
            kernel()
            slowdown += share * (time.perf_counter() - start) / ref
        self.slowdowns.append(slowdown)

    @property
    def samples(self) -> int:
        return len(self.slowdowns)

    def speed(self, sample: int | None = None, reach: int = 0) -> float:
        """Host speed relative to the reference: over every sample, or over
        the samples within ``reach`` of sample number ``sample``."""
        if not self.slowdowns:
            self.sample()
        if sample is None:
            near = self.slowdowns
        else:
            sample = min(sample, len(self.slowdowns) - 1)
            near = self.slowdowns[max(0, sample - reach):sample + reach + 1]
        return len(near) / sum(near)
