"""A fixed reference computation that measures how fast the machine is now.

Shared machines change speed by tens of percent for minutes at a time, more
than the regressions the benchmark must catch.  The benchmark times this
reference next to every run and set-up and reports times corrected to the
reference speed:

    corrected = measured * REFERENCE_S / (reference seconds around it)

The reference uses numpy and scipy the way the cover loops do (small kernel
blocks with triangular solves, called from Python) but none of gpbandit, so
no change to the package can move it.  It holds no bulk arrays: their cost
depends on the allocator's history in the process, not only on the machine.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.linalg import solve_triangular

# Seconds one reference takes at the speed corrected times are quoted at
# (near its median on a 2-core x86-64 VM, Python 3.11, numpy 2.4, scipy 1.17).
REFERENCE_S = 0.05


def _kernel_block(xs: np.ndarray, ys: np.ndarray, chol: np.ndarray) -> np.ndarray:
    diff = xs[:, None, :] - ys[None, :, :]
    r = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)) / 0.2
    c = np.sqrt(5.0) * r
    k = (1.0 + c + c * c / 3.0) * np.exp(-c)
    v = solve_triangular(chol, k, lower=True)
    return np.sqrt(np.clip(1.0 - np.einsum("ij,ij->j", v, v), 0.0, None))


class Reference:
    """Fixed inputs, built once; `seconds()` times one pass over them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.block = (rng.uniform(size=(20, 3)), rng.uniform(size=(12, 3)),
                      np.tril(rng.uniform(size=(20, 20))) + 20.0 * np.eye(20))

    def seconds(self) -> float:
        t0 = perf_counter()
        best = {}
        for i in range(1200):
            s = _kernel_block(*self.block)
            best[i % 7] = max(best.get(i % 7, 0.0), float(s[i % 12]))
        return perf_counter() - t0
