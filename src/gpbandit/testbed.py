"""Objective functions with known optima, plus the Gaussian noise channel.

Synthetic targets are kernel expansions f(x) = sum_i a_i k(c_i, x) whose
squared RKHS norm is the quadratic form a^T K a, so the smoothness budget of
each target is exactly computable.  Standard benchmarks (Hartmann, Shekel,
Ackley) are wrapped in maximization orientation and rescaled to the unit box.

All target callables are vectorized: they accept an (m, d) array and return
an (m,) array, or a single d-vector and return a scalar.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernels import KernelSpec, cross_matrix, gram_matrix

STANDARD_FUNCTIONS = ("hartmann3", "shekel", "hartmann6", "ackley10")


def _as_batch(x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


@dataclass
class RkhsFunction:
    """Kernel expansion target with exactly computable smoothness norm."""

    kernel: KernelSpec
    centers: np.ndarray  # (m, d)
    weights: np.ndarray  # (m,)
    rkhs_norm_sq: float
    optimum_value: float
    optimum_point: np.ndarray

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def __call__(self, x):
        xb, single = _as_batch(x)
        vals = cross_matrix(self.kernel, self.centers, xb).T @ self.weights
        return float(vals[0]) if single else vals

    def save(self, path) -> None:
        payload = {
            "kernel": {
                "family": self.kernel.family,
                "lengthscale": self.kernel.lengthscale,
                "nu": self.kernel.nu,
            },
            "centers": self.centers.tolist(),
            "weights": self.weights.tolist(),
            "rkhs_norm_sq": self.rkhs_norm_sq,
            "optimum_value": self.optimum_value,
            "optimum_point": self.optimum_point.tolist(),
        }
        Path(path).write_text(json.dumps(payload, indent=2))

    @classmethod
    def load(cls, path) -> "RkhsFunction":
        payload = json.loads(Path(path).read_text())
        kspec = payload["kernel"]
        kernel = KernelSpec(kspec["family"], kspec["lengthscale"], kspec["nu"])
        return cls(
            kernel=kernel,
            centers=np.asarray(payload["centers"], dtype=float),
            weights=np.asarray(payload["weights"], dtype=float),
            rkhs_norm_sq=float(payload["rkhs_norm_sq"]),
            optimum_value=float(payload["optimum_value"]),
            optimum_point=np.asarray(payload["optimum_point"], dtype=float),
        )


class NoisyOracle:
    """Adds i.i.d. Gaussian noise to a target; one oracle per run."""

    def __init__(self, target, dim: int, noise_stddev: float, rng: np.random.Generator):
        if noise_stddev < 0:
            raise ValueError("noise stddev must be nonnegative")
        self.target = target
        self.dim = dim
        self.noise_stddev = float(noise_stddev)
        self.rng = rng

    def __call__(self, x) -> float:
        value = float(self.target(np.asarray(x, dtype=float)))
        return value + self.rng.normal(0.0, self.noise_stddev)


def estimate_optimum(f, d: int, budget: int, rng: np.random.Generator,
                     n_starts: int = 10, n_rounds: int = 40):
    """Numerical certificate for the maximum of f on the unit box.

    Dense random search followed by shrinking-radius refinement from the top
    starts.  Re-checkable by re-running with a larger budget.
    """
    if budget < 1000:
        raise ValueError("budget must be >= 1000")
    xs = rng.uniform(0.0, 1.0, size=(budget, d))
    vals = np.asarray(f(xs), dtype=float)
    order = np.argsort(vals)[::-1]
    best_val = float(vals[order[0]])
    best_x = xs[order[0]].copy()
    for start in order[:n_starts]:
        x, v = xs[start].copy(), float(vals[start])
        radius = 0.2
        for _ in range(n_rounds):
            probes = np.clip(x + rng.uniform(-radius, radius, size=(16, d)), 0.0, 1.0)
            pv = np.asarray(f(probes), dtype=float)
            i = int(np.argmax(pv))
            if pv[i] > v:
                v, x = float(pv[i]), probes[i].copy()
            radius *= 0.7
        if v > best_val:
            best_val, best_x = v, x
    return best_val, best_x


def make_rkhs_function(kernel: KernelSpec, d: int, m: int, rng: np.random.Generator,
                       optimum_budget: int = 50_000) -> RkhsFunction:
    """Random kernel expansion: uniform centers, uniform [-1, 1] weights."""
    if m < 1:
        raise ValueError("need at least one center")
    centers = rng.uniform(0.0, 1.0, size=(m, d))
    weights = rng.uniform(-1.0, 1.0, size=m)
    K = gram_matrix(kernel, centers)
    norm_sq = float(weights @ K @ weights)
    f = RkhsFunction(kernel, centers, weights, norm_sq, math.nan, np.full(d, math.nan))
    f.optimum_value, f.optimum_point = estimate_optimum(f, d, optimum_budget, rng)
    return f


# ---------------------------------------------------------------------------
# standard benchmarks, maximization orientation, unit-box domains
# ---------------------------------------------------------------------------

_H3_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
_H3_A = np.array([
    [3.0, 10.0, 30.0],
    [0.1, 10.0, 35.0],
    [3.0, 10.0, 30.0],
    [0.1, 10.0, 35.0],
])
_H3_P = 1e-4 * np.array([
    [3689.0, 1170.0, 2673.0],
    [4699.0, 4387.0, 7470.0],
    [1091.0, 8732.0, 5547.0],
    [381.0, 5743.0, 8828.0],
])

_H6_ALPHA = _H3_ALPHA
_H6_A = np.array([
    [10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
    [0.05, 10.0, 17.0, 0.1, 8.0, 14.0],
    [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
    [17.0, 8.0, 0.05, 10.0, 0.1, 14.0],
])
_H6_P = 1e-4 * np.array([
    [1312.0, 1696.0, 5569.0, 124.0, 8283.0, 5886.0],
    [2329.0, 4135.0, 8307.0, 3736.0, 1004.0, 9991.0],
    [2348.0, 1451.0, 3522.0, 2883.0, 3047.0, 6650.0],
    [4047.0, 8828.0, 8732.0, 5743.0, 1091.0, 381.0],
])

_SHEKEL_BETA = 0.1 * np.array([1.0, 2.0, 2.0, 4.0, 4.0, 6.0, 3.0, 7.0, 5.0, 5.0])
_SHEKEL_C = np.array([
    [4.0, 1.0, 8.0, 6.0, 3.0, 2.0, 5.0, 8.0, 6.0, 7.0],
    [4.0, 1.0, 8.0, 6.0, 7.0, 9.0, 3.0, 1.0, 2.0, 3.6],
    [4.0, 1.0, 8.0, 6.0, 3.0, 2.0, 5.0, 8.0, 6.0, 7.0],
    [4.0, 1.0, 8.0, 6.0, 7.0, 9.0, 3.0, 1.0, 2.0, 3.6],
])


def _hartmann(x, A, P, alpha):
    xb, single = _as_batch(x)
    inner = np.einsum("ij,kij->ki", A, (xb[:, None, :] - P[None, :, :]) ** 2)
    vals = np.exp(-inner) @ alpha
    return float(vals[0]) if single else vals


def _hartmann3(x):
    return _hartmann(x, _H3_A, _H3_P, _H3_ALPHA)


def _hartmann6(x):
    return _hartmann(x, _H6_A, _H6_P, _H6_ALPHA)


def _shekel(x):
    xb, single = _as_batch(x)
    z = 10.0 * xb  # canonical domain [0, 10]^4
    sq = np.sum((z[:, :, None] - _SHEKEL_C[None, :, :]) ** 2, axis=1)
    vals = np.sum(1.0 / (sq + _SHEKEL_BETA[None, :]), axis=1)
    return float(vals[0]) if single else vals


def _ackley10(x):
    xb, single = _as_batch(x)
    z = -32.768 + 65.536 * xb  # canonical domain [-32.768, 32.768]^10
    d = z.shape[1]
    term1 = -20.0 * np.exp(-0.2 * np.sqrt(np.mean(z * z, axis=1)))
    term2 = -np.exp(np.mean(np.cos(2.0 * np.pi * z), axis=1))
    vals = -(term1 + term2 + 20.0 + np.e)  # negate: maximization, optimum 0
    return float(vals[0]) if single else vals


def standard_function(name: str):
    """(target, dim, certified optimum value, optimizer in the unit box)."""
    name = name.lower()
    # optima certified numerically (dense search + local polish); the
    # well-known published values serve as the cross-check
    if name == "hartmann3":
        opt_x = np.array([0.11458887133078371, 0.5556488955562107, 0.852546983879289])
        return _hartmann3, 3, 3.862779787332663, opt_x
    if name == "hartmann6":
        opt_x = np.array([
            0.20168950727076385, 0.1500106906696684, 0.4768739744606124,
            0.2753324274670498, 0.31165161654643087, 0.6573005330187832,
        ])
        return _hartmann6, 6, 3.3223680114155147, opt_x
    if name == "shekel":
        opt_x = np.array([
            0.4000746868558176, 0.39995094808955844,
            0.40007468652711525, 0.399950948043284,
        ])
        return _shekel, 4, 10.536443153483528, opt_x
    if name == "ackley10":
        opt_x = np.full(10, 0.5)
        return _ackley10, 10, 0.0, opt_x
    raise ValueError(f"unknown test function: {name!r}")
