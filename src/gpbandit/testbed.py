"""Objective functions with estimated optima, plus the Gaussian noise channel.

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

from .kernels import KernelSpec, cross_blocks, gram_matrix


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
        """f at one point, or at each row of a batch.  A batch is evaluated
        in the column blocks of kernels.cross_blocks: at most 2 * BLOCK
        kernel columns are held at once, and every value rounds as in one
        single-threaded product over the whole batch."""
        xb, single = _as_batch(x)
        vals = np.empty(len(xb))
        for start, stop, kc in cross_blocks(self.kernel, self.centers, xb):
            np.matmul(kc.T, self.weights, out=vals[start:stop])
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
        """Read a target written by `save`.  A file of any other shape raises
        ValueError naming the field at fault."""
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ValueError("rkhs target file must hold a JSON object")

        def field(name):
            if name not in payload:
                raise ValueError(f"rkhs target file lacks field {name!r}")
            return payload[name]

        def number(name):
            value = field(name)
            # bool is an int subclass, and JSON's true would read as 1.0
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise ValueError(f"rkhs target field {name!r} must be a finite number")
            return float(value)

        def array(name, ndim):
            value = field(name)
            try:
                a = np.asarray(value, dtype=float)
            except (TypeError, ValueError):  # ragged or not numeric
                a = np.empty(0)
            if a.ndim != ndim or not a.size or not np.isfinite(a).all():
                raise ValueError(
                    f"rkhs target field {name!r} must be a nonempty {ndim}-d array "
                    "of finite numbers")
            return a

        kspec = field("kernel")
        if not isinstance(kspec, dict):
            raise ValueError("rkhs target field 'kernel' must be an object")
        try:
            kernel = KernelSpec(kspec.get("family"), kspec.get("lengthscale"), kspec.get("nu"))
        except (TypeError, ValueError) as err:
            raise ValueError(f"rkhs target field 'kernel': {err}") from None
        centers = array("centers", 2)
        weights = array("weights", 1)
        optimum_point = array("optimum_point", 1)
        if len(weights) != len(centers):
            raise ValueError(f"rkhs target field 'weights' has {len(weights)} entries "
                             f"for {len(centers)} centers")
        if len(optimum_point) != centers.shape[1]:
            raise ValueError(f"rkhs target field 'optimum_point' has {len(optimum_point)} "
                             f"coordinates for {centers.shape[1]}-d centers")
        return cls(
            kernel=kernel,
            centers=centers,
            weights=weights,
            rkhs_norm_sq=number("rkhs_norm_sq"),
            optimum_value=number("optimum_value"),
            optimum_point=optimum_point,
        )


class NoisyOracle:
    """Adds i.i.d. Gaussian noise to a target; one oracle per run."""

    def __init__(self, target, dim: int, noise_stddev: float, rng: np.random.Generator):
        if not (math.isfinite(noise_stddev) and noise_stddev >= 0):
            raise ValueError(f"noise stddev must be finite and >= 0, got {noise_stddev}")
        self.target = target
        self.dim = dim
        self.noise_stddev = float(noise_stddev)
        self.rng = rng

    def __call__(self, x) -> float:
        value = float(self.target(np.asarray(x, dtype=float)))
        return value + self.rng.normal(0.0, self.noise_stddev)


_OPTIMUM_STARTS = 10
_OPTIMUM_ROUNDS = 40


def estimate_optimum(f, d: int, budget: int, rng: np.random.Generator):
    """Estimate of the maximum of f on the unit box, not a certificate.

    Dense random search over `budget` uniform points, then shrinking-radius
    refinement from the best `_OPTIMUM_STARTS` of them, `_OPTIMUM_ROUNDS`
    rounds of 16 probes each.  A rerun with a larger budget checks it.
    """
    if budget < 1000:
        raise ValueError("budget must be >= 1000")
    xs = rng.uniform(0.0, 1.0, size=(budget, d))
    vals = np.asarray(f(xs), dtype=float)
    order = np.argsort(vals)[::-1]
    best_val = float(vals[order[0]])
    best_x = xs[order[0]].copy()
    for start in order[:_OPTIMUM_STARTS]:
        x, v = xs[start].copy(), float(vals[start])
        radius = 0.2
        for _ in range(_OPTIMUM_ROUNDS):
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


# name -> (target, dim, optimum value, optimizer in the unit box); optima
# estimated numerically (dense search + local polish) and cross-checked
# against the well-known published values
_STANDARD = {
    "hartmann3": (_hartmann3, 3, 3.862779787332663, np.array(
        [0.11458887133078371, 0.5556488955562107, 0.852546983879289])),
    "shekel": (_shekel, 4, 10.536443153483528, np.array(
        [0.4000746868558176, 0.39995094808955844,
         0.40007468652711525, 0.399950948043284])),
    "hartmann6": (_hartmann6, 6, 3.3223680114155147, np.array(
        [0.20168950727076385, 0.1500106906696684, 0.4768739744606124,
         0.2753324274670498, 0.31165161654643087, 0.6573005330187832])),
    "ackley10": (_ackley10, 10, 0.0, np.full(10, 0.5)),
}

STANDARD_FUNCTIONS = tuple(_STANDARD)


def standard_function(name: str):
    """(target, dim, estimated optimum value, optimizer in the unit box)."""
    name = name.lower()
    if name not in _STANDARD:
        raise ValueError(f"unknown test function: {name!r}; the test functions are "
                         + ", ".join(STANDARD_FUNCTIONS))
    target, d, opt, opt_x = _STANDARD[name]
    return target, d, opt, opt_x.copy()
