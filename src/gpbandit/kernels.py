"""Stationary covariance kernels with unit variance.

Two families are supported: the squared-exponential kernel

    k(x, y) = exp(-||x - y||^2 / (2 l^2))

and the Matern kernel

    k(x, y) = 2^(1-nu) / Gamma(nu) * (r/l)^nu * K_nu(r/l),   r = ||x - y||_2,

where K_nu is the modified Bessel function of the second kind.  Both attain
exactly 1 at distance zero, so every Gram matrix has a unit diagonal.

Half-integer nu in {1/2, 3/2, 5/2} is dispatched to the well-known closed
forms; any other nu goes through the Bessel routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import kv as _bessel_kv
from scipy.special import kve as _bessel_kve

SQUARED_EXPONENTIAL = "se"
MATERN = "matern"

# Distances below this fraction of the lengthscale are treated as zero;
# the Bessel evaluation degenerates to 0 * inf there.
_ZERO_SNAP = 1e-12

_HALF_INTEGER_NUS = (0.5, 1.5, 2.5)

# scipy's kve(nu, z) turns NaN past z ~ 1.07e9; the Matern value is 0 long
# before that for any nu the Bessel route can evaluate
_KVE_LIMIT = 1e9

# exp(-c) is exactly 0 for c >= 745.2, so the SE and closed-form Matern values
# are exactly 0 from this scaled distance on; clamping there keeps r / l,
# s * s and c * c from overflowing into inf * 0
_EXP_ZERO = 745.2


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus hyperparameters.  Immutable, safe to share."""

    family: str
    lengthscale: float
    nu: float | None = None

    def __post_init__(self):
        if self.family not in (SQUARED_EXPONENTIAL, MATERN):
            raise ValueError(f"unknown kernel family: {self.family!r}")
        if not (np.isfinite(self.lengthscale) and self.lengthscale > 0):
            raise ValueError(f"lengthscale must be positive, got {self.lengthscale}")
        if self.family == MATERN:
            if self.nu is None or not (np.isfinite(self.nu) and self.nu > 0):
                raise ValueError(f"Matern kernel needs nu > 0, got {self.nu}")


def _matern_half_integer(s: np.ndarray, nu: float) -> np.ndarray:
    """Closed forms for nu in {1/2, 3/2, 5/2}; s = r / l, overwritten."""
    if nu == 0.5:
        return np.exp(np.negative(s, out=s), out=s)
    if nu == 1.5:
        c = np.multiply(s, math.sqrt(3.0), out=s)
        e = np.negative(c)
        np.exp(e, out=e)
        c += 1.0
        c *= e
        return c  # (1 + c) * exp(-c)
    if nu == 2.5:
        c = np.multiply(s, math.sqrt(5.0), out=s)
        q = np.multiply(c, c)
        q /= 3.0
        e = np.negative(c)
        np.exp(e, out=e)
        c += 1.0
        c += q
        c *= e
        return c  # (1 + c + c^2 / 3) * exp(-c)
    raise ValueError(f"no closed form for nu={nu}")


def _matern_bessel(s: np.ndarray, nu: float) -> np.ndarray:
    """General-nu Matern via the modified Bessel function; s = r / l, s > 0.

    Uses the standard sqrt(2 nu) argument scaling, so nu = 1/2 reduces to
    exp(-r/l) and the half-integer closed forms agree with this route.
    """
    with np.errstate(over="ignore"):
        z = math.sqrt(2.0 * nu) * s  # inf past the float range; K_nu(inf) = 0
    coef = 2.0 ** (1.0 - nu) / _gamma(nu)
    k = _bessel_kv(nu, z)
    # kv flushes to 0 from z ~ 698, where z^nu may overflow: 1 stands in for
    # it, giving 0, not inf * 0
    with np.errstate(over="raise", invalid="raise"):
        try:
            out = np.asarray(coef * np.power(np.where(k == 0.0, 1.0, z), nu) * k)
        except FloatingPointError as exc:
            raise OverflowError(
                f"Bessel evaluation out of range for nu={nu}"
            ) from exc
    if not np.isfinite(out).all():
        raise OverflowError(f"Bessel evaluation out of range for nu={nu}")
    # the Matern value stays nonzero some way past that flush (to z ~ 750
    # at nu = 1.5): take it there in log form from the scaled
    # kve(nu, z) = kv(nu, z) * e^z
    flushed = (k == 0.0) & (z < _KVE_LIMIT)
    if flushed.any():
        zf = z[flushed]
        log_coef = (1.0 - nu) * math.log(2.0) - math.lgamma(nu)
        out[flushed] = np.exp(log_coef + nu * np.log(zf)
                              + np.log(_bessel_kve(nu, zf)) - zf)
    return out


def _kernel_in_place(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """Kernel values at the distances in the float array `r`, written over it."""
    if (r < 0).any() or not np.isfinite(r).all():
        raise ValueError("distances must be finite and nonnegative")
    closed_form = spec.family == SQUARED_EXPONENTIAL or spec.nu in _HALF_INTEGER_NUS
    if closed_form:
        np.minimum(r, _EXP_ZERO * spec.lengthscale, out=r)
    # unclamped only on the Bessel route, where r / l = inf gives the exact 0
    with np.errstate(over="ignore"):
        s = np.divide(r, spec.lengthscale, out=r)
    if spec.family == SQUARED_EXPONENTIAL:
        np.multiply(s, s, out=s)
        s *= -0.5
        return np.exp(s, out=s)  # exp(-s^2 / 2)
    zero = s < _ZERO_SNAP
    snap = zero.any()
    if snap:
        s[zero] = 1.0
    if closed_form:
        s = _matern_half_integer(s, spec.nu)
    else:
        s[...] = _matern_bessel(s, spec.nu)
    if snap:
        s[zero] = 1.0
    return s


def kernel_of_distance(spec: KernelSpec, r) -> np.ndarray:
    """Evaluate the kernel as a function of Euclidean distance (vectorized).

    `r` is copied, never modified; the result has its shape.
    """
    r = np.array(r, dtype=float)
    # work on a 1-d view: ufuncs on 0-d arrays return scalars, not views
    return _kernel_in_place(spec, r.reshape(-1)).reshape(r.shape)


def matern_via_bessel(spec: KernelSpec, r) -> np.ndarray:
    """Force the Bessel-based route, bypassing closed-form dispatch.

    Used to cross-check the half-integer closed forms.
    """
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        s = r / spec.lengthscale  # inf past the float range; K_nu(inf) = 0
    zero = s < _ZERO_SNAP
    s_safe = np.where(zero, 1.0, s)
    return np.where(zero, 1.0, _matern_bessel(s_safe, spec.nu))


def cross_matrix(spec: KernelSpec, xs, ys) -> np.ndarray:
    """Covariance matrix between two point sets, shape (len(xs), len(ys)).

    Squared coordinate differences are summed one coordinate at a time, in
    coordinate order, into a single (n, m) buffer that the kernel then
    overwrites: no (n, m, d) array is built, and the rounding of a distance
    does not depend on how a vectorized reduction would order the sum.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if xs.shape[1] != ys.shape[1]:
        raise ValueError(f"dimension mismatch: {xs.shape[1]} vs {ys.shape[1]}")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("kernel inputs must be finite")
    r = np.zeros((xs.shape[0], ys.shape[0]))
    sq = np.empty_like(r)
    # a square overflows to inf beyond |difference| ~ 1e154; the distance
    # check in _kernel_in_place rejects it
    with np.errstate(over="ignore"):
        for k in range(xs.shape[1]):
            np.subtract(xs[:, k, None], ys[None, :, k], out=sq)
            np.multiply(sq, sq, out=sq)
            r += sq
    del sq  # freed before the kernel allocates its own temporaries
    return _kernel_in_place(spec, np.sqrt(r, out=r))


def gram_matrix(spec: KernelSpec, points) -> np.ndarray:
    """Symmetric PSD covariance matrix of a point set, unit diagonal."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] < 1:
        raise ValueError("need at least one point")
    K = cross_matrix(spec, points, points)
    # enforce exact symmetry and unit diagonal against roundoff
    K = 0.5 * (K + K.T)
    np.fill_diagonal(K, 1.0)
    return K
