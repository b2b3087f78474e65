"""Acquisition scores.

Expected improvement is evaluated through the helper

    tau(z) = z * Phi(z) + phi(z),

so that the improvement score rho(u, v) = u*Phi(u/v) + v*phi(u/v) becomes
v * tau(u/v), which is stable for deeply negative u/v.  A UCB score, with
its confidence width beta, is kept for the partition-reusing baseline.  The
exploration scale omega_t that EI applies to the stddev is a run parameter
and lives with the run loop (optimizers).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# below this z the direct form underflows to 0 - 0; switch to the
# Mills-ratio tail tau(z) ~ phi(z) / z^2
_TAIL_Z = -38.0


def _phi(z):
    """phi at an array z, its temporaries built in place."""
    out = np.square(z)
    out *= -0.5
    np.exp(out, out=out)
    out /= _SQRT_2PI
    return out


def _tau(z: np.ndarray, deep: bool = True) -> np.ndarray:
    """tau at finite z of one or more dimensions; deep=False asserts that
    no z lies below _TAIL_Z.  Callers check that z is finite and ignore
    over- and underflow: z^2 may overflow for |z| > 1e154, where phi's
    exp(-inf) and the tail's phi/inf give the exact limit 0."""
    # the direct form everywhere, then the tail form over it where it
    # applies, so the tail's division never sees a tiny z
    out = ndtr(z)
    out *= z
    out += _phi(z)
    if deep:
        tail = z < _TAIL_Z
        zt = z[tail]
        out[tail] = _phi(zt) / np.square(zt)
    return out


def tau(z):
    """z*Phi(z) + phi(z); positive, nondecreasing.  Vectorized."""
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("tau argument must be finite")
    with np.errstate(over="ignore", under="ignore"):
        out = _tau(np.atleast_1d(z))
    if z.ndim == 0:
        return float(out[0])
    return out


def _first_false(ok: np.ndarray) -> tuple[tuple, str]:
    """Index of the first False entry of ok, in C order, and its text for
    an error: ' at index i', a tuple past one dimension, none at zero."""
    i = np.unravel_index(int(np.argmin(ok)), np.shape(ok))
    if not i:
        return i, ""
    return i, f" at index {int(i[0]) if len(i) == 1 else tuple(map(int, i))}"


def ei_scores(means, incumbent: float, scaled_stddevs) -> np.ndarray:
    """Vectorized improvement score rho(mean - incumbent, scaled_stddev).

    A scaled stddev that is negative or NaN, or a mean or incumbent that is
    not finite, raises ValueError naming the first such entry.  The score
    is computed on 1-D arrays, whatever the input shape."""
    u = np.asarray(means, dtype=float) - incumbent
    v = np.asarray(scaled_stddevs, dtype=float)
    if not v.min(initial=math.inf) >= 0:  # a NaN carries through the min
        i, at = _first_false(v >= 0)
        raise ValueError(f"scaled stddev must be nonnegative and not NaN, got {v[i]}{at}")
    if u.shape != v.shape:
        u, v = np.broadcast_arrays(u, v)
    shape = u.shape
    if len(shape) != 1:
        u, v = u.reshape(-1), v.reshape(-1)
    out = _rho(u, v)
    if out is None:
        i, at = _first_false(np.isfinite(u).reshape(shape))
        mean = np.broadcast_to(np.asarray(means, dtype=float), shape)[i]
        inc = np.broadcast_to(np.asarray(incumbent, dtype=float), shape)[i]
        raise ValueError("means and incumbent must be finite, "
                         f"got mean {mean} and incumbent {inc}{at}")
    return out if len(shape) == 1 else out.reshape(shape)[()]


# u / v is inf or NaN where v = 0 or a subnormal v overflows it, and _tau
# may over- and underflow; the decorator form enters errstate at about
# 0.4 us less per call than a with statement
@np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore")
def _rho(u: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """rho(u, v) on 1-D arrays with v >= 0, or None where some u is not
    finite and some u / v is not: rho at an infinite u has no limit to take."""
    z = u / v
    hinge = np.maximum(0.0, u)
    # one min and one max of z, each 0 for an empty z: a NaN carries
    # through both, and -inf and inf through one of them
    low, high = z.min(initial=0.0), z.max(initial=0.0)
    if math.isfinite(low) and math.isfinite(high):
        out = _tau(z, low < _TAIL_Z)
        out *= v
    else:
        # v = 0, or a subnormal v that makes u / v overflow: rho(u, v) is
        # at its limit max(0, u)
        if not np.isfinite(u).all():
            return None
        limit = ~np.isfinite(z)
        z[limit] = 0.0
        out = _tau(z)
        out *= v
        out[limit] = hinge[limit]
    # guard the analytic floor rho(u, v) >= max(0, u) against roundoff
    np.maximum(out, hinge, out=out)
    return out


def ei_float(u: float, v: float) -> float:
    """rho(u, v) at one pair of Python floats, u finite and v >= 0.

    A second evaluation of ei_scores' score, kept only for score bounds
    (GpModel.box_reach), where ei_scores' numpy calls on 1-element arrays
    cost about 30 times this arithmetic.  It follows _rho and _tau op for op:
    ndtr for Phi, the tail form below _TAIL_Z, and the limit max(0, u) where
    u / v is not finite.  Its bits may differ from ei_scores' (math.exp is
    not np.exp), so a bound takes it with gp's relative slack; a test holds
    it to ei_scores within 1e-12 relative wherever the score is at least
    gp's score floor."""
    hinge = max(0.0, u)
    if v == 0.0:
        return hinge
    z = u / v  # inf where a subnormal v overflows it
    if not math.isfinite(z):
        return hinge
    zz = z * z  # inf for |z| > 1e154, where phi's exp(-inf) and phi / inf are 0
    phi = math.exp(zz * -0.5) / _SQRT_2PI
    t = phi / zz if z < _TAIL_Z else float(ndtr(z)) * z + phi
    return max(t * v, hinge)


def ucb_score(mean, stddev, beta: float):
    """mean + beta * stddev (vectorized).

    A stddev that is negative or NaN raises ValueError naming the first
    such entry, and so does a beta that is: the score must not decrease in
    the mean or the stddev (GpModel.posterior_argmax's contract)."""
    if not beta >= 0:
        raise ValueError(f"beta must be nonnegative and not NaN, got {beta}")
    stddev = np.asarray(stddev, dtype=float)
    ok = stddev >= 0
    if not ok.all():
        i, at = _first_false(ok)
        raise ValueError(f"stddev must be nonnegative and not NaN, got {stddev[i]}{at}")
    out = np.asarray(mean, dtype=float) + beta * stddev
    if out.ndim == 0:
        return float(out)
    return out


def beta_value(B: float, R: float, info_gain: float, delta: float) -> float:
    """Confidence width B + R*sqrt(2*(gain + 1 + ln(1/delta)))."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return B + R * math.sqrt(2.0 * (info_gain + 1.0 + math.log(1.0 / delta)))
