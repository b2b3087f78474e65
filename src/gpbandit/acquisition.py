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
    return np.exp(-0.5 * np.square(z)) / _SQRT_2PI


def _tau(z: np.ndarray) -> np.ndarray:
    """tau at finite z of any shape; callers check that z is finite."""
    zs = np.atleast_1d(z)
    # the direct form everywhere, then the tail form over it where it
    # applies, so the tail's division never sees a tiny z; z^2 may overflow
    # for |z| > 1e154, where phi's exp(-inf) and the tail's phi/inf give the
    # exact limit 0
    with np.errstate(over="ignore", under="ignore"):
        out = zs * ndtr(zs) + _phi(zs)
        tail = zs < _TAIL_Z
        if tail.any():
            zt = zs[tail]
            out[tail] = _phi(zt) / np.square(zt)
    return out.reshape(np.shape(z))


def tau(z):
    """z*Phi(z) + phi(z); positive, nondecreasing.  Vectorized."""
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("tau argument must be finite")
    out = _tau(z)
    if z.ndim == 0:
        return float(out)
    return out


def ei_scores(means, incumbent: float, scaled_stddevs) -> np.ndarray:
    """Vectorized improvement score rho(mean - incumbent, scaled_stddev)."""
    u = np.asarray(means, dtype=float) - incumbent
    v = np.asarray(scaled_stddevs, dtype=float)
    if not (v >= 0).all():
        raise ValueError("scaled stddev must be nonnegative")
    if u.shape != v.shape:
        u, v = np.broadcast_arrays(u, v)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = u / v
    hinge = np.maximum(0.0, u)
    if np.isfinite(z).all():
        out = v * _tau(z)
    else:
        # v = 0, or a subnormal v that makes u / v overflow: rho(u, v) is at
        # its limit max(0, u)
        if not np.isfinite(u).all():
            raise ValueError("means and incumbent must be finite")
        limit = ~np.isfinite(z)
        out = np.where(limit, hinge, v * _tau(np.where(limit, 0.0, z)))
    # guard the analytic floor rho(u, v) >= max(0, u) against roundoff
    return np.maximum(out, hinge)


def ucb_score(mean, stddev, beta: float):
    """mean + beta * stddev (vectorized)."""
    stddev = np.asarray(stddev, dtype=float)
    if (stddev < 0).any():
        raise ValueError("stddev must be nonnegative")
    out = np.asarray(mean, dtype=float) + beta * stddev
    if out.ndim == 0:
        return float(out)
    return out


def beta_value(B: float, R: float, info_gain: float, delta: float) -> float:
    """Confidence width B + R*sqrt(2*(gain + 1 + ln(1/delta)))."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return B + R * math.sqrt(2.0 * (info_gain + 1.0 + math.log(1.0 / delta)))
