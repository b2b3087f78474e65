"""Acquisition scores and exploration schedules.

Expected improvement is evaluated through the helper

    tau(z) = z * Phi(z) + phi(z),

so that the improvement score rho(u, v) = u*Phi(u/v) + v*phi(u/v) becomes
v * tau(u/v), which is stable for deeply negative u/v.  A UCB score is kept
for the partition-reusing baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# below this z the direct form underflows to 0 - 0; switch to the
# Mills-ratio tail tau(z) ~ phi(z) / z^2
_TAIL_Z = -38.0

OMEGA_FIXED = "fixed"
OMEGA_THEORY_EI = "theory_ei"
OMEGA_POLYLOG_T = "polylog_t"


def _phi(z):
    return np.exp(-0.5 * np.square(z)) / _SQRT_2PI


def tau(z):
    """z*Phi(z) + phi(z); positive, nondecreasing.  Vectorized."""
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("tau argument must be finite")
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
    if z.ndim == 0:
        return float(out[0])
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
        out = v * tau(z)
    else:
        # v = 0, or a subnormal v that makes u / v overflow: rho(u, v) is at
        # its limit max(0, u)
        if not np.isfinite(u).all():
            raise ValueError("means and incumbent must be finite")
        limit = ~np.isfinite(z)
        out = np.where(limit, hinge, v * tau(np.where(limit, 0.0, z)))
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


@dataclass(frozen=True)
class OmegaSchedule:
    """Global exploration scale applied to the posterior stddev.

    fixed      : constant c at every step
    theory_ei  : sqrt(gain_prev + 1 + ln(1/delta)), growing with data
    polylog_t  : constant sqrt(ln T * ln ln T) for a known horizon T >= 16
    """

    mode: str
    c: float = 1.0
    delta: float = 0.05
    horizon_T: int | None = None

    def __post_init__(self):
        if self.mode not in (OMEGA_FIXED, OMEGA_THEORY_EI, OMEGA_POLYLOG_T):
            raise ValueError(f"unknown omega mode: {self.mode!r}")
        if self.mode == OMEGA_FIXED and not self.c > 0:
            raise ValueError("fixed omega needs c > 0")
        if self.mode == OMEGA_THEORY_EI and not 0.0 < self.delta < 1.0:
            raise ValueError("theory_ei omega needs delta in (0, 1)")
        if self.mode == OMEGA_POLYLOG_T:
            if self.horizon_T is None or self.horizon_T < 16:
                raise ValueError(
                    "polylog_t omega needs horizon_T >= 16 (ln ln T must be positive)"
                )


def omega_at(schedule: OmegaSchedule, t: int, info_gain_prev: float) -> float:
    """Exploration scale at step t; info_gain_prev is the gain before step t."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    if schedule.mode == OMEGA_FIXED:
        return schedule.c
    if schedule.mode == OMEGA_THEORY_EI:
        if info_gain_prev < 0:
            raise ValueError("info gain must be nonnegative")
        return math.sqrt(info_gain_prev + 1.0 + math.log(1.0 / schedule.delta))
    ln_t = math.log(schedule.horizon_T)
    return math.sqrt(ln_t * math.log(ln_t))
