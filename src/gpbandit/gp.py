"""Exact Gaussian-process regression with incremental Cholesky updates.

The model conditions on observations y = f(x) + noise and serves the
posterior

    mean(x) = k_t(x)^T (K_t + lam*I)^{-1} y
    var(x)  = k(x, x) - k_t(x)^T (K_t + lam*I)^{-1} k_t(x)

where lam is the regularizer (noise variance).  New observations extend the
lower-triangular factor by one row instead of refitting; a full refit with a
jitter ladder is the fallback when roundoff spoils the extension pivot, and
later extensions keep the jitter that refit needed.

The model also accumulates the information gain of the selected points,

    gain_t = 1/2 * sum_{i<=t} ln(1 + var_{i-1}(x_i) / lam),

which equals 1/2 * ln det(I + K_t / lam) in exact arithmetic as long as
no jitter refit has happened; after one, the two differ, and the running sum
is the value kept.  Computed, they differ without a refit too, by rounding
that grows as lam shrinks: 2.2e-4 for GP-EI on noise-free Hartmann-3 at
lam = 1e-12, lengthscale 1, T = 40.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lapack

from .kernels import (
    _HALF_INTEGER_NUS,
    BLOCK,
    MATERN,
    SQUARED_EXPONENTIAL,
    KernelSpec,
    _matern_half_integer,
    _scratch_views,
    cross_blocks,
    cross_matrix,
    gram_matrix,
)

_JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6)
_PIVOT_FLOOR = 1e-14
# added to posterior_argmax's variance bound: the rounding of the computed
# 1 - v.v, at most a few n ulps of 1, stays far below it
_VAR_MARGIN = 1e-12
# posterior_argmax's relative slack on a score bound, held at or above
# _SCORE_FLOOR, far above EI's subnormal tail: computed EI tracks the exact
# one to ~1e-12 relative, and computed UCB (beta >= 0) is monotone in both
# mean and std
_BOUND_RTOL = 1e-9
_SCORE_FLOOR = 1e-280
# float64's unit roundoff, and float32's machine epsilon (2^-23, twice its
# unit roundoff) and least normal value: the units of posterior_argmax's
# screening sweep
_U64 = 2.0**-53
_EPS32 = float(np.finfo(np.float32).eps)
_TINY32 = float(np.finfo(np.float32).tiny)
# the screen's closed forms clamp where their exp argument reaches -87:
# exp(-87) ~ 1.6e-38 is float32's least normal order, so no value is
# subnormal, whose arithmetic is slow on x86.  What the clamp cuts off is
# below 5e-35 (nu = 5/2's polynomial times exp(-87)), far inside the
# screen's margins.
_EXP_NORMAL32 = 87.0
# the screen's blocks hold about this many kernel values, and at least BLOCK
# columns: wider blocks at small n spread each pass's per-call cost over
# more columns, and blocks this size keep a block's float64 product (512
# KiB) in cache
_SCREEN_PAIRS = 2**16
# the screen runs while c * sqrt(d) < _SCREEN_COORDS (c the largest
# |coordinate|), sum |alpha| < _SCREEN_ALPHA (so alpha and the means are
# inside float32's range) and the lengthscale is in _SCREEN_LENGTHS: then
# the shifted, scaled coordinates stay below 1e48 and the squared distances
# of the screen's float64 products far inside float64's range
_SCREEN_COORDS = 1e18
_SCREEN_ALPHA = 1e30
_SCREEN_LENGTHS = (1e-30, 1e30)


class GpNumericsError(RuntimeError):
    """Cholesky factorization failed even with jitter."""

    def __init__(self, message: str, pivot_index: int | None = None):
        super().__init__(message)
        self.pivot_index = pivot_index


def _cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a, row-major like every extended factor."""
    c, info = lapack.dpotrf(a, lower=1, clean=1)
    if info > 0:
        raise GpNumericsError(
            f"matrix not positive definite at pivot {info - 1}",
            pivot_index=info - 1,
        )
    if info < 0:
        raise GpNumericsError(f"bad argument {-info} to dpotrf")
    if not np.isfinite(c).all():
        raise GpNumericsError("Cholesky factor is not finite")
    return np.ascontiguousarray(c)


def _solve_lower(L: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """x with L x = b (trans=0) or L^T x = b (trans=1); L lower triangular
    and row-major.

    Makes the LAPACK dtrtrs call scipy.linalg.solve_triangular makes for a
    row-major L, so the result is the same to the bit, without that
    wrapper's per-call validation.  L is checked finite where it is built;
    b is checked here.  The solve copies b to column-major order.
    """
    if not np.isfinite(b).all():
        raise ValueError("right-hand side of a triangular solve must be finite")
    # lower=0, trans=1 - trans, passed by position: f2py parses keywords slower
    x, info = lapack.dtrtrs(L.T, b, 0, 1 - trans)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular factor at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"bad argument {-info} to dtrtrs")
    return x


def _means_and(blocks, alpha, m, per_block) -> tuple[np.ndarray, np.ndarray]:
    """(means, per_block(kc) for each kernel block kc) over m points, from
    a walk of their kernel blocks (start, stop, kc) against the data of
    weights alpha: the one walk of posterior_many and incumbent, over
    cross_blocks, and of posterior_argmax's screen, over _screen_blocks; the
    means in alpha's dtype, the rest float64.  A walk of fewer than 2 * BLOCK
    points is one block, whose arrays it returns as they are
    (posterior_argmax screens only larger passes)."""
    if 0 < m < 2 * BLOCK:
        [(_, _, kc)] = blocks
        return np.matmul(kc.T, alpha), per_block(kc)
    mean = np.empty(m, dtype=alpha.dtype)
    other = np.empty(m)
    for start, stop, kc in blocks:  # (n, block)
        np.matmul(kc.T, alpha, out=mean[start:stop])
        other[start:stop] = per_block(kc)
        del kc  # freed before the next block is built
    return mean, other


def _column_max(kc: np.ndarray) -> np.ndarray:
    return np.max(kc, axis=0)


def _margins(kernel: KernelSpec, X: np.ndarray, alpha: np.ndarray, xs: np.ndarray):
    """(A, B, e_k, e_mu): the operands of the screen's products for the
    data X and the points xs, and bounds on how far the screen's float32
    kernel values and means stray from the float64 ones of the model
    (X, alpha); None for a Matern nu other than 1/2, 3/2 and 5/2, or for
    coordinates, weights or a lengthscale outside the guards at the end.

    Both sets are shifted by one centre o, the midpoint of their least and
    largest coordinate, and scaled by 1 / l: a = (x - o) (1 / l).  The columns
    of A are [a, |a|^2, 1] and those of B [-2b, 1, |b|^2], so a block of
    A^T B holds the scaled squared distances t = |a - b|^2 = (r / l)^2.

    With u = 2^-53 and S the largest computed |a|^2 plus the largest
    |b|^2, a product of d + 2 terms in any summation order errs by at most
    2 gamma_{d+2} S, the norms' rounding adds gamma_d S, and together they
    stay below 4 (d + 2) u S; the three roundings of the shifted, scaled
    coordinates move a scaled distance s = sqrt(t) by at most 5 u sqrt(S)
    more.  As |sqrt(x) - sqrt(y)| <= sqrt(|x - y|), t >= 0 clamped or not,
    s strays by at most sqrt(e_t) with

        e_t = 5 (d + 2) u S,

    which |dk/ds| <= 1, true for SE and these Matern nu, turns into a
    kernel error.  Rounding t to float32 and its square root move s by at
    most 1.5 u32 s relative (u32 = 2^-24), which moves k by at most
    1.5 u32, as s |dk/ds| <= 2/e for every such kernel; the float32 closed
    forms add at most ~7 eps with exp 4 ulps off, the float64 kernel values
    err by a few u, and the clamp moves none by 5e-35.  Doubled, that is

        e_k = sqrt(e_t) + 16 eps,   eps = 2 u32,

    a bound on |k32 - k64| at every pair free of the kernel.  A float32
    mean, sum_j k32_j alpha32_j, is then within e_k sum|alpha| of the exact
    sum of the float64 kernel values, and it and the float64 gemv each
    round by at most (n + 2) u32 sum|alpha|, so

        e_mu = (e_k + (n + 4) eps) sum|alpha| + 2 n tiny32

    bounds |mu32 - mu64| with the rounding of mu32 + e_mu to spare; tiny32,
    float32's least normal value, covers products below its normal range.
    The guards are _SCREEN_COORDS on the coordinates as given (c sqrt(d),
    with c the largest |coordinate|), which keeps t finite for any
    lengthscale in _SCREEN_LENGTHS, and _SCREEN_ALPHA on sum|alpha|, which
    keeps the weights and the means inside float32's range."""
    if kernel.family == MATERN and kernel.nu not in _HALF_INTEGER_NUS:
        # the Bessel route: its kv calls would cost the screen what the full
        # pass costs, and below nu = 1/2 |dk/ds| is unbounded at s = 0
        return None
    n, d = X.shape
    # NaN if xs has one
    lo = np.minimum(np.min(X), np.min(xs))
    hi = np.maximum(np.max(X), np.max(xs))
    c = float(np.maximum(-lo, hi))
    asum = float(np.sum(np.abs(alpha)))
    ell = kernel.lengthscale
    # false for NaN and inf too
    if not (c * math.sqrt(d) < _SCREEN_COORDS and asum < _SCREEN_ALPHA
            and _SCREEN_LENGTHS[0] < ell < _SCREEN_LENGTHS[1]):
        return None
    centre = 0.5 * (float(lo) + float(hi))
    # one row per coordinate: on (m, d) arrays numpy loops d elements at a
    # time, several times slower
    A, B = np.empty((d + 2, n)), np.empty((d + 2, len(xs)))
    for P, x, norm, one in ((A, X, d, d + 1), (B, xs, d + 1, d)):
        p = np.subtract(x.T, centre, out=P[:d])
        p *= 1.0 / ell
        np.einsum("ij,ij->j", p, p, out=P[norm])
        P[one] = 1.0
    B[:d] *= -2.0
    e_t = 5 * (d + 2) * _U64 * (float(np.max(A[d])) + float(np.max(B[d + 1])))
    e_k = math.sqrt(e_t) + 16.0 * _EPS32
    return A, B, e_k, (e_k + (n + 4) * _EPS32) * asum + 2 * n * _TINY32


def _kernel_of_t32(kernel: KernelSpec, t: np.ndarray) -> np.ndarray:
    """Kernel values at the float32 scaled squared distances t = (r / l)^2,
    0 <= t <= _screen_blocks' clamp, written over t: SE is exp(-t / 2),
    and the Matern closed forms take s = sqrt(t)."""
    if kernel.family == SQUARED_EXPONENTIAL:
        t *= -0.5
        return np.exp(t, out=t)
    return _matern_half_integer(np.sqrt(t, out=t), kernel.nu)


def _screen_blocks(kernel: KernelSpec, A: np.ndarray, B: np.ndarray):
    """(start, stop, k32) over column blocks of B: k32 holds the float32
    kernel values between the points whose operands A and B _margins
    built, from one float64 product per block, rounded to float32 once and
    clamped to [0, far].  Where _scratch_views serves their size, every
    temporary and k32 itself are views of this thread's kernel scratch,
    valid until the next block: the product's float64 block at its start,
    where the closed forms' float32 temporaries later go, and k32 after
    it."""
    n = A.shape[1]
    if kernel.family == SQUARED_EXPONENTIAL:
        far = 2.0 * _EXP_NORMAL32
    else:
        far = _EXP_NORMAL32 * _EXP_NORMAL32 / (2.0 * kernel.nu)
    m = B.shape[1]
    width = max(BLOCK, _SCREEN_PAIRS // n)
    for start in range(0, m, width):
        stop = min(start + width, m)
        size = n * (stop - start)
        [tk] = _scratch_views((3 * size,), np.float32, 1)
        t = None if tk is None else tk[:2 * size].view(float).reshape(n, -1)
        k = np.empty((n, stop - start), np.float32) if tk is None else tk[2 * size:].reshape(n, -1)
        t = np.matmul(A.T, B[:, start:stop], out=t)
        # a t past float32's range rounds to inf, which the clamp takes to far
        with np.errstate(over="ignore"):
            k[...] = t
        np.clip(k, 0.0, far, out=k)
        yield start, stop, _kernel_of_t32(kernel, k)


class GpModel:
    """GP regressor owned by a single run loop; posterior reads are const.

    posterior_many gives means and stddevs; posterior_argmax gives the
    argmax of a score of them: a sweep of float32 kernel values, from one
    float64 matrix product per block, bounds every query point's mean and
    stddev, and float64 posterior_many calls solve the O(n^2) triangular
    system only at the points whose bounds let them win, laid out so that
    their means and stddevs are the full pass's to the bit; incumbent
    gives the sampled point of largest mean."""

    def __init__(self, kernel: KernelSpec, lam: float):
        # with 1/lam infinite, the gain's log1p(var / lam) would be too
        if not (np.isfinite(lam) and lam > 0 and math.isfinite(1.0 / lam)):
            raise ValueError(f"regularizer must be positive with 1/lam finite, got {lam}")
        self.kernel = kernel
        self.lam = float(lam)
        self._X: np.ndarray | None = None  # (n, d)
        self._y: np.ndarray = np.zeros(0)
        # row-major lower factor of K + (lam+jitter)*I, and
        # (K + (lam+jitter)*I)^{-1} y; _set_factor sets both
        self._L: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._incumbent: tuple[np.ndarray, float] | None = None  # set by incumbent()
        self._jitter = 0.0  # added by the last refit; extensions keep it
        self._info_gain = 0.0

    @classmethod
    def fit(cls, kernel: KernelSpec, lam: float, points, observations) -> "GpModel":
        """Build a model from a batch of data via sequential updates."""
        model = cls(kernel, lam)
        for x, y in zip(points, observations):
            model.update(x, y)
        return model

    @property
    def n(self) -> int:
        return 0 if self._X is None else self._X.shape[0]

    @property
    def points(self) -> np.ndarray:
        return np.zeros((0, 0)) if self._X is None else self._X.copy()

    @property
    def observations(self) -> np.ndarray:
        return self._y.copy()

    @property
    def chol_factor(self) -> np.ndarray | None:
        return None if self._L is None else self._L.copy()

    def _set_factor(self, L: np.ndarray) -> None:
        """Take L as the factor of the current data, set alpha with it, and
        drop the incumbent of the previous factor."""
        self._L = L
        self._alpha = _solve_lower(L, _solve_lower(L, self._y), trans=1)
        self._incumbent = None

    def incumbent(self) -> tuple[np.ndarray, float] | None:
        """(x, mean) of the sampled point of largest posterior mean, the
        first on ties; None without data.  posterior_many's means alone, once
        per factor at its first read, so a split's children cost no pass."""
        if self.n and self._incumbent is None:
            means, _ = _means_and(cross_blocks(self.kernel, self._X, self._X), self._alpha,
                                  self.n, lambda kc: 0.0)
            i = int(np.argmax(means))
            self._incumbent = self._X[i].copy(), float(means[i])
        return self._incumbent

    def _block_stddevs(self, kc: np.ndarray) -> np.ndarray:
        """Posterior stddevs at the columns of a kernel block.  A column's
        bytes do not depend on the other columns of a block of two or more;
        dtrtrs rounds a single right-hand side differently."""
        v = _solve_lower(self._L, kc)
        var = np.einsum("ij,ij->j", v, v)
        np.subtract(1.0, var, out=var)
        return np.sqrt(np.maximum(var, 0.0, out=var))

    def _stddev_bound(self, kc: np.ndarray) -> np.ndarray:
        """Upper bounds on _block_stddevs(kc), from the block alone, or from
        a row of lower bounds on each column's largest kernel value.

        Conditioning on more data only lowers the variance, so at x it is at
        most that of a model of the one sampled point x_j of largest kernel
        value: 1 - max_j k(x, x_j)^2 / (1 + lam + jitter), as kernel values
        are >= 0.  _VAR_MARGIN is added for the rounding of 1 - v.v."""
        kmax = np.max(kc, axis=0)
        np.square(kmax, out=kmax)
        kmax /= 1.0 + (self.lam + self._jitter)
        np.subtract(1.0 + _VAR_MARGIN, kmax, out=kmax)
        return np.sqrt(np.maximum(kmax, 0.0, out=kmax))

    def posterior_many(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Posterior (means, stddevs) at a batch of query points.

        A stddev's bytes do not depend on the other columns of a batch of
        two or more: posterior_many(xs[idx])[1] is posterior_many(xs)[1][idx]
        for any idx of at least two entries."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2:
            xs = np.atleast_2d(xs)
        if self.n == 0:
            return np.zeros(len(xs)), np.ones(len(xs))
        return _means_and(cross_blocks(self.kernel, self._X, xs), self._alpha, len(xs),
                          self._block_stddevs)

    def _screen(self, xs: np.ndarray):
        """(upper bounds on the means, upper bounds on the stddevs) at xs
        from one walk of _screen_blocks' float32 kernel blocks, with the
        weights in float32, or None where _margins gives none.  A column's
        largest float64 kernel value is at least its float32 one less e_k,
        which _stddev_bound turns into a stddev bound."""
        margins = _margins(self.kernel, self._X, self._alpha, xs)
        if margins is None:
            return None
        A, B, e_k, e_mu = margins
        mean, kmax = _means_and(_screen_blocks(self.kernel, A, B),
                                self._alpha.astype(np.float32), len(xs), _column_max)
        kmax -= e_k
        high = mean.astype(float)
        high += e_mu
        return high, self._stddev_bound(np.maximum(kmax, 0.0, out=kmax)[None, :])

    def _scores_at(self, xs: np.ndarray, idx: np.ndarray, score) -> np.ndarray:
        """score at xs[idx], idx ascending, from one posterior_many call
        whose means and stddevs there are posterior_many(xs)'s to the bit.

        A stddev's bytes do not depend on the other columns of a batch of
        two or more.  A mean's depend on where gemv computes it: in its
        4-column groups, whose rounding does not depend on the group, or in
        the ragged tail of the last len % 4 columns.  So the columns of idx
        outside posterior_many(xs)'s tail are padded with copies to a
        multiple of 4, and if idx reaches into that tail, the whole tail
        follows them, after at least 4 columns."""
        m = len(xs)
        t = m % 4
        split = int(np.searchsorted(idx, m - t))
        pad = -split % 4
        if split < len(idx):
            pad += 4 * (split == 0)
            cols = np.concatenate([idx[:split], np.repeat(idx[:1], pad), np.arange(m - t, m)])
            at = np.concatenate([np.arange(split), idx[split:] + (len(cols) - m)])
        else:
            cols = np.concatenate([idx, np.repeat(idx[:1], pad)]) if pad else idx
            at = slice(0, split)
        mean, std = self.posterior_many(xs[cols])
        return score(mean[at], std[at])

    def posterior_argmax(self, xs, score):
        """(index, value) of the first-index argmax of
        score(*posterior_many(xs)), to the bit, with stddevs solved only at
        the points that can reach it; None without data, for a pass of one
        block (fewer than 2 * BLOCK points), or where _screen gives no
        bounds.  On a cover's per-cell passes of ~128 points the bound's
        extra calls cost more than the solve they skip (Improved GP-EI on
        Hartmann-3, T=20, read +17% run time without this gate).

        score(means, stds) must act elementwise, not decrease in means or
        stds, and be accurate to _BOUND_RTOL relative at or above
        _SCORE_FLOOR: a computed value v >= _SCORE_FLOOR is at most
        1 + _BOUND_RTOL times the computed value at a larger mean and
        stddev.  EI and UCB with beta >= 0 are.  Then score(*_screen(xs))
        bounds each point's value from above, and a point whose bound, times
        1 + _BOUND_RTOL, stays below a value already computed cannot win.
        The screen is a sweep of float32 kernel values over every point,
        each block from one float64 matrix product of squared distances,
        whose means and kernel values are within the margins _margins
        documents of the float64 ones; the eight points of largest bound are
        scored exactly to set that threshold (four more than a gemv group
        cost one call nothing and raise the threshold where the bound ranks
        the best point below its top four), and one posterior_many call
        solves the points that pass it, laid out by _scores_at so that
        their means and stddevs read as in the full pass.  While the
        threshold is below _SCORE_FLOOR every point is kept."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if self.n == 0 or len(xs) < 2 * BLOCK:
            return None
        screen = self._screen(xs)
        if screen is None:
            return None
        bound = score(*screen)
        seeds = np.sort(np.argpartition(bound, -8)[-8:])
        top = float(np.max(self._scores_at(xs, seeds, score)))
        if top >= _SCORE_FLOOR:
            keep = np.flatnonzero(bound * (1.0 + _BOUND_RTOL) >= top)
        else:
            keep = np.arange(len(xs))
        values = self._scores_at(xs, keep, score)
        i = int(np.argmax(values))
        return int(keep[i]), float(values[i])

    def posterior(self, x) -> tuple[float, float]:
        """Posterior (mean, stddev) at one point; (0, 1) with no data."""
        mean, std = self.posterior_many(np.atleast_2d(np.asarray(x, dtype=float)))
        return float(mean[0]), float(std[0])

    def _refit(self) -> None:
        K = gram_matrix(self.kernel, self._X)
        last_err: GpNumericsError | None = None
        for jitter in _JITTER_LADDER:
            A = K + (self.lam + jitter) * np.eye(self.n)
            try:
                self._set_factor(_cholesky_lower(A))
                self._jitter = jitter
                return
            except GpNumericsError as err:
                last_err = err
        raise last_err

    def update(self, x, y: float) -> float:
        """Condition on one more (x, y) pair; O(n^2) factor extension.

        Returns the posterior stddev at x before conditioning."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if not (np.all(np.isfinite(x)) and np.isfinite(y)):
            raise ValueError("update inputs must be finite")

        _, sigma_prev = self.posterior(x)
        self._info_gain += 0.5 * math.log1p(sigma_prev * sigma_prev / self.lam)

        if self._X is None:
            self._X = x[None, :]
            self._y = np.array([float(y)])
            self._set_factor(np.array([[math.sqrt(1.0 + self.lam)]]))
            return sigma_prev

        c = cross_matrix(self.kernel, self._X, x[None, :])[:, 0]
        b = _solve_lower(self._L, c)
        pivot_sq = 1.0 + (self.lam + self._jitter) - float(b @ b)
        if not (np.isfinite(b).all() and math.isfinite(pivot_sq)):
            raise GpNumericsError("factor extension is not finite")
        self._X = np.vstack([self._X, x[None, :]])
        self._y = np.append(self._y, float(y))
        if pivot_sq <= _PIVOT_FLOOR:
            self._refit()
            return sigma_prev
        n = self._L.shape[0]
        L = np.zeros((n + 1, n + 1))
        L[:n, :n] = self._L
        L[n, :n] = b
        L[n, n] = math.sqrt(pivot_sq)
        self._set_factor(L)
        return sigma_prev

    def accumulated_info_gain(self) -> float:
        """Running 1/2 * sum ln(1 + var_prev(x_i)/lam) over inserted points."""
        return self._info_gain

    def log_det_info_gain(self) -> float:
        """Direct 1/2 * ln det(I + K/lam) from the current factor.

        Independent cross-check of the running sum (uses the identity
        det(K + lam*I) = det(lam*I) * det(I + K/lam)).
        """
        if self.n == 0:
            return 0.0
        log_det = 2.0 * float(np.sum(np.log(np.diag(self._L))))
        return 0.5 * (log_det - self.n * math.log(self.lam))
