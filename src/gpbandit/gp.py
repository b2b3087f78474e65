"""Exact Gaussian-process regression with incremental Cholesky updates.

The model conditions on observations y = f(x) + noise and serves the
posterior

    mean(x) = k_t(x)^T (K_t + lam*I)^{-1} y
    var(x)  = k(x, x) - k_t(x)^T (K_t + lam*I)^{-1} k_t(x)

where lam is the regularizer (noise variance).  New observations extend the
lower-triangular factor by one row instead of refitting; a full refit with a
jitter ladder is the fallback when roundoff spoils the extension pivot, and
later extensions keep the jitter that refit needed.  The Gram matrix K_t of
the points is kept beside the factor and grows by the same kernel column.

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
    BLOCK,
    KernelSpec,
    block_edges,
    cross_blocks,
    cross_matrix,
    far_corner_kernels,
    gram_matrix,
    screen_blocks,
)

_JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6)
_PIVOT_FLOOR = 1e-14
# added to the variance bounds of posterior_argmax and _box_bound: the
# rounding of the computed 1 - v.v, at most a few n ulps of 1, stays far
# below it
_VAR_MARGIN = 1e-12
# the relative slack of _reach on a score bound, held at or above
# _SCORE_FLOOR, far above EI's subnormal tail: computed EI tracks the exact
# one to under 1e-11 relative for z = u / v >= -15, and to 3.1e-10 at worst
# above the floor, near z = -36, where its direct form z Phi(z) + phi(z)
# cancels (against mpmath), so the slack covers the error of both scores a
# bound compares; computed UCB (beta >= 0) is monotone in both mean and std
_BOUND_RTOL = 1e-9
_SCORE_FLOOR = 1e-280
# float32's machine epsilon (2^-23) and least normal value: the units of
# the rounding of posterior_argmax's float32 means
_EPS32 = float(np.finfo(np.float32).eps)
_TINY32 = float(np.finfo(np.float32).tiny)
_EPS = 2.0**-52  # float64's, the unit of _box_bound's summation margin
# the screen runs while sum |alpha| < _SCREEN_ALPHA, which keeps the weights
# and the means inside float32's range
_SCREEN_ALPHA = 1e30


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
    weights alpha: the one walk of posterior_many, over cross_blocks, of
    incumbent, over the kept Gram matrix's columns at the same block_edges,
    and of posterior_argmax's screen, over screen_blocks' float32 blocks;
    the means in alpha's dtype, the rest float64.  A walk of
    fewer than 2 * BLOCK points is one block, whose arrays it returns as they are
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


def _mean_margin(e_k: float, n: int, asum: float) -> float:
    """e_mu, a bound on |mu32 - mu64| at a point of the screen, from the
    bound e_k of kernels.screen_blocks on its n float32 kernel values and
    asum = sum|alpha|.  A float32 mean, sum_j k32_j alpha32_j, is within
    e_k sum|alpha| of the exact sum of the float64 kernel values, and it and
    the float64 gemv each round by at most (n + 2) u32 sum|alpha|
    (u32 = 2^-24), so

        e_mu = (e_k + (n + 4) eps) sum|alpha| + 2 n tiny32,   eps = 2 u32,

    bounds |mu32 - mu64| with the rounding of mu32 + e_mu to spare; tiny32,
    float32's least normal value, covers products below its normal range."""
    return (e_k + (n + 4) * _EPS32) * asum + 2 * n * _TINY32


def _reach(bound):
    """Score bounds times 1 + _BOUND_RTOL and at least _SCORE_FLOOR, below
    which a score's rounding is not bounded: no point whose reach is below a
    computed score ties or beats it.  Elementwise on an array; on one float,
    a float, without numpy's per-call cost."""
    bound = bound * (1.0 + _BOUND_RTOL)
    if isinstance(bound, float):
        return max(bound, _SCORE_FLOOR)
    return np.maximum(bound, _SCORE_FLOOR)


class GpModel:
    """GP regressor owned by a single run loop; posterior reads are const.

    posterior_many gives means and stddevs; posterior_argmax gives the
    argmax of a score of them: a sweep of kernels.screen_blocks' float32
    kernel values bounds every query point's mean and stddev, and float64
    posterior_many calls solve the O(n^2) triangular system only at the
    points whose bounds let them win, laid out so that their means and
    stddevs are the full pass's to the bit; incumbent gives the sampled
    point of largest mean, from the Gram matrix of the points, which the
    model keeps beside the factor with gram_matrix's bits: one more n x n
    float64 array, 8 MB at n = 1,000."""

    def __init__(self, kernel: KernelSpec, lam: float):
        # with 1/lam infinite, the gain's log1p(var / lam) would be too
        if not (np.isfinite(lam) and lam > 0 and math.isfinite(1.0 / lam)):
            raise ValueError(f"regularizer must be positive with 1/lam finite, got {lam}")
        self.kernel = kernel
        self.lam = float(lam)
        self.n = 0  # the number of points, set with _X and by _refit
        self._X: np.ndarray | None = None  # (n, d)
        self._y: np.ndarray = np.zeros(0)
        # row-major lower factor of K + (lam+jitter)*I, and
        # (K + (lam+jitter)*I)^{-1} y; _set_factor sets both
        self._L: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        # gram_matrix(kernel, _X), to the bit; set by update and _refit
        self._K: np.ndarray | None = None
        self._incumbent: tuple[np.ndarray, float] | None = None  # set by incumbent()
        # (box, _box_bound(*box)) of box_reach's last box, box a pair of tuples
        self._bound: tuple | None = None
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
    def points(self) -> np.ndarray:
        return np.zeros((0, 0)) if self._X is None else self._X.copy()

    @property
    def observations(self) -> np.ndarray:
        return self._y.copy()

    def _set_factor(self, L: np.ndarray) -> None:
        """Take L as the factor of the current data, set alpha with it, and
        drop the incumbent and the box bound of the previous factor."""
        self._L = L
        self._alpha = _solve_lower(L, _solve_lower(L, self._y), trans=1)
        self._incumbent = self._bound = None

    def incumbent(self) -> tuple[np.ndarray, float] | None:
        """(x, mean) of the sampled point of largest posterior mean, the
        first on ties; None without data.  posterior_many's means to the bit,
        once per factor at its first read, so a split's children cost no
        pass: one gemv over the kept Gram matrix below 2 * BLOCK points, and
        one per column block of cross_blocks' edges above, so that a BLAS
        that splits a gemv over threads splits it as posterior_many's walk;
        no kernel value is computed again."""
        if self.n and self._incumbent is None:
            K = self._K
            blocks = ((start, stop, K[:, start:stop]) for start, stop in block_edges(self.n))
            means, _ = _means_and(blocks, self._alpha, self.n, lambda kc: 0.0)
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

    def _stddev_bound(self, kmax: np.ndarray) -> np.ndarray:
        """Upper bounds on the posterior stddevs at points whose largest
        kernel values to the data are at least kmax >= 0, written over kmax.

        Conditioning on more data only lowers the variance, so at x it is at
        most that of a model of the one sampled point x_j of largest kernel
        value: 1 - max_j k(x, x_j)^2 / (1 + lam + jitter), as kernel values
        are >= 0.  _VAR_MARGIN is added for the rounding of 1 - v.v."""
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
        from one walk of kernels.screen_blocks' float32 kernel blocks, with
        the weights in float32, or None where it gives none or sum|alpha|
        reaches _SCREEN_ALPHA.  A column's largest float64 kernel value is
        at least its float32 one less e_k, which _stddev_bound turns into a
        stddev bound."""
        asum = float(np.sum(np.abs(self._alpha)))
        # false for NaN and inf too
        screen = screen_blocks(self.kernel, self._X, xs) if asum < _SCREEN_ALPHA else None
        if screen is None:
            return None
        e_k, blocks = screen
        mean, kmax = _means_and(blocks, self._alpha.astype(np.float32), len(xs), _column_max)
        kmax -= e_k
        high = mean.astype(float)
        high += _mean_margin(e_k, self.n, asum)
        return high, self._stddev_bound(np.maximum(kmax, 0.0, out=kmax))

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
        bounds each point's value from above, and a point whose _reach of
        that bound stays below a value already computed cannot win.
        The screen is a sweep of float32 kernel values over every point,
        whose kernel values and means are within kernels.screen_blocks' e_k
        and _mean_margin's e_mu of the float64 ones; the eight points of largest bound are
        scored exactly to set that threshold (four more than a gemv group
        cost one call nothing and raise the threshold where the bound ranks
        the best point below its top four), and one posterior_many call
        solves the points that pass it, laid out by _scores_at so that
        their means and stddevs read as in the full pass.  While the
        threshold is at or below _SCORE_FLOOR every point is kept."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if self.n == 0 or len(xs) < 2 * BLOCK:
            return None
        screen = self._screen(xs)
        if screen is None:
            return None
        bound = score(*screen)
        seeds = np.sort(np.argpartition(bound, -8)[-8:])
        top = float(np.max(self._scores_at(xs, seeds, score)))
        keep = np.flatnonzero(_reach(bound) >= top)
        values = self._scores_at(xs, keep, score)
        i = int(np.argmax(values))
        return int(keep[i]), float(values[i])

    def _box_bound(self, lower, upper) -> tuple[float, float]:
        """(mean bound, stddev bound) over the box [lower, upper] for a
        model with data: no mean or stddev posterior_many computes at a point
        of the box, or one ulp outside it, exceeds them.  There every
        computed k(x, x_j) lies in [far_j - e_k, 1 + e_k], with (e_k, far)
        from kernels.far_corner_kernels, so the mean is at most sum_j
        alpha_j (1 if alpha_j > 0 else far_j) plus (2 e_k + (n + 4) eps)
        sum|alpha|, which covers e_k twice and both sums' rounding, and the
        variance _stddev_bound's one-point rule at max_j far_j - e_k; in
        Python floats, as numpy calls on a cell's few points cost more."""
        e_k, far = far_corner_kernels(self.kernel, self._X, lower, upper)
        mean = asum = 0.0
        for wj, kj in zip(self._alpha.tolist(), far):
            mean += wj if wj > 0 else wj * kj
            asum += abs(wj)
        mean += (2 * e_k + (self.n + 4) * _EPS) * asum
        kmax = max(max(far) - e_k, 0.0)
        var = 1.0 + _VAR_MARGIN - kmax * kmax / (1.0 + (self.lam + self._jitter))
        return mean, math.sqrt(max(var, 0.0))

    def box_reach(self, lower, upper, score) -> float:
        """A value that no score computed from posterior_many's means and
        stddevs at points of the box [lower, upper] exceeds, for a model
        with data: _reach of score(mean, stddev) at _box_bound's bounds;
        inf where those are not finite.  score is the float form of a score
        that posterior_argmax takes: it maps one mean and one stddev, as
        Python floats, to a float within 1e-12 relative of the array form
        (acquisition.ei_float for EI, mean + beta * stddev for UCB), so
        _reach's slack covers it as it covers the array form.
        The bound of the last box is kept until the factor changes, as
        theory_ei asks for a new reach of an unchanged cell at every step;
        a box is matched by its coordinates."""
        box = tuple(lower), tuple(upper)
        if self._bound is None or self._bound[0] != box:
            self._bound = box, self._box_bound(*box)
        mean, std = self._bound[1]
        if not (math.isfinite(mean) and math.isfinite(std)):
            return math.inf
        return _reach(score(mean, std))

    def posterior(self, x) -> tuple[float, float]:
        """Posterior (mean, stddev) at one point; (0, 1) with no data."""
        mean, std = self.posterior_many(np.atleast_2d(np.asarray(x, dtype=float)))
        return float(mean[0]), float(std[0])

    def _refit(self) -> None:
        """Factor gram_matrix(kernel, _X) + (lam + jitter) I from scratch at
        the least jitter of _JITTER_LADDER that factors, keep that Gram
        matrix as _K, and set n from _X."""
        K = gram_matrix(self.kernel, self._X)
        self.n = len(K)
        last_err: GpNumericsError | None = None
        for jitter in _JITTER_LADDER:
            A = K + (self.lam + jitter) * np.eye(self.n)
            try:
                self._set_factor(_cholesky_lower(A))
                self._jitter = jitter
                self._K = K
                return
            except GpNumericsError as err:
                last_err = err
        raise last_err

    def update(self, x, y: float) -> float:
        """Condition on one more (x, y) pair; O(n^2) extension of the factor
        and of the Gram matrix by the point's kernel column.

        Returns the posterior stddev at x before conditioning."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if not (np.all(np.isfinite(x)) and np.isfinite(y)):
            raise ValueError("update inputs must be finite")

        _, sigma_prev = self.posterior(x)
        self._info_gain += 0.5 * math.log1p(sigma_prev * sigma_prev / self.lam)

        if self._X is None:
            self._X = x[None, :]
            self.n = 1
            self._y = np.array([float(y)])
            self._set_factor(np.array([[math.sqrt(1.0 + self.lam)]]))
            self._K = np.array([[1.0]])
            return sigma_prev

        c = cross_matrix(self.kernel, self._X, x[None, :])[:, 0]
        b = _solve_lower(self._L, c)
        pivot_sq = 1.0 + (self.lam + self._jitter) - float(b @ b)
        if not (np.isfinite(b).all() and math.isfinite(pivot_sq)):
            raise GpNumericsError("factor extension is not finite")
        self._X = np.vstack([self._X, x[None, :]])
        self.n += 1
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
        # cross_matrix is elementwise and symmetric in its two point sets, so
        # c is the new row and column of gram_matrix(kernel, _X) to the bit
        K = np.empty((n + 1, n + 1))
        K[:n, :n] = self._K
        K[n, :n] = K[:n, n] = c
        K[n, n] = 1.0
        self._K = K
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
