"""Exact Gaussian-process regression with incremental Cholesky updates.

The model conditions on observations y = f(x) + noise and serves the
posterior

    mean(x) = k_t(x)^T (K_t + lam*I)^{-1} y
    var(x)  = k(x, x) - k_t(x)^T (K_t + lam*I)^{-1} k_t(x)

where lam is the regularizer (noise variance).  New observations extend the
lower-triangular factor by one row instead of refitting; a full refit with a
jitter ladder is the fallback when roundoff spoils the extension pivot, and
later extensions keep the jitter that refit needed.  With L the factor, a
mean is (L^{-1} k_t(x))^T (L^{-1} y), from the variance's own solve, so a
point's bits depend only on it in any batch of two or more.  At the sampled
points the means are y - s (K_t + s I)^{-1} y, s the shift the factor's
diagonal holds, so the incumbent reads them in O(n).

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
_EPS = 2.0**-52  # float64's, the unit of _box_bound's and _mean_gap's margins
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


def _mean_margin(e_k: float, n: int, asum: float) -> float:
    """e_mu, a bound on |mu32 - mu64| at a point of the screen, from the
    bound e_k of kernels.screen_blocks on its n float32 kernel values and
    asum = sum|alpha|.  A float32 mean, sum_j k32_j alpha32_j, is within
    e_k sum|alpha| of the exact sum of the float64 kernel values, and it and
    a float64 sum each round by at most (n + 2) u32 sum|alpha|
    (u32 = 2^-24), so

        e_mu = (e_k + (n + 4) eps) sum|alpha| + 2 n tiny32,   eps = 2 u32,

    bounds |mu32 - mu64| with the rounding of mu32 + e_mu to spare; tiny32,
    float32's least normal value, covers products below its normal range.
    GpModel._mean_gap adds the float64 mean's own solve."""
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

    posterior_many gives means and stddevs, each column's bytes its own in
    any batch of two or more; posterior_argmax gives the argmax of a score
    of them: a sweep of kernels.screen_blocks' float32 kernel values bounds
    every query point's mean and stddev, and float64 posterior_many calls
    solve the O(n^2) triangular system only at the points whose bounds let
    them win; incumbent gives the sampled point of largest mean, in O(n)
    from the weights of the data."""

    def __init__(self, kernel: KernelSpec, lam: float):
        # with 1/lam infinite, the gain's log1p(var / lam) would be too
        if not (np.isfinite(lam) and lam > 0 and math.isfinite(1.0 / lam)):
            raise ValueError(f"regularizer must be positive with 1/lam finite, got {lam}")
        self.kernel = kernel
        self.lam = float(lam)
        self.n = 0  # the number of points, set with _X and by _refit
        self._X: np.ndarray | None = None  # (n, d)
        self._y: np.ndarray = np.zeros(0)
        # row-major lower factor L of K + (lam+jitter)*I, beta = L^{-1} y
        # and alpha = (K + (lam+jitter)*I)^{-1} y; _set_factor sets all three
        self._L: np.ndarray | None = None
        self._beta: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
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
        """Take L as the factor of the current data, set beta and alpha with
        it, and drop the incumbent and the box bound of the previous factor."""
        self._L = L
        self._beta = _solve_lower(L, self._y)
        self._alpha = _solve_lower(L, self._beta, trans=1)
        self._incumbent = self._bound = None

    def incumbent(self) -> tuple[np.ndarray, float] | None:
        """(x, mean) of the sampled point of largest posterior mean, the
        first on ties; None without data.  Computed once per factor, at its
        first read, so a split's children cost nothing more.  With s the
        shift on the factor's diagonal, (K + s I) alpha = y, so the means at
        the sampled points are K alpha = y - s alpha (Rasmussen and
        Williams, GPML, 2.2): O(n), and no kernel value is computed again.
        The diagonal holds 1 + (lam + jitter) rounded, so s is that less 1,
        a subtraction without rounding; lam + jitter itself would be off by
        that rounding, which a jitter refit's large alpha magnifies."""
        if self.n and self._incumbent is None:
            shift = (1.0 + (self.lam + self._jitter)) - 1.0
            means = self._y - shift * self._alpha
            i = int(np.argmax(means))
            self._incumbent = self._X[i].copy(), float(means[i])
        return self._incumbent

    def _block_posterior(self, kc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior (means v^T beta, stddevs sqrt(1 - v^T v)) at the columns
        of a kernel block, from one solve v = L^{-1} kc.  A column's bytes do
        not depend on the others of a block of two or more; dtrtrs rounds a
        single right-hand side differently."""
        v = _solve_lower(self._L, kc)
        var = np.einsum("ij,ij->j", v, v)
        np.subtract(1.0, var, out=var)
        return np.einsum("ij,i->j", v, self._beta), np.sqrt(np.maximum(var, 0.0, out=var))

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

        A column's mean and stddev bytes depend only on that column in a
        batch of two or more: posterior_many(xs[idx]) is posterior_many(xs)
        at idx for any idx of at least two entries."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2:
            xs = np.atleast_2d(xs)
        m = len(xs)
        if self.n == 0:
            return np.zeros(m), np.ones(m)
        blocks = cross_blocks(self.kernel, self._X, xs)
        if 0 < m < 2 * BLOCK:
            [(_, _, kc)] = blocks
            return self._block_posterior(kc)
        mean, std = np.empty(m), np.empty(m)
        for start, stop, kc in blocks:  # (n, block)
            mean[start:stop], std[start:stop] = self._block_posterior(kc)
            del kc  # freed before the next block is built
        return mean, std

    def _mean_gap(self) -> float:
        """A bound on |fl(v^T beta) - k^T alpha| at every kernel column k
        cross_matrix computes, how far posterior_many's mean may stray from
        the kernel sum the screen and _box_bound bound; inf where the shift
        s = (1 + (lam + jitter)) - 1 is too small.  In O(n), with eps = 2^-52
        and g = (n + 2) eps >= 2 gamma_{n+1} (Higham, Accuracy and Stability
        of Numerical Algorithms): the solves give (L + D2)^T alpha = beta and
        (L + D3) v = k, |D2|, |D3| <= gamma_n |L| (Thm 8.5), so v^T beta -
        k^T alpha = v^T (D2 - D3)^T alpha, and the dot product adds
        gamma_n |v| |beta|.  L L^T = K + s I + D, |D| <= gamma_{n+1} |L| |L^T|
        (Thm 10.3), so |L|_F^2 = tr(L L^T) <= F^2 = n (1 + s) (1 + g).  Off
        its unit diagonal K is within e = (d + 68) eps + 1e-12 of the kernel
        at the exact distances, a positive semidefinite matrix ((d + 4) eps
        for the distances' rounding, as s |dk/ds| < 1, 1e-12 for kernels'
        snap of scaled distances below 1e-12 to 0, as |dk/ds| <= 1, and
        64 eps for the evaluation, as in far_corner_kernels).  So sigma_min(L)^2
        >= sigma^2 = s - n e - g F^2 and, as |k| <= sqrt(n) (1 + e), |v| <= V
        = sqrt(n) (1 + e) / (sigma - g F):

            |fl(v^T beta) - k^T alpha| <= g V (|beta| + 2 F |alpha|),

        g's factor 2 covering this bound's own rounding.  Underflow, 2^-1075
        at most a product or quotient, moves the right-hand sides by at most
        (n + 2 F) sqrt(n) 2^-1075 in norm: the last term."""
        n, s = self.n, (1.0 + (self.lam + self._jitter)) - 1.0
        g, e = (n + 2) * _EPS, (self._X.shape[1] + 68) * _EPS + 1e-12
        f = math.sqrt(n * (1.0 + s) * (1.0 + g))
        sigma2 = s - n * e - g * f * f
        root = math.sqrt(sigma2) - g * f if sigma2 > 0 else 0.0
        if not root > 0:
            return math.inf
        v = math.sqrt(n) * (1.0 + e) / root
        anorm, bnorm = math.hypot(*self._alpha.tolist()), math.hypot(*self._beta.tolist())
        under = ((n + 2 * f) * math.sqrt(n) * (anorm + v) + n) * 2.0**-1074
        return g * v * (bnorm + 2 * f * anorm) + under

    def _screen(self, xs: np.ndarray):
        """(upper bounds on the means, upper bounds on the stddevs) at xs
        from one walk of kernels.screen_blocks' float32 kernel blocks, with
        the weights in float32, or None where it gives none, sum|alpha|
        reaches _SCREEN_ALPHA or _mean_gap is not finite.  A column's
        largest float64 kernel value is at least its float32 one less e_k,
        which _stddev_bound turns into a stddev bound."""
        asum, gap = float(np.sum(np.abs(self._alpha))), self._mean_gap()
        # false for NaN and inf too
        ok = asum < _SCREEN_ALPHA and gap < math.inf
        screen = screen_blocks(self.kernel, self._X, xs) if ok else None
        if screen is None:
            return None
        e_k, blocks = screen
        alpha = self._alpha.astype(np.float32)
        high, kmax = np.empty(len(xs), np.float32), np.empty(len(xs))
        for start, stop, kc in blocks:  # (n, block)
            np.matmul(kc.T, alpha, out=high[start:stop])
            kmax[start:stop] = np.max(kc, axis=0)
        kmax -= e_k
        high = high.astype(float) + (_mean_margin(e_k, self.n, asum) + gap)
        return high, self._stddev_bound(np.maximum(kmax, 0.0, out=kmax))

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
        and _mean_margin's e_mu plus _mean_gap of the float64 ones; the
        eight points of largest bound (the bound may rank the best below a
        few others) are scored exactly to set that threshold, and one
        posterior_many call solves the points that pass it, a lone one
        beside a copy of itself, so that all read as in the full pass.
        While the threshold is at or below _SCORE_FLOOR every point is kept."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        screen = self._screen(xs) if self.n and len(xs) >= 2 * BLOCK else None
        if screen is None:
            return None
        bound = score(*screen)
        seeds = np.argpartition(bound, -8)[-8:]
        top = float(np.max(score(*self.posterior_many(xs[seeds]))))
        keep = np.flatnonzero(_reach(bound) >= top)
        values = score(*self.posterior_many(xs[keep if len(keep) > 1 else np.repeat(keep, 2)]))
        i = int(np.argmax(values))
        return int(keep[i]), float(values[i])

    def _box_bound(self, lower, upper) -> tuple[float, float]:
        """(mean bound, stddev bound) over the box [lower, upper] for a
        model with data: no mean or stddev posterior_many computes at a point
        of the box, or one ulp outside it, exceeds them.  There every
        computed k(x, x_j) lies in [far_j - e_k, 1 + e_k], with (e_k, far)
        from kernels.far_corner_kernels, so the mean is at most sum_j
        alpha_j (1 if alpha_j > 0 else far_j) plus (2 e_k + (n + 4) eps)
        sum|alpha|, for e_k twice and the sums' rounding, plus _mean_gap, and
        the variance _stddev_bound's one-point rule at max_j far_j - e_k; in
        Python floats, as numpy calls on a cell's few points cost more."""
        e_k, far = far_corner_kernels(self.kernel, self._X, lower, upper)
        mean = asum = 0.0
        for wj, kj in zip(self._alpha.tolist(), far):
            mean += wj if wj > 0 else wj * kj
            asum += abs(wj)
        mean += (2 * e_k + (self.n + 4) * _EPS) * asum + self._mean_gap()
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
        the least jitter of _JITTER_LADDER that factors, and set n from _X."""
        K = gram_matrix(self.kernel, self._X)
        self.n = len(K)
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
        """Condition on one more (x, y) pair; O(n^2) extension of the factor
        by the point's kernel column.

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
