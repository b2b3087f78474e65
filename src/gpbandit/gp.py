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

which equals 1/2 * ln det(I + K_t / lam) as long as no jitter refit has
happened; after one, the two differ, and the running sum is the value kept.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lapack

from .kernels import KernelSpec, cross_matrix, gram_matrix

_JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6)
_PIVOT_FLOOR = 1e-14
# posterior_many scores query points in column blocks of this many: at
# n <= ~100 observations an n x _BLOCK float64 kernel block (400 KB at n=100)
# stays in L2 through the kernel's elementwise passes and the solve.  A
# multiple of 4, so that block edges never cut BLAS's 4-row unrolling.
_BLOCK = 512


class GpNumericsError(RuntimeError):
    """Cholesky factorization failed even with jitter."""

    def __init__(self, message: str, pivot_index: int | None = None):
        super().__init__(message)
        self.pivot_index = pivot_index


def _cholesky_lower(a: np.ndarray) -> np.ndarray:
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
    return c


def _solve_lower(L: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """x with L x = b (trans=0) or L^T x = b (trans=1); L lower triangular.

    Makes the LAPACK dtrtrs call scipy.linalg.solve_triangular makes for L's
    memory order, so the result is the same to the bit, without that
    wrapper's per-call validation.  L is checked finite where it is built;
    b is checked here.
    """
    if not np.isfinite(b).all():
        raise ValueError("right-hand side of a triangular solve must be finite")
    if L.flags.f_contiguous:
        x, info = lapack.dtrtrs(L, b, lower=1, trans=trans)
    else:
        x, info = lapack.dtrtrs(L.T, b, lower=0, trans=1 - trans)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular factor at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"bad argument {-info} to dtrtrs")
    return x


class GpModel:
    """GP regressor owned by a single run loop; posterior reads are const."""

    def __init__(self, kernel: KernelSpec, lam: float):
        if not (np.isfinite(lam) and lam > 0):
            raise ValueError(f"regularizer must be positive, got {lam}")
        self.kernel = kernel
        self.lam = float(lam)
        self._X: np.ndarray | None = None  # (n, d)
        self._y: np.ndarray = np.zeros(0)
        self._L: np.ndarray | None = None  # lower factor of K + (lam+jitter)*I
        self._jitter = 0.0  # added by the last refit; extensions keep it
        self._alpha: np.ndarray | None = None  # (K + (lam+jitter)*I)^{-1} y
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

    def _ensure_alpha(self) -> np.ndarray:
        if self._alpha is None:
            z = _solve_lower(self._L, self._y)
            self._alpha = _solve_lower(self._L, z, trans=1)
        return self._alpha

    def posterior_many(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Posterior (means, stddevs) at a batch of query points."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        m = xs.shape[0]
        if self.n == 0:
            return np.zeros(m), np.ones(m)
        alpha = self._ensure_alpha()
        mean = np.empty(m)
        var = np.empty(m)
        # blocks of _BLOCK columns; the remainder joins the last block, since
        # a narrow tail block would take other BLAS paths (gemv's row tail,
        # dtrtrs's single right-hand side) and round its columns differently
        # from one call over all m
        start = 0
        while start < m:
            stop = start + _BLOCK if m - start >= 2 * _BLOCK else m
            kc = cross_matrix(self.kernel, self._X, xs[start:stop])  # (n, block)
            np.matmul(kc.T, alpha, out=mean[start:stop])
            v = _solve_lower(self._L, kc)
            np.einsum("ij,ij->j", v, v, out=var[start:stop])
            del kc, v  # freed before the next block is built
            start = stop
        np.subtract(1.0, var, out=var)
        return mean, np.sqrt(np.maximum(var, 0.0, out=var))

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
                self._L = _cholesky_lower(A)
                self._jitter = jitter
                self._alpha = None
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
            self._L = np.array([[math.sqrt(1.0 + self.lam)]])
            self._alpha = None
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
        self._L = L
        self._alpha = None
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
