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
import threading
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

# the least positive normal double; a smaller Matern coefficient has lost bits
_TINY = np.finfo(float).tiny

# the Debye polynomials of the uniform large-order expansion of K_nu (DLMF
# 10.41.10), u_k(p) = p^k * polyval(coefficients, p^2) / denominator
_DEBYE_U = (
    (1, (1,)),
    (24, (-5, 3)),
    (1152, (385, -462, 81)),
    (414720, (-425425, 765765, -369603, 30375)),
    (39813120, (185910725, -446185740, 349922430, -94121676, 4465125)),
    (6688604160, (-188699385875, 566098157625, -614135872350, 284499769554,
                  -49286948607, 1519035525)),
)

# exp(-c) is exactly 0 for c >= 745.2, so the SE and closed-form Matern values
# are exactly 0 from this scaled distance on; clamping there keeps r / l,
# s * s and c * c from overflowing into inf * 0
_EXP_ZERO = 745.2

# cross_blocks builds a kernel matrix in column blocks of this many, so a
# caller holds a few n x BLOCK float64 arrays (400 KB each at n = 100)
# however many columns it asks for.  Each block is a fresh array; its
# temporaries live in the per-thread scratch below.
BLOCK = 512

# A temporary of _SCRATCH_MIN to _SCRATCH_MAX float64 elements' bytes is a view
# of a per-thread scratch buffer kept between calls, as are screen_blocks'
# float32 blocks (661 requests in a GP-EI Hartmann-3 run of T = 100, against
# 0-20 float64 ones).  Freed, such blocks go back to the OS (from 128 KiB,
# glibc's mmap threshold) and fault their pages in again: gen-rkhs at its
# defaults, whose targets take the float64 views, runs 0.40 s with ~5k minor
# faults, and 0.46-0.49 s with ~100k with them fresh.  Smaller temporaries
# are fresh arrays, whose memory malloc reuses without faults; the lookup
# would only slow a cover search's many small calls.  Larger ones (4 MiB:
# n x BLOCK blocks reach it at n = 1024) are fresh too, so that a one-shot
# call, such as a target's dense optimum search, neither raises its peak nor
# leaves its temporaries behind: a thread keeps at most two of these, 8 MiB.
_SCRATCH_MIN = 16384
_SCRATCH_MAX = 1024 * BLOCK
_SCRATCH_BYTES = (8 * _SCRATCH_MIN, 8 * _SCRATCH_MAX)
_scratch = threading.local()

# screen_blocks' closed forms clamp where their exp argument reaches -87:
# exp(-87) ~ 1.6e-38 is float32's least normal order, so no value is
# subnormal, whose arithmetic is slow on x86.  What the clamp cuts off is
# below 5e-35 (nu = 5/2's polynomial times exp(-87)), far inside e_k.
_EXP_NORMAL32 = 87.0
# screen_blocks' blocks hold about this many kernel values, and at least
# BLOCK columns: wider blocks at small n spread each pass's per-call cost
# over more columns, and blocks this size keep a block's float64 product
# (512 KiB) in cache
_SCREEN_PAIRS = 2**16
# screen_blocks screens while c * sqrt(d) < _SCREEN_COORDS (c the largest
# |coordinate|) and the lengthscale is in _SCREEN_LENGTHS: then the shifted,
# scaled coordinates stay below 1e48 and the squared distances of its
# float64 products far inside float64's range
_SCREEN_COORDS = 1e18
_SCREEN_LENGTHS = (1e-30, 1e30)


def _scratch_out(like: np.ndarray, count: int) -> tuple:
    """_scratch_views(like.shape, like.dtype, count), with the byte range
    checked from the array itself first: most temporaries are far below
    it, and the arithmetic would slow a cover search's many small calls."""
    if not _SCRATCH_BYTES[0] <= like.nbytes <= _SCRATCH_BYTES[1]:
        return (None,) * count
    return _scratch_views(like.shape, like.dtype, count)


def _scratch_views(shape: tuple, dtype, count: int) -> tuple:
    """`count` C-order views of this thread's scratch buffer, each of
    `shape` and `dtype` and none overlapping another, the first at the
    buffer's start, or `count` Nones outside _SCRATCH_MIN to _SCRATCH_MAX
    float64 elements' bytes: passed as a ufunc's `out`, None has it
    allocate a fresh array.  A view is valid until the next call in this
    thread, so it may neither outlive the function that took it nor be
    returned."""
    dtype = np.dtype(dtype)
    size = math.prod(shape)
    nbytes = size * dtype.itemsize
    if not _SCRATCH_BYTES[0] <= nbytes <= _SCRATCH_BYTES[1]:
        return (None,) * count
    need = -(-count * nbytes // 8)  # float64 elements
    buf = getattr(_scratch, "buf", None)
    if buf is None:
        buf = _scratch.buf = np.empty(need)
    elif buf.size < need:
        # grown by at least a quarter: the GP gains one point per step, so
        # its blocks grow a little each time.  The first buffer is exact, so
        # a first call peaks where fresh temporaries would.
        grown = max(need, min(buf.size + buf.size // 4, 2 * _SCRATCH_MAX))
        buf = _scratch.buf = None  # freed before its successor is allocated
        buf = _scratch.buf = np.empty(grown)
    if dtype != buf.dtype:
        buf = buf.view(dtype)
    return tuple(buf[i * size:(i + 1) * size].reshape(shape) for i in range(count))


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
    """Closed forms for nu in {1/2, 3/2, 5/2}; s = r / l, overwritten.

    nu = 3/2 and 5/2 scale s by -sqrt(3) or -sqrt(5), which is -c exactly, so
    that exp takes it directly and 1 + c is formed as 1 - (-c), to the same
    bits: one elementwise pass fewer than negating c."""
    if nu == 0.5:
        return np.exp(np.negative(s, out=s), out=s)
    if nu == 1.5:
        c = np.multiply(s, -math.sqrt(3.0), out=s)  # -c
        [e] = _scratch_out(c, 1)
        e = np.exp(c, out=e)
        np.subtract(1.0, c, out=c)
        c *= e
        return c  # (1 + c) * exp(-c)
    if nu == 2.5:
        c = np.multiply(s, -math.sqrt(5.0), out=s)  # -c
        q, e = _scratch_out(c, 2)
        q = np.multiply(c, c, out=q)
        q /= 3.0
        e = np.exp(c, out=e)
        np.subtract(1.0, c, out=c)
        c += q
        c *= e
        return c  # (1 + c + c^2 / 3) * exp(-c)
    raise ValueError(f"no closed form for nu={nu}")


def _debye_log_kve(nu: float, z: np.ndarray) -> np.ndarray:
    """log(K_nu(z) e^z) from the uniform large-order expansion (DLMF 10.41.4)
    to six terms, for the large nu where kve itself overflows.  Good to
    about 1e-10 relative from nu ~ 25, the least order at which kve
    overflows for a z the kernel passes (z >= sqrt(2 nu) * 1e-12)."""
    x = z / nu
    w = np.sqrt(1.0 + x * x)
    p = 1.0 / w
    series = np.zeros_like(p)
    for k in reversed(range(len(_DEBYE_U))):
        den, coeffs = _DEBYE_U[k]
        series = series / -nu + p**k * np.polyval(coeffs, p * p) / den
    eta = w + np.log(x / (1.0 + w))
    return (0.5 * math.log(math.pi / (2.0 * nu)) - nu * eta - 0.5 * np.log(w)
            + np.log(series) + z)


def _matern_bessel(s: np.ndarray, nu: float) -> np.ndarray:
    """General-nu Matern via the modified Bessel function; s = r / l, s > 0.

    Uses the standard sqrt(2 nu) argument scaling, so nu = 1/2 reduces to
    exp(-r/l) and the half-integer closed forms agree with this route.
    """
    # in the scratch that cross_matrix's squares were in, so that this route
    # peaks where it did when they were freed
    [z] = _scratch_out(s, 1)
    with np.errstate(over="ignore"):
        # inf past the float range; K_nu(inf) = 0
        z = np.multiply(math.sqrt(2.0 * nu), s, out=z)
    with np.errstate(all="ignore"):
        # 0 once Gamma(nu) overflows, from nu ~ 171.6
        coef = 2.0 ** (1.0 - nu) / _gamma(nu)
        k = _bessel_kv(nu, z)
        # kv flushes to 0 from z ~ 698, where z^nu may overflow: 1 stands
        # in for it, giving 0, not inf * 0
        out = np.asarray(coef * np.power(np.where(k == 0.0, 1.0, z), nu) * k)
    # that product is lost where kv flushed to 0 (the Matern value stays
    # nonzero to z ~ 750 at nu = 1.5), where the coefficient fell below the
    # normal range (nu > ~151), or where kv or z^nu overflowed (large nu at
    # short distances); take it there in log form, from the scaled
    # kve(nu, z) = kv(nu, z) * e^z while that is finite
    logged = (z < _KVE_LIMIT) & ((k == 0.0) | (coef < _TINY) | ~np.isfinite(out))
    if logged.any():
        zl = z[logged]
        log_coef = (1.0 - nu) * math.log(2.0) - math.lgamma(nu)
        log_kve = np.log(_bessel_kve(nu, zl))
        big = np.isinf(log_kve)
        if big.any():
            log_kve[big] = _debye_log_kve(nu, zl[big])
        out[logged] = np.exp(log_coef + nu * np.log(zl) + log_kve - zl)
    if not np.isfinite(out).all():
        raise OverflowError(f"Bessel evaluation out of range for nu={nu}")
    return out


def _check_inputs(inputs) -> None:
    for a in inputs:
        if not np.isfinite(a).all():
            raise ValueError("kernel inputs must be finite")


def _kernel_in_place(spec: KernelSpec, r: np.ndarray, inputs=()) -> np.ndarray:
    """Kernel values at the distances in the float64 array `r`, written
    over it.

    `inputs` are the point sets r was measured between, scanned for a value
    that is not finite only where they cannot show in r: r is empty, or a
    distance fails the check below, which every such value makes fail."""
    if not r.size:
        _check_inputs(inputs)
        return r
    # one min/max pair rejects negative, infinite and NaN distances (min and
    # max propagate NaN) and says which of the passes below can change
    # anything; min(r) / l is min(r / l), as division by l > 0 is monotone
    lo, hi = float(r.min()), float(r.max())
    if not (lo >= 0.0 and hi < math.inf):
        _check_inputs(inputs)
        raise ValueError("distances must be finite and nonnegative")
    ell = spec.lengthscale
    closed_form = spec.family == SQUARED_EXPONENTIAL or spec.nu in _HALF_INTEGER_NUS
    if closed_form:
        if hi > _EXP_ZERO * ell:
            np.minimum(r, _EXP_ZERO * ell, out=r)
        s = np.divide(r, ell, out=r)
    else:
        # unclamped on the Bessel route, where r / l = inf gives the exact 0
        with np.errstate(over="ignore"):
            s = np.divide(r, ell, out=r)
    if spec.family == SQUARED_EXPONENTIAL:
        np.multiply(s, s, out=s)
        s *= -0.5
        return np.exp(s, out=s)  # exp(-s^2 / 2)
    snap = lo / ell < _ZERO_SNAP
    if snap:
        zero = s < _ZERO_SNAP
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


def _kernel_values(spec: KernelSpec, r: list[float]) -> list[float]:
    """kernel_of_distance at far_corner_kernels' few distances r >= 0, as
    floats: the Matern 3/2 and 5/2 forms, the closed forms a cover run can
    use (RunConfig takes nu > 1 there), take _kernel_in_place's scalar
    operations in its order, with math.exp for np.exp, so each value is
    within a few ulps of that route's; every other kernel is that route."""
    if spec.family != MATERN or spec.nu not in (1.5, 2.5):
        return kernel_of_distance(spec, r).tolist()
    ell, nu = spec.lengthscale, spec.nu
    out = []
    for s in r:
        s = min(s, _EXP_ZERO * ell) / ell
        if s < _ZERO_SNAP:
            out.append(1.0)
        elif nu == 1.5:
            c = s * -math.sqrt(3.0)  # -c, as _matern_half_integer forms it
            out.append((1.0 - c) * math.exp(c))
        else:
            c = s * -math.sqrt(5.0)
            out.append((1.0 - c + c * c / 3.0) * math.exp(c))
    return out


def far_corner_kernels(spec: KernelSpec, X: np.ndarray, lower, upper):
    """(e_k, far): far_j, as a float, the kernel value at the distance from
    the row x_j of the 2-D float64 array X to the farthest corner of the box
    [lower, upper], and e_k such that every value cross_matrix computes
    between x_j and a point of the box, or one ulp outside it, lies in
    [far_j - e_k, 1 + e_k], as the kernel is at most 1 and decreases with
    distance.  That distance is measured from the box widened by one ulp a
    side and stretched by (d + 4) eps, eps = 2^-52, which covers its own
    rounding and that of cross_matrix's; the closed forms and the Bessel
    route stray by a few eps, which e_k = 64 eps covers twice over.  In
    Python floats: on a cell's handful of points numpy calls cost more.
    lower and upper are d floats each: tuples, as a cell keeps its box, or
    1-D arrays."""
    return 64 * 2.0**-52, _kernel_values(spec, _far_corner_distances(X, lower, upper))


def _far_corner_distances(X: np.ndarray, lower, upper) -> list[float]:
    """For each row x_j of X, a float at least the exact distance from x_j
    to the farthest corner of the box [lower, upper] widened by one ulp a
    side: the computed distance stretched by (d + 4) eps, eps = 2^-52, past
    the rounding of its own differences, sum and square root and of
    cross_matrix's (see far_corner_kernels)."""
    low = [math.nextafter(a, -math.inf) for a in lower]
    high = [math.nextafter(b, math.inf) for b in upper]
    stretch = 1.0 + (X.shape[1] + 4) * 2.0**-52
    r = []
    for row in X.tolist():
        sq = 0.0
        for x, a, b in zip(row, low, high):
            side = max(x - a, b - x)  # to the farthest face
            sq += side * side
        r.append(math.sqrt(sq) * stretch)
    return r


def cross_matrix(spec: KernelSpec, xs, ys) -> np.ndarray:
    """Covariance matrix between two point sets, shape (len(xs), len(ys)).

    Squared coordinate differences are summed one coordinate at a time, in
    coordinate order, into a single (n, m) buffer that the kernel then
    overwrites: no (n, m, d) array is built, and the rounding of a distance
    does not depend on how a vectorized reduction would order the sum.  That
    buffer is the result, a fresh array the caller owns.  The (n, m)
    temporaries beside it (one square, and the closed-form Matern's exp and
    c^2 terms, or the Bessel route's scaled distance) are reused between
    calls of this thread when they hold 16,384 to 2^19 elements (128 KiB to
    4 MiB), which changes where they are stored, not a bit of the result.
    Inputs of any numeric dtype are taken as float64, and so is the result.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2:
        xs = np.atleast_2d(xs)
    if ys.ndim != 2:
        ys = np.atleast_2d(ys)
    d = xs.shape[1]
    if ys.shape[1] != d:
        raise ValueError(f"dimension mismatch: {d} vs {ys.shape[1]}")
    if d == 0:
        raise ValueError("kernel inputs need at least one coordinate")
    # a NaN or infinite input makes every distance it enters NaN or inf,
    # which the distance check in _kernel_in_place rejects; the inputs are
    # scanned only then, to say which check failed
    return _kernel_in_place(spec, _distances(xs, ys), (xs, ys))


# the decorator form enters errstate at about 0.4 us less per call than a
# with statement
@np.errstate(over="ignore", invalid="ignore")
def _distances(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of two 2-D float64 arrays.  A
    square overflows to inf beyond |difference| ~ 1e154, and inf - inf is
    NaN; neither warns, as the caller's distance check rejects both."""
    # the first coordinate's square starts the sum, as 0 + a == a
    r = np.subtract(xs[:, 0, None], ys[None, :, 0])
    np.multiply(r, r, out=r)
    if xs.shape[1] > 1:
        [sq] = _scratch_out(r, 1)
        for k in range(1, xs.shape[1]):
            sq = np.subtract(xs[:, k, None], ys[None, :, k], out=sq)
            np.multiply(sq, sq, out=sq)
            r += sq
        del sq  # the kernel's temporaries may take its memory
    return np.sqrt(r, out=r)


def cross_blocks(spec: KernelSpec, xs, ys):
    """(start, stop, cross_matrix(spec, xs, ys[start:stop])) over blocks of
    BLOCK rows of ys, the remainder joining the last block, since a tail
    block of one column would take dtrtrs's single right-hand side path and
    round it differently from one call over them all.  The caller drops
    each block before the next."""
    start, m = 0, len(ys)
    while start < m:
        stop = start + BLOCK if m - start >= 2 * BLOCK else m
        yield start, stop, cross_matrix(spec, xs, ys[start:stop])
        start = stop


def gram_matrix(spec: KernelSpec, points) -> np.ndarray:
    """Symmetric PSD covariance matrix of a point set, unit diagonal.

    Both hold exactly: fl(a - b) = -fl(b - a), `cross_matrix` sums the squares
    in one coordinate order, and the kernel is exactly 1 at distance 0.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] < 1:
        raise ValueError("need at least one point")
    return cross_matrix(spec, points, points)


def screen_blocks(spec: KernelSpec, X: np.ndarray, xs: np.ndarray):
    """(e_k, blocks): float32 kernel values between the rows of the 2-D
    float64 arrays X and xs, and a bound e_k on how far each strays from
    cross_matrix's; None for a Matern nu other than 1/2, 3/2 and 5/2, or
    for coordinates or a lengthscale outside the guards at the end.

    blocks yields (start, stop, k32) over column blocks of xs, each k32 of
    shape (len(X), stop - start) from one float64 product, rounded to
    float32 once and clamped.  Where _scratch_views serves their size,
    every temporary and k32 itself are views of this thread's scratch,
    valid until the next block: the product's float64 block at its start,
    where the closed forms' float32 temporaries later go, and k32 after it.

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

    a bound on |k32 - k64| at every pair free of the kernel.  The guard
    _SCREEN_COORDS on the coordinates as given (c sqrt(d), with c the
    largest |coordinate|) keeps t finite for any lengthscale in
    _SCREEN_LENGTHS."""
    if spec.family == MATERN and spec.nu not in _HALF_INTEGER_NUS:
        # the Bessel route: its kv calls would cost the screen what the full
        # pass costs, and below nu = 1/2 |dk/ds| is unbounded at s = 0
        return None
    n, d = X.shape
    # NaN if xs has one
    lo = np.minimum(np.min(X), np.min(xs))
    hi = np.maximum(np.max(X), np.max(xs))
    c = float(np.maximum(-lo, hi))
    ell = spec.lengthscale
    # false for NaN and inf too
    if not (c * math.sqrt(d) < _SCREEN_COORDS and _SCREEN_LENGTHS[0] < ell < _SCREEN_LENGTHS[1]):
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
    e_t = 5 * (d + 2) * 2.0**-53 * (float(np.max(A[d])) + float(np.max(B[d + 1])))
    return math.sqrt(e_t) + 16 * 2.0**-23, _float32_blocks(spec, A, B)


def _float32_blocks(spec: KernelSpec, A: np.ndarray, B: np.ndarray):
    """screen_blocks' blocks for its operands A and B: t clamped to [0, far],
    then SE as exp(-t / 2) and the Matern closed forms at s = sqrt(t), whose
    two temporaries at most fill the dead float64 product, never k32."""
    n = A.shape[1]
    if spec.family == SQUARED_EXPONENTIAL:
        far = 2.0 * _EXP_NORMAL32
    else:
        far = _EXP_NORMAL32 * _EXP_NORMAL32 / (2.0 * spec.nu)
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
        if spec.family == SQUARED_EXPONENTIAL:
            k *= -0.5
            yield start, stop, np.exp(k, out=k)
        else:
            yield start, stop, _matern_half_integer(np.sqrt(k, out=k), spec.nu)
