import itertools
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpbandit import kernels
from gpbandit.kernels import (
    MATERN,
    SQUARED_EXPONENTIAL,
    KernelSpec,
    cross_matrix,
    gram_matrix,
    kernel_of_distance,
)

from bessel_reference import matern_via_bessel

SPECS = [
    KernelSpec(SQUARED_EXPONENTIAL, 0.3),
    KernelSpec(MATERN, 0.2, 0.5),
    KernelSpec(MATERN, 0.2, 1.5),
    KernelSpec(MATERN, 0.2, 2.5),
    KernelSpec(MATERN, 0.3, 1.2),
]


@pytest.fixture
def matern25():
    return KernelSpec(MATERN, 0.2, 2.5)


@pytest.fixture
def se1():
    return KernelSpec(SQUARED_EXPONENTIAL, 1.0)


class TestKernelEval:
    def test_distance_zero_is_one(self, se1, matern25):
        x = np.array([[0.3, -1.2, 4.0]])
        assert cross_matrix(se1, x, x).tolist() == [[1.0]]
        assert cross_matrix(matern25, x, x).tolist() == [[1.0]]

    def test_matern_half_is_exponential(self):
        # nu = 1/2 reduces to exp(-r/l); at r = l the value is e^-1
        spec = KernelSpec(MATERN, 0.7, 0.5)
        got = float(kernel_of_distance(spec, 0.7))
        assert got == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_matern_52_closed_form_vs_bessel(self, matern25):
        got = float(cross_matrix(matern25, [[0.2, 0.0]], [[0.0, 0.0]])[0, 0])
        closed = (1 + math.sqrt(5) + 5.0 / 3.0) * math.exp(-math.sqrt(5))
        assert got == pytest.approx(closed, abs=1e-12)
        via_bessel = float(matern_via_bessel(matern25, 0.2))
        assert abs(got - via_bessel) < 1e-10

    def test_se_at_one_lengthscale(self, se1):
        got = float(kernel_of_distance(se1, 1.0))
        assert got == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_symmetry(self, matern25):
        rng = np.random.default_rng(0)
        xs, ys = rng.uniform(size=(20, 3)), rng.uniform(size=(20, 3))
        np.testing.assert_array_equal(
            cross_matrix(matern25, xs, ys), cross_matrix(matern25, ys, xs).T)

    def test_bounds(self, se1, matern25):
        rng = np.random.default_rng(1)
        for spec in (se1, matern25):
            xs, ys = rng.uniform(-2, 2, (50, 4)), rng.uniform(-2, 2, (50, 4))
            v = np.diagonal(cross_matrix(spec, xs, ys))
            assert np.all((0.0 < v) & (v <= 1.0))
            distinct = ~np.all(np.isclose(xs, ys), axis=1)
            assert np.all(v[distinct] < 1.0)

    def test_monotone_decay(self, se1, matern25):
        radii = np.linspace(0.01, 3.0, 200)
        for spec in (se1, matern25):
            vals = cross_matrix(spec, radii[:, None], [[0.0]])[:, 0]
            assert np.all(np.diff(vals) < 0)

    def test_nonfinite_rejected(self, se1):
        with pytest.raises(ValueError):
            cross_matrix(se1, [[np.nan]], [[0.0]])
        with pytest.raises(ValueError):
            cross_matrix(se1, [[np.inf]], [[0.0]])

    def test_dimension_mismatch(self, se1):
        with pytest.raises(ValueError):
            cross_matrix(se1, np.zeros((1, 2)), np.zeros((1, 3)))


class TestHalfIntegerForms:
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_agrees_with_bessel_route(self, nu):
        spec = KernelSpec(MATERN, 0.3, nu)
        rng = np.random.default_rng(7)
        radii = rng.uniform(1e-6, 10 * spec.lengthscale, 1000)
        closed = kernel_of_distance(spec, radii)
        bessel = matern_via_bessel(spec, radii)
        assert np.max(np.abs(closed - bessel)) < 1e-10

    @pytest.mark.parametrize("nu", [1.5, 2.5])
    def test_agrees_with_bessel_route_where_kv_underflows(self, nu):
        # scipy's kv flushes to 0 from z = sqrt(2 nu) r / l ~ 698, while the
        # Matern value stays a normal double past z = 705
        spec = KernelSpec(MATERN, 1.0, nu)
        radii = np.linspace(690.0, 705.0, 151) / math.sqrt(2.0 * nu)
        closed = kernel_of_distance(spec, radii)
        assert np.all(closed >= np.finfo(float).tiny)
        np.testing.assert_allclose(matern_via_bessel(spec, radii), closed,
                                   rtol=1e-9, atol=0)


def _matern_mp(mpmath, nu, r):
    """The Matern value at distance r, lengthscale 1, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        nu = mpmath.mpf(nu)
        z = mpmath.sqrt(2 * nu) * mpmath.mpf(float(r))
        return float(2 ** (1 - nu) / mpmath.gamma(nu) * z**nu * mpmath.besselk(nu, z))


class TestLargeNu:
    # the coefficient 2^(1-nu) / Gamma(nu) leaves the normal range from
    # nu ~ 151 and Gamma(nu) overflows from nu ~ 171.6, while kv(nu, z) and
    # z^nu overflow at short distances; the value is still a plain double
    @pytest.mark.parametrize("nu", [50, 150, 156, 170, 171, 200])
    def test_agrees_with_mpmath(self, nu):
        mpmath = pytest.importorskip("mpmath")
        radii = [0.1, 0.5, 2.0]
        got = kernel_of_distance(KernelSpec(MATERN, 1.0, nu), radii)
        want = [_matern_mp(mpmath, nu, r) for r in radii]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("nu", [30, 60])
    def test_agrees_with_mpmath_where_kv_overflows(self, nu):
        mpmath = pytest.importorskip("mpmath")
        radii = np.logspace(-11, -3, 9)
        got = kernel_of_distance(KernelSpec(MATERN, 1.0, nu), radii)
        want = [_matern_mp(mpmath, nu, r) for r in radii]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


def _spec_id(spec):
    return spec.family if spec.nu is None else f"{spec.family}{spec.nu}"


def fresh_cross_matrix(spec, xs, ys):
    """cross_matrix with every pass made unconditionally and every temporary
    a fresh array: a zero-filled sum of squares, the far clamp, the zero snap
    and the closed forms written out, with the same ufuncs in the same order
    on the same operands as the library."""
    d = xs.shape[1]
    r = np.zeros((len(xs), len(ys)))
    for k in range(d):
        r += np.square(xs[:, k, None] - ys[None, :, k])
    r = np.sqrt(r)
    closed = spec.family == SQUARED_EXPONENTIAL or spec.nu in (0.5, 1.5, 2.5)
    if closed:
        r = np.minimum(r, kernels._EXP_ZERO * spec.lengthscale)
    with np.errstate(over="ignore"):
        s = r / spec.lengthscale
    if spec.family == SQUARED_EXPONENTIAL:
        return np.exp(s * s * -0.5)
    zero = s < kernels._ZERO_SNAP
    s = np.where(zero, 1.0, s)
    if spec.nu == 0.5:
        s = np.exp(-s)
    elif spec.nu == 1.5:
        c = s * math.sqrt(3.0)
        s = (c + 1.0) * np.exp(-c)
    elif spec.nu == 2.5:
        c = s * math.sqrt(5.0)
        s = (c + 1.0 + c * c / 3.0) * np.exp(-c)
    else:
        s = kernels._matern_bessel(s, spec.nu)
    return np.where(zero, 1.0, s)


class TestCrossMatrix:
    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    @pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
    def test_matches_per_pair_loop(self, spec, d):
        rng = np.random.default_rng(d)
        xs = rng.uniform(size=(9, d))
        ys = np.vstack([rng.uniform(size=(12, d)), xs[:3]])
        K = cross_matrix(spec, xs, ys)
        assert K.shape == (9, 15)
        ref = np.array([
            [float(kernel_of_distance(spec, math.dist(x, y))) for y in ys]
            for x in xs
        ])
        assert np.max(np.abs(K - ref)) <= 1e-15

    @pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
    def test_one_at_coincident_and_snapped_pairs(self, spec):
        xs = np.array([[0.1, 0.2, 0.3], [0.7, 0.5, 0.9]])
        below_snap = xs + np.array([1e-14, 0.0, -1e-14])
        K = cross_matrix(spec, xs, np.vstack([xs, below_snap]))
        np.testing.assert_array_equal(K[:, :2].diagonal(), [1.0, 1.0])
        np.testing.assert_array_equal(K[:, 2:].diagonal(), [1.0, 1.0])
        assert K[0, 1] < 1.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cross_matrix(SPECS[0], np.zeros((4, 2)), np.zeros((5, 3)))

    def test_points_without_coordinates_raise(self):
        with pytest.raises(ValueError, match="coordinate"):
            cross_matrix(SPECS[0], np.zeros((4, 0)), np.zeros((5, 0)))

    @pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
    def test_distance_overflow_raises(self, spec):
        xs = np.array([[1e200, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            cross_matrix(spec, xs, -xs)

    @pytest.mark.parametrize("spec", SPECS[:4], ids=_spec_id)
    def test_far_pairs_are_exactly_zero(self, spec):
        # c * c (or r / l) would overflow; exp(-c) is already 0 there
        r = [745.2 * spec.lengthscale, 1e155, 1e300, 1e308, np.finfo(float).max]
        assert kernel_of_distance(spec, r).tolist() == [0.0] * 5
        assert cross_matrix(spec, [[1e153]], [[-1e153]]).tolist() == [[0.0]]

    def test_bessel_far_values_are_exactly_zero(self):
        # z^nu overflows and r / l may too, where K_nu is already 0; the
        # suite turns any RuntimeWarning into an error
        spec = KernelSpec(MATERN, 0.2, 1.2)
        r = [1e250, 1e300, 1e308, np.finfo(float).max]
        assert kernel_of_distance(spec, r).tolist() == [0.0] * 4
        assert matern_via_bessel(spec, r).tolist() == [0.0] * 4

    def test_far_clamp_leaves_nonzero_values(self):
        assert kernel_of_distance(KernelSpec(MATERN, 1.0, 0.5), 745.0) == math.exp(-745.0) > 0

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
    def test_trimmed_passes_keep_the_bits(self, spec, d):
        # against every pass made unconditionally: a zero-filled sum of
        # squares, the far clamp and the zero snap; coincident pairs, pairs
        # below the snap and pairs past the clamp included
        rng = np.random.default_rng(d)
        xs = rng.uniform(size=(30, d))
        ys = np.vstack([rng.uniform(size=(40, d)), xs[:3], xs[3:6] + 1e-14,
                        xs[6:8] + 1e3])
        for a, b in ((xs, ys), (ys, xs), (xs[:1], ys), (xs, ys[:1]), (ys[:5], ys[5:])):
            assert cross_matrix(spec, a, b).tobytes() == fresh_cross_matrix(spec, a, b).tobytes()

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
    def test_reused_temporaries_keep_the_bits(self, spec, d):
        # blocks below, at and above the size from which temporaries come
        # from the scratch buffer (127 x 129 is one element short of it,
        # 32 x 512 reaches it), growing it and then fitting inside it
        assert kernels._SCRATCH_MIN == 128 * 128
        rng = np.random.default_rng(10 + d)
        xs = rng.uniform(size=(130, d))
        ys = np.vstack([rng.uniform(size=(700, d)), xs[:4], xs[4:6] + 1e-14])
        shapes = [(2, 3), (127, 129), (32, 512), (1, 706), (64, 706), (130, 706)]
        for n, m in shapes + shapes[::-1]:
            a, b = xs[:n], ys[:m]
            assert cross_matrix(spec, a, b).tobytes() == fresh_cross_matrix(spec, a, b).tobytes()

    @pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
    def test_results_do_not_share_the_scratch(self, spec):
        rng = np.random.default_rng(12)
        xs, ys = rng.uniform(size=(100, 3)), rng.uniform(size=(600, 3))
        first = cross_matrix(spec, xs, ys)
        kept = first.copy()
        second = cross_matrix(spec, ys[:300], xs)
        dist = kernel_of_distance(spec, rng.uniform(size=(200, 100)))
        assert first.tobytes() == kept.tobytes()
        for a, b in ((first, second), (first, dist), (second, dist)):
            assert not np.shares_memory(a, b)
        for a in (first, second, dist):
            assert not np.shares_memory(a, kernels._scratch.buf)

    def test_threads_reproduce_the_serial_bits(self):
        # each thread has its own scratch buffer: four threads on two cores
        # score different blocks at once, switching often, and must get the
        # bytes of the serial calls; numpy releases the GIL inside the
        # kernel's passes over blocks this large
        spec = KernelSpec(MATERN, 0.2, 2.5)
        rng = np.random.default_rng(13)
        inputs = [(rng.uniform(size=(n, 3)), rng.uniform(size=(m, 3)))
                  for n, m in ((100, 612), (80, 700), (120, 520), (64, 1024))]
        want = [cross_matrix(spec, a, b).tobytes() for a, b in inputs]
        barrier = threading.Barrier(len(inputs))
        done, wrong = [], []

        def score(i):
            barrier.wait(timeout=30)
            for _ in range(25):
                if cross_matrix(spec, *inputs[i]).tobytes() != want[i]:
                    wrong.append(i)
            done.append(i)

        threads = [threading.Thread(target=score, args=(i,)) for i in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == list(range(len(inputs)))
        assert wrong == []

    # the temporaries a call holds beside its result at once, and how many
    # of them are scratch views
    @pytest.mark.parametrize("spec,temporaries,views",
                             [pytest.param(s, t, v, id=_spec_id(s))
                              for s, t, v in zip(SPECS, (1, 1, 1, 2, 4), (1, 1, 1, 2, 1))])
    def test_calls_peak_where_fresh_temporaries_do(self, spec, temporaries, views):
        # in a new thread, whose scratch is empty: a first call sizes it
        # exactly, and a call past _SCRATCH_MAX neither uses nor keeps it,
        # so both peak at the result and the temporaries a fresh-allocation
        # evaluation holds beside it at once
        rng = np.random.default_rng(14)
        kept = {}

        def traced(n, m):
            xs, ys = rng.uniform(size=(n, 3)), rng.uniform(size=(m, 3))
            tracemalloc.start()
            try:
                cross_matrix(spec, xs, ys)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            buf = getattr(kernels._scratch, "buf", None)
            kept[n, m] = (peak, None if buf is None else buf.nbytes)

        for n, m in ((130, 4100), (100, 5000)):  # above, then below the ceiling
            thread = threading.Thread(target=traced, args=(n, m))
            thread.start()
            thread.join(timeout=60)
        assert 100 * 5000 <= kernels._SCRATCH_MAX < 130 * 4100
        for (n, m), (peak, buf_bytes) in kept.items():
            assert peak <= (1 + temporaries) * n * m * 8 + 64 * 1024
        assert kept[130, 4100][1] is None
        assert kept[100, 5000][1] == views * 100 * 5000 * 8

    def test_scratch_grows_by_a_quarter_up_to_its_ceiling(self):
        spec = KernelSpec(MATERN, 0.2, 2.5)  # two temporaries per call
        rng = np.random.default_rng(15)
        ys = rng.uniform(size=(512, 3))
        sizes = []

        def grow():
            for n in (100, 101, 102, 1024, 1025, 40):
                cross_matrix(spec, rng.uniform(size=(n, 3)), ys)
                sizes.append(kernels._scratch.buf.size)

        thread = threading.Thread(target=grow)
        thread.start()
        thread.join(timeout=60)
        assert 1024 * 512 == kernels._SCRATCH_MAX
        first = 2 * 100 * 512
        assert sizes == [first, first * 5 // 4, first * 5 // 4] + [2 * kernels._SCRATCH_MAX] * 3

    # the closed forms only; the Bessel route allocates freely
    @pytest.mark.parametrize("spec", SPECS[:4], ids=_spec_id)
    def test_peak_memory_stays_within_four_result_sizes(self, spec):
        n, m = 100, 4096
        rng = np.random.default_rng(0)
        xs = rng.uniform(size=(n, 3))
        ys = rng.uniform(size=(m, 3))
        ys[:5] = xs[:5]  # coincident pairs take the zero-snap branch
        tracemalloc.start()
        try:
            cross_matrix(spec, xs, ys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * m * 8


def frozen_cross_matrix(spec, xs, ys):
    """cross_matrix as it was before its input scans were folded into the
    distance check and the closed forms lost their negation pass: the same
    coordinate loop, clamp, snap and closed forms, with fresh temporaries in
    place of scratch views, which hold the same values.  The general-nu
    route is the library's _matern_bessel."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    d = xs.shape[1]
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("kernel inputs must be finite")
    with np.errstate(over="ignore"):
        r = np.subtract(xs[:, 0, None], ys[None, :, 0])
        np.multiply(r, r, out=r)
        for k in range(1, d):
            sq = np.subtract(xs[:, k, None], ys[None, :, k])
            np.multiply(sq, sq, out=sq)
            r += sq
    r = np.sqrt(r, out=r)
    if not r.size:
        return r
    lo, hi = float(r.min()), float(r.max())
    if not (lo >= 0.0 and hi < math.inf):
        raise ValueError("distances must be finite and nonnegative")
    ell = spec.lengthscale
    closed_form = spec.family == SQUARED_EXPONENTIAL or spec.nu in (0.5, 1.5, 2.5)
    if closed_form:
        if hi > kernels._EXP_ZERO * ell:
            np.minimum(r, kernels._EXP_ZERO * ell, out=r)
        s = np.divide(r, ell, out=r)
    else:
        with np.errstate(over="ignore"):
            s = np.divide(r, ell, out=r)
    if spec.family == SQUARED_EXPONENTIAL:
        np.multiply(s, s, out=s)
        s *= -0.5
        return np.exp(s, out=s)
    snap = lo / ell < kernels._ZERO_SNAP
    if snap:
        zero = s < kernels._ZERO_SNAP
        s[zero] = 1.0
    if spec.nu == 0.5:
        s = np.exp(np.negative(s, out=s), out=s)
    elif spec.nu == 1.5:
        c = np.multiply(s, math.sqrt(3.0), out=s)
        e = np.negative(c)
        np.exp(e, out=e)
        c += 1.0
        c *= e
        s = c
    elif spec.nu == 2.5:
        c = np.multiply(s, math.sqrt(5.0), out=s)
        q = np.multiply(c, c)
        q /= 3.0
        e = np.negative(c)
        np.exp(e, out=e)
        c += 1.0
        c += q
        c *= e
        s = c
    else:
        s[...] = kernels._matern_bessel(s, spec.nu)
    if snap:
        s[zero] = 1.0
    return s


class TestFloat32Blocks:
    """cross_matrix is float64 whatever its inputs; float32 kernel blocks
    are the screen's (kernels.screen_blocks), built from one float64
    product of squared distances per block by this module's closed forms,
    in its per-thread scratch."""

    @staticmethod
    def screen_blocks(spec, X, xs):
        _, blocks = kernels.screen_blocks(spec, X, xs)
        return [(start, stop, k.copy()) for start, stop, k in blocks]

    # the closed forms only; the screen gives the Bessel route the full pass
    @pytest.mark.parametrize("spec", SPECS[:4], ids=_spec_id)
    def test_float32_temporaries_share_the_scratch(self, spec, monkeypatch):
        # walks whose blocks take their product, their values and the
        # closed forms' temporaries from fresh arrays or from the scratch
        # (from 128 KiB: 2 x 1100 is below it, 10 x 1100 reaches it for the
        # product and 40 x 1100 for the temporaries too, and 130 points make
        # blocks of 512 and a narrow last one) read the same bits as with
        # fresh temporaries, and the thread keeps its one float64 buffer
        rng = np.random.default_rng(16)
        X, xs = rng.uniform(size=(130, 3)), rng.uniform(size=(1100, 3))
        got = {}

        def walk():
            for n in (2, 10, 40, 130, 10):
                got[n] = self.screen_blocks(spec, X[:n], xs)
            got["buf"] = kernels._scratch.buf

        thread = threading.Thread(target=walk)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert got.pop("buf").dtype == np.float64
        assert [stop for _, stop, _ in got[130]] == [512, 1024, 1100]
        monkeypatch.setattr(kernels, "_scratch_out", lambda like, count: (None,) * count)
        monkeypatch.setattr(kernels, "_scratch_views", lambda shape, dtype, count: (None,) * count)
        for n, blocks in got.items():
            fresh = self.screen_blocks(spec, X[:n], xs)
            assert [b[:2] for b in blocks] == [b[:2] for b in fresh]
            for (_, _, k), (_, _, want) in zip(blocks, fresh):
                assert k.dtype == np.float32
                assert k.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", [s for s in SPECS if s.nu != 1.2], ids=_spec_id)
    def test_closed_forms_stay_normal(self, spec):
        # the screen's closed forms clamp where exp's argument reaches -87,
        # so no value is subnormal, and the clamp moves none by 5e-35
        r = np.linspace(0.0, 200.0 * spec.lengthscale, 20001)
        ys = np.stack([r, np.zeros_like(r)], axis=1)
        X = np.zeros((1, 2))
        k32 = np.concatenate([k for _, _, k in self.screen_blocks(spec, X, ys)], axis=1)
        k64 = cross_matrix(spec, X, ys)
        assert np.all(k32 >= np.finfo(np.float32).tiny)
        far = k64 < 1e-30
        assert far.sum() > 1000
        assert np.max(np.abs(k32[far] - k64[far])) < 5e-35

    def test_mixed_dtypes_are_float64(self, matern25):
        rng = np.random.default_rng(17)
        xs, ys = rng.uniform(size=(5, 2)), rng.uniform(size=(7, 2))
        want = cross_matrix(matern25, xs, ys)
        f32 = np.float32
        for a, b in ((xs.astype(f32), ys), (xs, ys.astype(f32)), (xs.astype(f32), ys.astype(f32))):
            got = cross_matrix(matern25, a, b)
            assert got.dtype == np.float64
            assert got.tobytes() == cross_matrix(matern25, a.astype(float), b.astype(float)).tobytes()
        assert cross_matrix(matern25, xs.tolist(), ys.tolist()).tobytes() == want.tobytes()


class TestFrozenReference:
    """cross_matrix against frozen_cross_matrix: the same bytes."""

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
    def test_same_bits(self, spec, d):
        # duplicated points and points below the zero snap, far points past
        # the clamp, and shapes from one pair to a block past _SCRATCH_MAX
        assert 130 * 4100 > kernels._SCRATCH_MAX
        rng = np.random.default_rng(20 + d)
        xs = rng.uniform(size=(130, d))
        ys = np.vstack([rng.uniform(size=(4090, d)), xs[:4], xs[4:7] + 1e-14,
                        xs[7:10] + 1e3])
        ys[[0, 5, 9]] = ys[[1, 6, 4099]]  # repeated candidates
        shapes = [(1, 1), (1, 21), (3, 24), (8, 112), (127, 129), (32, 512),
                  (100, 1025), (130, 4100)]
        for n, m in shapes:
            for a, b in ((xs[:n], ys[-m:]), (ys[-m:], xs[:n])):
                assert cross_matrix(spec, a, b).tobytes() == frozen_cross_matrix(spec, a, b).tobytes()


class TestNonFiniteInputs:
    """A NaN or infinite coordinate in either set raises the input error,
    without a RuntimeWarning (the suite makes one an error): the distance
    check rejects it, and the inputs are scanned only then."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
    def test_raises_from_either_set(self, spec, bad):
        rng = np.random.default_rng(30)
        xs, ys = rng.uniform(size=(4, 3)), rng.uniform(size=(21, 3))
        for i, k in ((0, 0), (3, 2), (2, 1)):
            for a, b, row in ((xs, ys, i), (ys, xs, 20 - i)):
                a = a.copy()
                a[row, k] = bad
                for args in ((a, b), (b, a)):
                    with pytest.raises(ValueError, match="^kernel inputs must be finite$"):
                        cross_matrix(spec, *args)

    @pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
    def test_inf_minus_inf(self, spec):
        # inf - inf is NaN in that one coordinate, and no warning
        for sign_x, sign_y in ((1, 1), (-1, -1), (1, -1)):
            xs = np.array([[0.5, sign_x * np.inf], [0.1, 0.2]])
            ys = np.array([[0.3, sign_y * np.inf]])
            with pytest.raises(ValueError, match="^kernel inputs must be finite$"):
                cross_matrix(spec, xs, ys)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_raises_with_an_empty_other_set(self, bad):
        # no distance is computed, so nothing else can show the bad value
        spec = SPECS[3]
        xs = np.array([[0.1, bad]])
        empty = np.zeros((0, 2))
        for a, b in ((xs, empty), (empty, xs)):
            with pytest.raises(ValueError, match="^kernel inputs must be finite$"):
                cross_matrix(spec, a, b)
        assert cross_matrix(spec, empty, np.ones((3, 2))).shape == (0, 3)

    @pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
    def test_finite_overflow_is_a_distance_error(self, spec):
        # finite inputs whose difference or square overflows
        for xs in (np.array([[1e308], [0.0]]), np.array([[1e200, 0.0], [0.0, 0.0]])):
            with pytest.raises(ValueError,
                               match="^distances must be finite and nonnegative$"):
                cross_matrix(spec, xs, -xs)


class TestKernelOfDistance:
    @pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
    @pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
    def test_argument_unchanged_and_shape_kept(self, spec, shape):
        rng = np.random.default_rng(5)
        r = rng.uniform(0.0, 1.0, size=shape)
        if r.ndim:
            r.flat[0] = 0.0
        before = r.copy()
        k = kernel_of_distance(spec, r)
        np.testing.assert_array_equal(r, before)
        assert np.shape(k) == shape
        assert np.all((k > 0) & (k <= 1))

    @pytest.mark.parametrize("bad", [-1e-3, np.inf, np.nan])
    def test_bad_distance_rejected(self, bad):
        with pytest.raises(ValueError):
            kernel_of_distance(SPECS[1], np.array([0.1, bad]))

    @pytest.mark.parametrize("bad", [-1e-3, -np.inf, np.inf, np.nan])
    @pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
    def test_bad_distance_rejected_anywhere(self, spec, bad):
        # the min/max check sees a bad value at any place, next to values
        # below the zero snap and past the far clamp
        for r in ([bad, 0.1], [0.0, bad, 2e3], [1e-20, 0.5, bad]):
            with pytest.raises(ValueError):
                kernel_of_distance(spec, np.array(r))


class TestKernelValues:
    @pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
    def test_within_a_few_ulps_of_the_array_route(self, spec):
        # _kernel_values' scalar closed forms against kernel_of_distance, from
        # 0 and below the zero snap to past the far clamp; the Bessel route
        # is that route, to the bit
        rng = np.random.default_rng(11)
        r = np.concatenate([[0.0, 1e-20, 1e-13, 1e-9, 1e3, 1e300],
                            spec.lengthscale * rng.uniform(0.0, 10.0, size=200)])
        got = np.array(kernels._kernel_values(spec, r.tolist()))
        want = kernel_of_distance(spec, r)
        if spec.family == MATERN and spec.nu not in (0.5, 1.5, 2.5):
            assert got.tobytes() == want.tobytes()
        else:
            assert np.all(np.abs(got - want) <= 4 * 2.0**-52)


class TestFarCornerKernels:
    @settings(max_examples=150, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3, 5]),
        n=st.integers(1, 8),
        kernel=st.sampled_from([(SQUARED_EXPONENTIAL, None), (MATERN, 0.5), (MATERN, 1.5),
                                (MATERN, 2.5), (MATERN, 1.2)]),
        ell=st.floats(0.05, 1.0),
        log_width=st.floats(-7.0, 0.0),
        corners=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_every_computed_value_in_the_box_is_in_range(self, d, n, kernel, ell, log_width,
                                                         corners, seed):
        """Oracle: every cross_matrix value between a data point x_j and a
        query in the box [lower, upper], at its corners, or one ulp outside
        a face or a corner lies in [far_j - e_k, 1 + e_k].  The data lie
        uniform in the box or at its corners, where a far corner is at the
        box's diagonal."""
        spec = KernelSpec(kernel[0], ell, kernel[1])
        rng = np.random.default_rng(seed)
        width = 10.0**log_width
        lower = rng.uniform(size=d) * (1.0 - width)
        upper = lower + width
        box_corners = np.array([np.where(bits, upper, lower)
                                for bits in itertools.product((False, True), repeat=d)])
        if corners:
            X = box_corners[rng.integers(len(box_corners), size=n)]
        else:
            X = lower + rng.uniform(size=(n, d)) * (upper - lower)
        below, above = np.nextafter(lower, -np.inf), np.nextafter(upper, np.inf)
        outside = lower + rng.uniform(size=(2 * d, d)) * (upper - lower)
        for i in range(d):
            outside[2 * i, i], outside[2 * i + 1, i] = below[i], above[i]
        widened = np.array([np.where(bits, above, below)
                            for bits in itertools.product((False, True), repeat=d)])
        xs = np.vstack([lower + rng.uniform(size=(40, d)) * (upper - lower), box_corners,
                        outside, widened])
        e_k, far = kernels.far_corner_kernels(spec, X, lower, upper)
        assert len(far) == n
        k = cross_matrix(spec, X, xs)
        assert np.all(k >= np.array(far)[:, None] - e_k)
        assert np.all(k <= 1.0 + e_k)


    @settings(max_examples=150, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3, 5]),
        n=st.integers(1, 8),
        log_width=st.floats(-7.0, 0.0),
        corners=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_distances_reach_the_widened_far_corner(self, d, n, log_width, corners, seed):
        """Oracle in exact rational arithmetic: the square of every returned
        distance is at least the exact squared distance from its point to
        the farthest corner of the box widened by one ulp a side, so the
        (d + 4) eps stretch covers the rounding of the sum it stretches."""
        rng = np.random.default_rng(seed)
        width = 10.0**log_width
        lower = rng.uniform(size=d) * (1.0 - width)
        upper = lower + width
        if corners:
            X = np.where(rng.integers(2, size=(n, d)).astype(bool), upper, lower)
        else:
            X = lower + rng.uniform(size=(n, d)) * (upper - lower)
        low = [Fraction(a) for a in np.nextafter(lower, -np.inf).tolist()]
        high = [Fraction(b) for b in np.nextafter(upper, np.inf).tolist()]
        r = kernels._far_corner_distances(X, lower, upper)
        assert len(r) == n
        for row, got in zip(X.tolist(), r):
            exact = sum(max(Fraction(x) - a, b - Fraction(x)) ** 2
                        for x, a, b in zip(row, low, high))
            assert Fraction(got) ** 2 >= exact


class TestGramMatrix:
    def test_single_point(self, matern25):
        K = gram_matrix(matern25, np.array([[0.1, 0.2, 0.3]]))
        assert K.shape == (1, 1)
        assert K[0, 0] == 1.0

    def test_duplicate_points(self, se1):
        K = gram_matrix(se1, np.array([[0.5], [0.5]]))
        np.testing.assert_array_equal(K, np.ones((2, 2)))

    def test_psd_random_points(self, matern25):
        rng = np.random.default_rng(3)
        pts = rng.uniform(size=(20, 3))
        K = gram_matrix(matern25, pts)
        np.testing.assert_allclose(K, K.T)
        assert np.min(np.linalg.eigvalsh(K)) >= -1e-10

    @pytest.mark.parametrize("family,nu", [
        (SQUARED_EXPONENTIAL, None), (MATERN, 0.5), (MATERN, 1.5), (MATERN, 2.5),
        (MATERN, 1.2), (MATERN, 60.0),
    ])
    def test_exactly_symmetric_with_unit_diagonal(self, family, nu):
        # no symmetrizing pass: fl(a - b) = -fl(b - a), the squares are
        # summed in one coordinate order, and the kernel is exactly 1 at 0
        spec = KernelSpec(family, 0.3, nu)
        rng = np.random.default_rng(11)
        for trial in range(30):
            n, d = int(rng.integers(1, 60)), int(rng.integers(1, 8))
            pts = rng.uniform(size=(n, d))
            if trial % 3 == 1:
                pts[rng.integers(n, size=n // 2)] = pts[0]  # duplicated points
            if trial % 3 == 2:
                pts *= 1e-9
            K = gram_matrix(spec, pts)
            assert K.tobytes() == np.ascontiguousarray(K.T).tobytes()
            assert np.all(np.diagonal(K) == 1.0)

    @pytest.mark.parametrize("family,nu", [(SQUARED_EXPONENTIAL, None), (MATERN, 2.5)])
    def test_psd_larger_sets(self, family, nu):
        spec = KernelSpec(family, 0.5, nu)
        rng = np.random.default_rng(4)
        pts = rng.uniform(size=(50, 2))
        assert np.min(np.linalg.eigvalsh(gram_matrix(spec, pts))) >= -1e-10


class TestSpecValidation:
    def test_bad_lengthscale(self):
        with pytest.raises(ValueError):
            KernelSpec(SQUARED_EXPONENTIAL, 0.0)

    def test_matern_needs_nu(self):
        with pytest.raises(ValueError):
            KernelSpec(MATERN, 1.0)
        with pytest.raises(ValueError):
            KernelSpec(MATERN, 1.0, -1.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            KernelSpec("cubic", 1.0)
