import math
import tracemalloc

import numpy as np
import pytest

from gpbandit.kernels import (
    MATERN,
    SQUARED_EXPONENTIAL,
    KernelSpec,
    cross_matrix,
    gram_matrix,
    kernel_eval,
    kernel_of_distance,
    matern_via_bessel,
)

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
        x = np.array([0.3, -1.2, 4.0])
        assert kernel_eval(se1, x, x) == 1.0
        assert kernel_eval(matern25, x, x) == 1.0

    def test_matern_half_is_exponential(self):
        # nu = 1/2 reduces to exp(-r/l); at r = l the value is e^-1
        spec = KernelSpec(MATERN, 0.7, 0.5)
        got = kernel_eval(spec, np.array([0.7]), np.array([0.0]))
        assert got == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_matern_52_closed_form_vs_bessel(self, matern25):
        got = kernel_eval(matern25, np.array([0.2, 0.0]), np.zeros(2))
        closed = (1 + math.sqrt(5) + 5.0 / 3.0) * math.exp(-math.sqrt(5))
        assert got == pytest.approx(closed, abs=1e-12)
        via_bessel = float(matern_via_bessel(matern25, 0.2))
        assert abs(got - via_bessel) < 1e-10

    def test_se_at_one_lengthscale(self, se1):
        got = kernel_eval(se1, np.array([1.0]), np.array([0.0]))
        assert got == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_symmetry(self, matern25):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.uniform(size=3), rng.uniform(size=3)
            assert kernel_eval(matern25, x, y) == kernel_eval(matern25, y, x)

    def test_bounds(self, se1, matern25):
        rng = np.random.default_rng(1)
        for spec in (se1, matern25):
            for _ in range(50):
                x, y = rng.uniform(-2, 2, 4), rng.uniform(-2, 2, 4)
                v = kernel_eval(spec, x, y)
                assert 0.0 < v <= 1.0
                if not np.allclose(x, y):
                    assert v < 1.0

    def test_monotone_decay(self, se1, matern25):
        radii = np.linspace(0.01, 3.0, 200)
        for spec in (se1, matern25):
            vals = [kernel_eval(spec, np.array([r]), np.array([0.0])) for r in radii]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_nonfinite_rejected(self, se1):
        with pytest.raises(ValueError):
            kernel_eval(se1, np.array([np.nan]), np.array([0.0]))
        with pytest.raises(ValueError):
            kernel_eval(se1, np.array([np.inf]), np.array([0.0]))

    def test_dimension_mismatch(self, se1):
        with pytest.raises(ValueError):
            kernel_eval(se1, np.zeros(2), np.zeros(3))


class TestHalfIntegerForms:
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_agrees_with_bessel_route(self, nu):
        spec = KernelSpec(MATERN, 0.3, nu)
        rng = np.random.default_rng(7)
        radii = rng.uniform(1e-6, 10 * spec.lengthscale, 1000)
        closed = np.array([
            kernel_eval(spec, np.array([r]), np.array([0.0])) for r in radii
        ])
        bessel = matern_via_bessel(spec, radii)
        assert np.max(np.abs(closed - bessel)) < 1e-10


def _spec_id(spec):
    return spec.family if spec.nu is None else f"{spec.family}{spec.nu}"


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

    def test_far_clamp_leaves_nonzero_values(self):
        assert kernel_of_distance(KernelSpec(MATERN, 1.0, 0.5), 745.0) == math.exp(-745.0) > 0

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
