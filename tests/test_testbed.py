import math

import numpy as np
import pytest

from gpbandit.kernels import MATERN, KernelSpec, kernel_of_distance
from gpbandit.testbed import (
    NoisyOracle,
    RkhsFunction,
    estimate_optimum,
    make_rkhs_function,
    standard_function,
)


@pytest.fixture
def kernel():
    return KernelSpec(MATERN, 0.2, 2.5)


class TestRkhsFunction:
    def test_single_center_norm(self, kernel):
        rng = np.random.default_rng(41)
        f = make_rkhs_function(kernel, 2, 1, rng, optimum_budget=1000)
        assert f.rkhs_norm_sq == pytest.approx(f.weights[0] ** 2, rel=1e-12)

    def test_two_center_norm_quadratic_form(self, kernel):
        centers = np.array([[0.0, 0.0], [0.3, 0.4]])
        k12 = float(kernel_of_distance(kernel, 0.5))  # |c1 - c0| = 0.5
        f = RkhsFunction(kernel, centers, np.array([1.0, 1.0]),
                        rkhs_norm_sq=0.0, optimum_value=0.0,
                        optimum_point=np.zeros(2))
        expected = 2.0 + 2.0 * k12
        got = f.weights @ np.array([[1.0, k12], [k12, 1.0]]) @ f.weights
        assert got == pytest.approx(expected, rel=1e-12)

    def test_paper_scale_protocol_evaluable(self, kernel):
        rng = np.random.default_rng(42)
        f = make_rkhs_function(kernel, 5, 500, rng, optimum_budget=2000)
        assert np.isfinite(f.rkhs_norm_sq) and f.rkhs_norm_sq >= 0
        x = rng.uniform(size=5)
        assert np.isfinite(f(x))

    def test_evaluation_matches_second_summation_order(self, kernel):
        rng = np.random.default_rng(43)
        f = make_rkhs_function(kernel, 2, 30, rng, optimum_budget=1000)
        x = rng.uniform(size=2)
        direct = sum(
            w * float(kernel_of_distance(kernel, math.dist(c, x)))
            for w, c in sorted(
                zip(f.weights, map(tuple, f.centers)), key=lambda p: p[0]
            )
        )
        assert f(x) == pytest.approx(direct, abs=1e-12)

    def test_optimum_dominates_probes(self, kernel):
        rng = np.random.default_rng(44)
        f = make_rkhs_function(kernel, 2, 50, rng, optimum_budget=20_000)
        probes = rng.uniform(size=(100_000, 2))
        assert f.optimum_value >= np.max(f(probes)) - 1e-9

    def test_round_trip_serialization(self, kernel, tmp_path):
        rng = np.random.default_rng(45)
        f = make_rkhs_function(kernel, 3, 10, rng, optimum_budget=1000)
        path = tmp_path / "target.json"
        f.save(path)
        g = RkhsFunction.load(path)
        x = rng.uniform(size=3)
        assert g(x) == pytest.approx(f(x), abs=1e-12)
        assert g.optimum_value == f.optimum_value


class TestNoisyOracle:
    def test_noise_statistics(self):
        rng = np.random.default_rng(46)
        oracle = NoisyOracle(lambda x: 0.0, 1, 0.1, rng)
        n = 100_000
        draws = np.array([oracle(np.zeros(1)) for _ in range(n)])
        assert abs(draws.mean()) < 4 * 0.1 / np.sqrt(n)
        assert abs(draws.var() - 0.01) < 0.05 * 0.01

    def test_noiseless_passthrough(self):
        oracle = NoisyOracle(lambda x: 3.5, 1, 0.0, np.random.default_rng(0))
        assert oracle(np.zeros(1)) == 3.5

    def test_negative_stddev_rejected(self):
        with pytest.raises(ValueError):
            NoisyOracle(lambda x: 0.0, 1, -0.1, np.random.default_rng(0))


class TestEstimateOptimum:
    def test_quadratic_bowl(self):
        c = np.array([0.3, 0.7])

        def f(x):
            x = np.atleast_2d(x)
            return -np.sum((x - c) ** 2, axis=1)

        value, point = estimate_optimum(f, 2, 100_000, np.random.default_rng(47))
        assert value == pytest.approx(0.0, abs=1e-3)
        np.testing.assert_allclose(point, c, atol=5e-2)

    def test_constant_function(self):
        value, _ = estimate_optimum(
            lambda x: np.full(np.atleast_2d(x).shape[0], 4.2),
            3, 1000, np.random.default_rng(48),
        )
        assert value == 4.2

    def test_monotone_in_budget(self):
        f, d, _, _ = standard_function("hartmann3")
        small, _ = estimate_optimum(f, d, 10_000, np.random.default_rng(49))
        large, _ = estimate_optimum(f, d, 100_000, np.random.default_rng(49))
        assert large >= small - 1e-12

    def test_small_budget_rejected(self):
        with pytest.raises(ValueError):
            estimate_optimum(lambda x: 0.0, 1, 10, np.random.default_rng(0))


class TestStandardFunctions:
    def test_hartmann3_certified_optimum(self):
        f, d, opt, opt_x = standard_function("hartmann3")
        assert d == 3
        assert opt == pytest.approx(3.86278, abs=1e-4)
        assert f(opt_x) == pytest.approx(opt, abs=1e-9)
        np.testing.assert_allclose(opt_x, [0.114614, 0.555649, 0.852547], atol=1e-4)

    def test_hartmann6_certified_optimum(self):
        f, d, opt, opt_x = standard_function("hartmann6")
        assert d == 6
        assert opt == pytest.approx(3.32237, abs=1e-4)
        assert f(opt_x) == pytest.approx(opt, abs=1e-9)

    def test_shekel_certified_optimum(self):
        f, d, opt, opt_x = standard_function("shekel")
        assert d == 4
        assert opt == pytest.approx(10.5364, abs=1e-3)
        np.testing.assert_allclose(opt_x, np.full(4, 0.4), atol=1e-3)

    def test_ackley_max_zero_at_center(self):
        f, d, opt, opt_x = standard_function("ackley10")
        assert d == 10 and opt == 0.0
        assert f(opt_x) == pytest.approx(0.0, abs=1e-12)
        rng = np.random.default_rng(50)
        assert np.all(f(rng.uniform(size=(1000, 10))) <= 0.0)

    @pytest.mark.parametrize("name", ["hartmann3", "hartmann6", "shekel", "ackley10"])
    def test_optimum_not_beaten_by_search(self, name):
        f, d, opt, _ = standard_function(name)
        rng = np.random.default_rng(51)
        assert np.max(f(rng.uniform(size=(200_000, d)))) <= opt + 1e-9

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            standard_function("rosenbrock")
