import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpbandit.acquisition import (
    OMEGA_FIXED,
    OMEGA_POLYLOG_T,
    OMEGA_THEORY_EI,
    OmegaSchedule,
    beta_value,
    ei_scores,
    omega_at,
    tau,
    ucb_score,
)

SQRT_2PI = math.sqrt(2 * math.pi)


class TestTau:
    def test_at_zero(self):
        assert tau(0.0) == pytest.approx(1 / SQRT_2PI, abs=1e-15)

    @pytest.mark.parametrize("z", [0.5, 2.0, 10.0])
    def test_reflection_identity(self, z):
        assert tau(z) - tau(-z) == pytest.approx(z, abs=1e-12)

    def test_value_at_three(self):
        # high-precision normal table: Phi(3) = 0.99865010196837..., phi(3) = 0.00443184841194...
        expected = 3 * 0.9986501019683699 + 0.0044318484119380075
        assert tau(3.0) == pytest.approx(expected, abs=1e-12)

    def test_reflection_on_grid(self):
        z = np.linspace(-20, 20, 1000)
        np.testing.assert_allclose(tau(z) - tau(-z), z, atol=1e-12)

    def test_nondecreasing_and_floor(self):
        z = np.linspace(-40, 40, 4001)
        vals = tau(z)
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.all(vals >= np.maximum(0.0, z) - 1e-15)
        assert np.all(vals >= 0.0)

    def test_deep_tail_finite(self):
        for z in (-50.0, -100.0, -1000.0):
            v = tau(z)
            assert np.isfinite(v) and v >= 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            tau(float("nan"))

    def test_extreme_arguments_raise_no_warning(self):
        # a tiny z must not reach the tail's division, and an overflowing
        # z^2 at |z| = 1e200 has the exact limit phi = 0
        expected = {
            1e-170: 1 / SQRT_2PI, -1e-170: 1 / SQRT_2PI, 0.0: 1 / SQRT_2PI,
            -50.0: 0.0, 1e200: 1e200, -1e200: 0.0,
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = tau(np.array(list(expected)))
            scalars = [tau(z) for z in expected]
        for got in (batch, scalars):
            np.testing.assert_allclose(got, list(expected.values()), rtol=1e-15, atol=0)


class TestEiScore:
    def test_zero_stddev_is_hinge(self):
        assert ei_scores(5.0, 3.0, 0.0) == 2.0
        assert ei_scores(1.0, 3.0, 0.0) == 0.0

    def test_at_incumbent(self):
        assert ei_scores(0.7, 0.7, 1.0) == pytest.approx(1 / SQRT_2PI, abs=1e-12)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(21)
        samples = rng.normal(0.3, 0.4, size=1_000_000)
        imp = np.maximum(0.0, samples - 0.5)
        mc, se = float(np.mean(imp)), float(np.std(imp) / 1000)
        assert abs(ei_scores(0.3, 0.5, 0.4) - mc) <= 3 * se

    def test_floor_max_zero_u(self):
        rng = np.random.default_rng(22)
        u = rng.normal(scale=3, size=500)
        v = rng.uniform(0, 2, size=500)
        scores = ei_scores(u, 0.0, v)
        assert np.all(scores >= np.maximum(0.0, u))

    def test_monotone_in_mean_and_stddev(self):
        us = np.linspace(-3, 3, 61)
        vs = np.linspace(0.01, 2, 40)
        for v in vs:
            s = ei_scores(us, 0.0, np.full_like(us, v))
            assert np.all(np.diff(s) >= -1e-12)
        for u in us:
            s = ei_scores(np.full_like(vs, u), 0.0, vs)
            assert np.all(np.diff(s) >= -1e-12)

    def test_deep_negative_ratio_stable(self):
        for ratio in (-1e2, -1e4, -1e6):
            v = 1.0
            s = ei_scores(ratio * v, 0.0, v)
            assert np.isfinite(s) and s >= 0.0

    def test_negative_stddev_rejected(self):
        with pytest.raises(ValueError):
            ei_scores(0.0, 0.0, -0.1)
        with pytest.raises(ValueError):
            ei_scores(0.0, 0.0, float("nan"))

    @pytest.mark.parametrize("v", [1e-310, 5e-324])
    def test_subnormal_stddev_gives_hinge_limit(self, v):
        # u / v overflows; rho(u, v) -> max(0, u) as v -> 0
        got = ei_scores(np.array([1.0, -1.0, 2.5]), 0.0, np.full(3, v))
        assert got.tolist() == [1.0, 0.0, 2.5]

    def test_nonfinite_mean_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                ei_scores(np.array([0.0, bad]), 0.0, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_mean_rejected_at_zero_stddev(self, bad):
        with pytest.raises(ValueError):
            ei_scores(np.array([bad]), 0.0, np.array([0.0]))
        with pytest.raises(ValueError):
            ei_scores(np.array([1.0]), bad, np.array([0.0]))

    @settings(max_examples=50, deadline=None)
    @given(
        u=st.floats(-2.0, 2.0),
        v=st.floats(0.05, 2.0),
    )
    def test_matches_quadrature(self, u, v):
        # independent oracle: E[max(0, X - 0)] for X ~ N(u, v^2) by quadrature
        from scipy.integrate import quad

        def integrand(x):
            return x * math.exp(-0.5 * ((x - u) / v) ** 2) / (v * SQRT_2PI)

        # integrand vanishes below 0, so start the quadrature at the kink
        oracle, _ = quad(integrand, 0.0, u + 12 * v, limit=200)
        assert ei_scores(u, 0.0, v) == pytest.approx(oracle, abs=1e-9)


class TestUcbScore:
    def test_zero_uncertainty(self):
        assert ucb_score(1.0, 0.0, 5.0) == 1.0

    def test_pure_exploration(self):
        assert ucb_score(0.0, 1.0, 2.0) == 2.0

    def test_beta_from_confidence_width(self):
        got = beta_value(1.0, 1.0, 0.0, 0.05)
        assert got == pytest.approx(1 + math.sqrt(2 * (1 + math.log(20))), abs=1e-4)
        assert got == pytest.approx(3.8269, abs=1e-3)

    def test_argmax_shift_invariant(self):
        rng = np.random.default_rng(23)
        means = rng.normal(size=50)
        stds = rng.uniform(0, 1, size=50)
        a = np.argmax(ucb_score(means, stds, 2.0))
        b = np.argmax(ucb_score(means + 7.3, stds, 2.0))
        assert a == b

    def test_negative_stddev_rejected(self):
        with pytest.raises(ValueError):
            ucb_score(0.0, -1.0, 1.0)


class TestOmegaSchedule:
    def test_fixed(self):
        sched = OmegaSchedule(OMEGA_FIXED, c=1.0)
        assert omega_at(sched, 1, 0.0) == 1.0
        assert omega_at(sched, 57, 12.0) == 1.0

    def test_theory_first_step(self):
        sched = OmegaSchedule(OMEGA_THEORY_EI, delta=0.05)
        assert omega_at(sched, 1, 0.0) == pytest.approx(
            math.sqrt(1 + math.log(20)), abs=1e-4
        )
        assert omega_at(sched, 1, 0.0) == pytest.approx(1.9989, abs=1e-3)

    def test_theory_grows_with_gain(self):
        sched = OmegaSchedule(OMEGA_THEORY_EI, delta=0.05)
        gains = np.linspace(0, 30, 50)
        vals = [omega_at(sched, t + 1, g) for t, g in enumerate(gains)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_polylog_horizon_100(self):
        sched = OmegaSchedule(OMEGA_POLYLOG_T, horizon_T=100)
        expected = math.sqrt(math.log(100) * math.log(math.log(100)))
        assert omega_at(sched, 1, 0.0) == pytest.approx(expected, abs=1e-12)
        assert omega_at(sched, 1, 0.0) == pytest.approx(2.6520, abs=1e-3)

    def test_polylog_requires_large_horizon(self):
        with pytest.raises(ValueError):
            OmegaSchedule(OMEGA_POLYLOG_T, horizon_T=15)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            OmegaSchedule(OMEGA_FIXED, c=0.0)
        with pytest.raises(ValueError):
            OmegaSchedule(OMEGA_THEORY_EI, delta=1.5)
        with pytest.raises(ValueError):
            OmegaSchedule("warp", c=1.0)
        sched = OmegaSchedule(OMEGA_FIXED, c=1.0)
        with pytest.raises(ValueError):
            omega_at(sched, 0, 0.0)
