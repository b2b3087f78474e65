import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import ndtr

from gpbandit import gp
from gpbandit.acquisition import beta_value, ei_float, ei_scores, tau, ucb_score
from gpbandit.kernels import MATERN, KernelSpec
from gpbandit.optimizers import (
    ALG_GP_EI,
    ALG_PI_UCB,
    OMEGA_FIXED,
    OMEGA_POLYLOG_T,
    OMEGA_THEORY_EI,
    RunConfig,
    _omega,
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


def _frozen_phi(z):
    return np.exp(-0.5 * np.square(z)) / SQRT_2PI


def _frozen_tau_any(z):
    """tau at finite z of any shape, as it was before ei_scores took one
    errstate per call.  This and the three around it are kept verbatim, up
    to their names, as the byte-for-byte reference of the faster code."""
    zs = np.atleast_1d(z)
    with np.errstate(over="ignore", under="ignore"):
        out = zs * ndtr(zs) + _frozen_phi(zs)
        tail = zs < -38.0
        if tail.any():
            zt = zs[tail]
            out[tail] = _frozen_phi(zt) / np.square(zt)
    return out.reshape(np.shape(z))


def frozen_tau(z):
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("tau argument must be finite")
    out = _frozen_tau_any(z)
    if z.ndim == 0:
        return float(out)
    return out


def frozen_ei_scores(means, incumbent, scaled_stddevs):
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
        out = v * _frozen_tau_any(z)
    else:
        if not np.isfinite(u).all():
            raise ValueError("means and incumbent must be finite")
        limit = ~np.isfinite(z)
        out = np.where(limit, hinge, v * _frozen_tau_any(np.where(limit, 0.0, z)))
    return np.maximum(out, hinge)


def outcome(fn, *args):
    """('value', type, shape, dtype, bytes) of fn(*args), or ('raises', type)."""
    try:
        got = fn(*args)
    except Exception as err:  # RuntimeWarning too, which the suite raises
        return "raises", type(err)
    arr = np.asarray(got)
    return "value", type(got), arr.shape, arr.dtype, arr.tobytes()


# the values where the score changes form: v = 0 and subnormal v (u / v
# overflows), z around the tail switch at -38, deep and far z, and values
# that raise (NaN, inf, negative v) or overflow (|u| near float max)
_EDGES = [0.0, -0.0, 5e-324, 1e-310, 2.2e-308, 1e-20, 1e-3, 1.0, 38.0, -38.0,
          -37.99, -38.01, -1e3, 1e3, 1e10, -1e10, 1e154, -1e200, 1e300, -1e308]
_BAD = [np.nan, np.inf, -np.inf, -1e-300, -1.0]


def _elements(bad: bool):
    values = [st.floats(-50.0, 50.0), st.sampled_from(_EDGES)]
    if bad:
        values.append(st.sampled_from(_BAD))
    return st.one_of(*values)


@st.composite
def ei_inputs(draw):
    """(means, incumbent, scaled stddevs): 0-, 1- or 2-d means, stddevs of
    the same or a broadcast shape, and a float or array incumbent that
    broadcasts against the means."""
    shape = draw(st.sampled_from([(), (1,), (5,), (17,), (3, 4), (2, 1)]))
    bad = draw(st.integers(0, 9)) == 0  # one draw in ten may hold bad values
    means = draw(hnp.arrays(float, shape, elements=_elements(bad)))
    std_shape = draw(st.sampled_from([shape, shape[1:], ()]))
    stds = draw(hnp.arrays(float, std_shape,
                           elements=st.one_of(st.floats(0.0, 10.0), st.sampled_from(
                               [0.0, 5e-324, 1e-310, 1e-300, 1e-6, 1e3, 1e300]),
                               *([st.sampled_from(_BAD)] if bad else []))))
    if draw(st.booleans()):
        incumbent = draw(_elements(bad))
    else:
        inc_shape = draw(st.sampled_from([shape, shape[1:], (1,) * len(shape), ()]))
        incumbent = draw(hnp.arrays(float, inc_shape, elements=_elements(bad)))
    return means, incumbent, stds


class TestFrozenReference:
    """ei_scores and tau against the frozen reference above: the same type,
    shape and bytes, or the same exception type."""

    @settings(max_examples=300, deadline=None)
    @given(ei_inputs())
    @example((np.array([1.0, -1.0, 2.5]), 0.0, np.zeros(3)))  # v = 0
    @example((np.array([1.0, -1.0]), 0.0, np.array([5e-324, 1e-310])))  # subnormal v
    @example((np.array([-50.0, -38.5, -37.9]), 0.0, np.ones(3)))  # z < -38
    @example((np.array([[1e10, 1e300]]), -1.0, np.array([1e-6, 1.0])))  # large z
    @example((0.5, np.array([0.0, 1.0]), 1.0))  # 0-d means, broadcast incumbent
    @example((np.array([0.0, np.nan]), 0.0, np.array([1.0, 1.0])))
    @example((np.array([np.inf]), 0.0, np.array([0.0])))
    @example((np.array([0.0]), 0.0, np.array([np.nan])))
    @example((np.array([1e308]), -1e308, np.array([1.0])))  # u overflows
    @example((np.zeros(0), 0.0, np.zeros(0)))  # empty: the reductions must not raise
    @example((np.zeros((0, 3)), 0.0, np.ones(3)))
    @example((np.array([-38.0, -76.0, -38.0]), 0.0, np.array([1.0, 2.0, 1.0])))  # z = _TAIL_Z
    def test_ei_scores(self, args):
        assert outcome(ei_scores, *args) == outcome(frozen_ei_scores, *args)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([(), (1,), (7,), (3, 4)]).flatmap(
        lambda shape: hnp.arrays(float, shape, elements=st.one_of(
            st.floats(-100.0, 100.0), st.sampled_from(_EDGES + _BAD)))))
    def test_tau(self, z):
        assert outcome(tau, z) == outcome(frozen_tau, z)
        if z.ndim == 0:
            assert outcome(tau, float(z)) == outcome(frozen_tau, float(z))


class TestEiErrors:
    """The ValueErrors of ei_scores name the first offending entry."""

    @pytest.mark.parametrize("stds, text", [
        ([1.0, -0.5, -1.0], "got -0.5 at index 1"),
        ([1.0, 1.0, np.nan], "got nan at index 2"),
        ([[1.0, 1.0], [np.nan, -1.0]], r"got nan at index \(1, 0\)"),
        (-2.0, "got -2.0$"),
    ])
    def test_bad_stddev(self, stds, text):
        with pytest.raises(ValueError, match="scaled stddev must be nonnegative and not NaN, "
                           + text):
            ei_scores(np.zeros(np.shape(stds)), 0.0, stds)

    @pytest.mark.parametrize("means, incumbent, stds, text", [
        ([0.0, np.inf, np.nan], 0.0, [0.0, 0.0, 0.0], "got mean inf and incumbent 0.0 at index 1"),
        ([[0.0], [1.0]], [0.0, np.nan], 0.0, r"got mean 0.0 and incumbent nan at index \(0, 1\)"),
        (np.nan, 0.0, 1.0, "got mean nan and incumbent 0.0$"),
    ])
    def test_non_finite_mean(self, means, incumbent, stds, text):
        with pytest.raises(ValueError, match="means and incumbent must be finite, " + text):
            ei_scores(means, incumbent, stds)


def _ei_array(u: float, v: float) -> float:
    return float(ei_scores(np.array([u]), 0.0, np.array([v]))[0])


class TestEiFloat:
    """ei_float, the float form of rho that score bounds take, against
    ei_scores and an exact reference."""

    @settings(max_examples=500, deadline=None)
    @given(
        u=st.one_of(st.floats(-1e3, 1e3), st.sampled_from(_EDGES)),
        v=st.one_of(st.floats(0.0, 1e3), st.sampled_from(
            [0.0, 5e-324, 1e-310, 2.2e-308, 1e-300, 1e-6, 1.0, 1e300])),
    )
    @example(u=1.0, v=0.0)  # v = 0: the limit max(0, u)
    @example(u=-1.0, v=1e-310)  # subnormal v: u / v overflows
    @example(u=-37.0, v=1.0)  # the direct form just above _TAIL_Z
    @example(u=-38.5, v=1.0)  # z < _TAIL_Z: the tail form
    @example(u=-35.5, v=1.0)  # just above the score floor
    @example(u=1e300, v=1e-6)  # z^2 overflows
    def test_matches_ei_scores(self, u, v):
        # within 1e-12 relative wherever the score is at least the bound's
        # floor; below it, both are nonnegative and under the floor
        got, want = ei_float(u, v), _ei_array(u, v)
        assert type(got) is float
        if want >= gp._SCORE_FLOOR:
            assert abs(got - want) <= 1e-12 * want
        else:
            assert 0.0 <= got < gp._SCORE_FLOOR

    @pytest.mark.parametrize("v", [0.0, 5e-324, 1e-310])
    def test_zero_and_subnormal_stddev_give_the_hinge(self, v):
        for u in (1.0, -1.0, 2.5):
            assert ei_float(u, v) == max(0.0, u) == _ei_array(u, v)

    def test_tail_form_below_tail_z(self):
        # z < _TAIL_Z takes phi(z) / z^2, as _tau does; the direct form
        # there is 0 - 0
        for z in (-38.01, -40.0, -1e3, -1e200):
            assert ei_float(z, 1.0) == _ei_array(z, 1.0)
        z = -38.2
        assert ei_float(z, 1.0) == pytest.approx(
            math.exp(-0.5 * z * z) / SQRT_2PI / (z * z), rel=1e-12)

    def test_against_mpmath_near_the_floor(self):
        # z in [-36.5, -30], where the direct form z Phi(z) + phi(z) cancels
        # most: the float form tracks the exact rho to ~3.0e-10 relative, as
        # the array form does, within half gp's bound slack, which covers the
        # error of the two scores a bound compares
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        worst = 0.0
        for z in np.linspace(-36.5, -30.0, 651).tolist():
            exact = z * mpmath.ncdf(z) + mpmath.npdf(z)
            worst = max(worst, float(abs(ei_float(z, 1.0) - exact) / exact))
        assert worst <= gp._BOUND_RTOL / 2


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

    @pytest.mark.parametrize("stds, text", [
        ([np.nan, 1.0], "got nan at index 0"),
        ([1.0, 0.5, -2.0], "got -2.0 at index 2"),
        ([[1.0, 1.0], [1.0, np.nan]], r"got nan at index \(1, 1\)"),
        (np.nan, "got nan$"),
    ])
    def test_bad_stddev_is_named(self, stds, text):
        # a NaN stddev gave a NaN score, which posterior_argmax's bound
        # cannot order
        with pytest.raises(ValueError, match="stddev must be nonnegative and not NaN, " + text):
            ucb_score(np.zeros(np.shape(stds)), stds, 2.0)

    @pytest.mark.parametrize("beta", [np.nan, -0.5, -np.inf])
    def test_bad_beta_is_named(self, beta):
        # a negative width makes the score decrease in the stddev
        with pytest.raises(ValueError, match=f"beta must be nonnegative and not NaN, got {beta}"):
            ucb_score([0.0, 1.0], [1.0, 1.0], beta)


class TestOmegaSchedule:
    """omega_t, the scale EI puts on the stddev, is computed from the run's
    own parameters by optimizers._omega and checked by RunConfig."""

    @staticmethod
    def config(mode, T=100, alg=ALG_GP_EI, **kw):
        return RunConfig(algorithm=alg, horizon_T=T, omega_mode=mode,
                         kernel=KernelSpec(MATERN, 0.2, 2.5), **kw)

    def test_fixed(self):
        cfg = self.config(OMEGA_FIXED, omega_c=1.0)
        assert _omega(cfg, 0.0) == 1.0
        assert _omega(cfg, 12.0) == 1.0

    def test_theory_first_step(self):
        cfg = self.config(OMEGA_THEORY_EI, delta=0.05)
        assert _omega(cfg, 0.0) == pytest.approx(
            math.sqrt(1 + math.log(20)), abs=1e-4
        )
        assert _omega(cfg, 0.0) == pytest.approx(1.9989, abs=1e-3)

    def test_theory_grows_with_gain(self):
        cfg = self.config(OMEGA_THEORY_EI, delta=0.05)
        gains = np.linspace(0, 30, 50)
        vals = [_omega(cfg, g) for g in gains]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_polylog_horizon_100(self):
        cfg = self.config(OMEGA_POLYLOG_T, T=100)
        expected = math.sqrt(math.log(100) * math.log(math.log(100)))
        assert _omega(cfg, 0.0) == pytest.approx(expected, abs=1e-12)
        assert _omega(cfg, 0.0) == pytest.approx(2.6520, abs=1e-3)

    def test_polylog_requires_large_horizon(self):
        with pytest.raises(ValueError, match="horizon_T >= 16"):
            self.config(OMEGA_POLYLOG_T, T=15)
        assert self.config(OMEGA_POLYLOG_T, T=16).horizon_T == 16

    def test_bad_params(self):
        with pytest.raises(ValueError, match="c > 0"):
            self.config(OMEGA_FIXED, omega_c=0.0)
        with pytest.raises(ValueError, match="delta in"):
            self.config(OMEGA_THEORY_EI, delta=1.5)
        with pytest.raises(ValueError, match="unknown omega mode"):
            self.config("warp", omega_c=1.0)
        # pi-GP-UCB has no global scale, so none of them is checked there
        for mode, T, c in ((OMEGA_POLYLOG_T, 15, 1.0), (OMEGA_FIXED, 100, 0.0),
                           ("warp", 100, 1.0)):
            cfg = self.config(mode, T=T, alg=ALG_PI_UCB, omega_c=c)
            assert _omega(cfg, 3.0) == 1.0
