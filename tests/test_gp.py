import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from gpbandit import gp, kernels
from gpbandit.acquisition import ei_float, ei_scores, ucb_score
from gpbandit.gp import GpModel
from gpbandit.kernels import (
    MATERN,
    SQUARED_EXPONENTIAL,
    KernelSpec,
    cross_matrix,
    gram_matrix,
)
from gpbandit.testbed import make_rkhs_function


def dense_posterior(kernel, lam, X, y, xq):
    """Oracle: direct dense solve of (K + lam I), no factor reuse."""
    K = gram_matrix(kernel, X)
    A = K + lam * np.eye(len(X))
    kq = cross_matrix(kernel, X, np.atleast_2d(xq))
    sol = np.linalg.solve(A, kq)
    mean = sol.T @ y
    var = 1.0 - np.einsum("ij,ij->j", kq, sol)
    return mean, np.sqrt(np.clip(var, 0.0, None))


def unblocked_posterior(model, xq):
    """Reference: the whole batch in one kernel block and one SciPy solve."""
    L = model._L
    alpha = solve_triangular(
        L, solve_triangular(L, model.observations, lower=True), lower=True, trans="T"
    )
    kc = cross_matrix(model.kernel, model.points, xq)
    mean = kc.T @ alpha
    v = solve_triangular(L, kc, lower=True)
    var = 1.0 - np.einsum("ij,ij->j", v, v)
    return mean, np.sqrt(np.maximum(var, 0.0))


# the kernels posterior_argmax's float32 screen bounds: SE and the Matern
# closed forms
SCREENED = [(SQUARED_EXPONENTIAL, None), (MATERN, 0.5), (MATERN, 1.5), (MATERN, 2.5)]


@pytest.fixture
def matern25():
    return KernelSpec(MATERN, 0.2, 2.5)


class TestPosterior:
    def test_empty_model_is_prior(self, matern25):
        model = GpModel(matern25, 0.01)
        mean, std = model.posterior(np.array([0.3, 0.7]))
        assert mean == 0.0 and std == 1.0

    def test_single_observation_closed_form(self, matern25):
        lam, y1 = 0.01, 2.5
        x1 = np.array([0.2, 0.8])
        model = GpModel(matern25, lam)
        model.update(x1, y1)
        mean, std = model.posterior(x1)
        assert mean == pytest.approx(y1 / (1 + lam), rel=1e-12)
        assert std == pytest.approx(math.sqrt(1 - 1 / (1 + lam)), rel=1e-9)

    @pytest.mark.parametrize("family,nu", [(MATERN, 2.5), (SQUARED_EXPONENTIAL, None)])
    def test_matches_dense_solve(self, family, nu):
        kernel = KernelSpec(family, 0.3, nu)
        rng = np.random.default_rng(11)
        X = rng.uniform(size=(10, 2))
        y = rng.normal(size=10)
        model = GpModel.fit(kernel, 0.01, X, y)
        xq = rng.uniform(size=(100, 2))
        mean, std = model.posterior_many(xq)
        mean_o, std_o = dense_posterior(kernel, 0.01, X, y, xq)
        np.testing.assert_allclose(mean, mean_o, atol=1e-8)
        np.testing.assert_allclose(std, std_o, atol=1e-8)

    def test_sequential_equals_batch(self, matern25):
        rng = np.random.default_rng(12)
        X = rng.uniform(size=(50, 3))
        y = rng.normal(size=50)
        seq = GpModel.fit(matern25, 0.05, X, y)
        xq = rng.uniform(size=(40, 3))
        mean_s, std_s = seq.posterior_many(xq)
        mean_o, std_o = dense_posterior(matern25, 0.05, X, y, xq)
        np.testing.assert_allclose(mean_s, mean_o, atol=1e-8)
        np.testing.assert_allclose(std_s, std_o, atol=1e-8)

    def test_order_invariance(self, matern25):
        rng = np.random.default_rng(13)
        X = rng.uniform(size=(15, 2))
        y = rng.normal(size=15)
        perm = rng.permutation(15)
        a = GpModel.fit(matern25, 0.01, X, y)
        b = GpModel.fit(matern25, 0.01, X[perm], y[perm])
        xq = rng.uniform(size=(30, 2))
        np.testing.assert_allclose(
            a.posterior_many(xq)[0], b.posterior_many(xq)[0], atol=1e-8
        )
        np.testing.assert_allclose(
            a.posterior_many(xq)[1], b.posterior_many(xq)[1], atol=1e-8
        )

    def test_variance_in_unit_interval(self, matern25):
        rng = np.random.default_rng(14)
        model = GpModel.fit(
            matern25, 0.01, rng.uniform(size=(30, 2)), rng.normal(size=30)
        )
        _, std = model.posterior_many(rng.uniform(size=(200, 2)))
        assert np.all(std >= 0.0) and np.all(std <= 1.0)

    def test_interpolation_contracts_stddev(self, matern25):
        model = GpModel(matern25, 0.01)
        x = np.array([0.4, 0.6])
        model.update(x, 1.0)
        _, std = model.posterior(x)
        assert std < 1.0

    def test_duplicate_points_accepted(self, matern25):
        model = GpModel(matern25, 0.01)
        x = np.array([0.5, 0.5])
        model.update(x, 1.0)
        model.update(x, 1.2)
        mean, std = model.posterior(x)
        assert np.isfinite(mean) and std >= 0.0

    def test_mean_reproduction_small_lambda(self):
        kernel = KernelSpec(MATERN, 0.2, 2.5)
        rng = np.random.default_rng(15)
        f = make_rkhs_function(kernel, 2, 20, rng, optimum_budget=1000)
        X = rng.uniform(size=(12, 2))
        y = f(X)
        model = GpModel.fit(kernel, 1e-8, X, y)
        mean, _ = model.posterior_many(X)
        np.testing.assert_allclose(mean, y, atol=1e-3)


class TestBlockedPosterior:
    B = kernels.BLOCK

    @pytest.mark.parametrize("m", [1, B - 1, B, B + 1, 3 * B + 7])
    @pytest.mark.parametrize("family,nu", [(MATERN, 2.5), (SQUARED_EXPONENTIAL, None)])
    def test_matches_unblocked_reference_to_the_bit(self, family, nu, m):
        kernel = KernelSpec(family, 0.3, nu)
        rng = np.random.default_rng(m)
        X = rng.uniform(size=(40, 3))
        y = rng.normal(size=40)
        model = GpModel.fit(kernel, 0.01, X, y)
        xq = rng.uniform(size=(m, 3))
        mean, std = model.posterior_many(xq)
        mean_r, std_r = unblocked_posterior(model, xq)
        assert mean.tobytes() == mean_r.tobytes()
        assert std.tobytes() == std_r.tobytes()
        mean_o, std_o = dense_posterior(kernel, 0.01, X, y, xq)
        np.testing.assert_allclose(mean, mean_o, rtol=0, atol=1e-10)
        np.testing.assert_allclose(std, std_o, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("group, d", [(8, 1), (8, 2), (8, 4), (12, 6), (16, 8),
                                          (20, 10)])
    @pytest.mark.parametrize("family,nu", [(MATERN, 2.5), (SQUARED_EXPONENTIAL, None)])
    def test_probe_groups_read_alike_wherever_they_sit(self, family, nu, group, d):
        """A group of rows gets the same (mean, stddev) bytes alone and at
        every group offset of a batch, the property that lets
        maximize_acquisition score several refinement rounds (n_probes =
        max(8, 2 d) rows each) in one call.

        It holds for groups of a multiple of 4 rows; maximize_acquisition
        scores other group sizes one round per call."""
        kernel = KernelSpec(family, 0.2, nu)
        rng = np.random.default_rng(1000 * group + d)
        for n in (1, 2, 3, 4, 5, 7, 9, 16, 31, 50, 64, 99, 100):
            model = GpModel.fit(kernel, 0.01, rng.uniform(size=(n, d)),
                                rng.normal(size=n))
            center = rng.uniform(size=d)
            xs = np.clip(center + 0.1 * rng.uniform(-1, 1, size=(30 * group, d)), 0, 1)
            alone = [model.posterior_many(xs[k * group:(k + 1) * group])
                     for k in range(30)]
            for groups in (2, 3, 7, 30):
                mean, std = model.posterior_many(xs[:groups * group])
                for k in range(groups):
                    rows = slice(k * group, (k + 1) * group)
                    assert mean[rows].tobytes() == alone[k][0].tobytes(), (n, groups, k)
                    assert std[rows].tobytes() == alone[k][1].tobytes(), (n, groups, k)

    def test_nan_right_hand_side_raises(self, matern25, monkeypatch):
        rng = np.random.default_rng(19)
        model = GpModel.fit(matern25, 0.01, rng.uniform(size=(5, 2)), rng.normal(size=5))
        real = kernels.cross_matrix

        def poisoned(*args):
            k = real(*args)
            k[0, -1] = np.nan
            return k

        monkeypatch.setattr(kernels, "cross_matrix", poisoned)
        with pytest.raises(ValueError):
            model.posterior_many(rng.uniform(size=(3, 2)))
        with pytest.raises(ValueError):
            model.update(rng.uniform(size=2), 0.5)

    def test_peak_memory_is_a_few_blocks(self, matern25):
        # a kernel block and its two Matern-5/2 temporaries, plus the two
        # outputs; the whole n x m kernel matrix alone would be 8 blocks here
        n, m = 100, 4096
        rng = np.random.default_rng(20)
        model = GpModel.fit(matern25, 0.01, rng.uniform(size=(n, 3)), rng.normal(size=n))
        xq = rng.uniform(size=(m, 3))
        model.posterior_many(xq[:1])  # the cached alpha is not part of the peak
        tracemalloc.start()
        try:
            model.posterior_many(xq)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (n * self.B * 8 + m * 8)


def jitter_refit_model(kernel, d, rng, extra=20):
    """A model at lam = 1e-16 whose duplicated first point forces a jitter
    refit, with `extra` uniform points after it."""
    p = rng.uniform(size=d)
    model = GpModel(kernel, 1e-16)
    for x in np.vstack([p, p, rng.uniform(size=(extra, d))]):
        model.update(x, rng.normal())
    assert model._jitter > 0
    return model


class TestPosteriorBound:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("family,nu", [(SQUARED_EXPONENTIAL, None), (MATERN, 1.5),
                                           (MATERN, 2.5)])
    def test_bound_covers_the_computed_stddev(self, family, nu, d):
        """Oracle: at every candidate and every sampled point the stddev
        posterior_many computes is at most _stddev_bound's, which carries
        the _VAR_MARGIN for rounding."""
        rng = np.random.default_rng([d, int(2 * (nu or 0))])
        models = [jitter_refit_model(KernelSpec(family, ell, nu), d, rng)
                  for ell in (0.1, 0.5)]
        for n, ell, lam in ((1, 0.2, 0.01), (7, 0.05, 1e-6), (40, 0.3, 0.01),
                            (90, 1.0, 1e-4), (30, 0.2, 1.0)):
            kernel = KernelSpec(family, ell, nu)
            models.append(GpModel.fit(kernel, lam, rng.uniform(size=(n, d)),
                                      rng.normal(size=n)))
        for model in models:
            pts = model.points
            near = np.clip(pts + 1e-7 * rng.normal(size=pts.shape), 0.0, 1.0)
            xs = np.vstack([rng.uniform(size=(1100, d)), pts, near])
            _, std = model.posterior_many(xs)
            bound = model._stddev_bound(cross_matrix(model.kernel, pts, xs).max(axis=0))
            assert np.all(std <= bound)
            # and at least half the margin is left over
            assert np.all(std * std <= bound * bound - 0.5 * gp._VAR_MARGIN)

    def test_argmax_needs_data_and_two_blocks(self, matern25):
        # a pass of one block, fewer than 2 * _BLOCK = 1024 points, is left
        # to the caller's full pass; from 1024 points on the pick is the
        # full pass's to the byte
        def score(means, stds):
            return means + stds

        rng = np.random.default_rng(24)
        xs = rng.uniform(size=(2 * kernels.BLOCK, 2))
        assert GpModel(matern25, 0.01).posterior_argmax(xs, score) is None
        model = GpModel.fit(matern25, 0.01, rng.uniform(size=(30, 2)), rng.normal(size=30))
        assert model.posterior_argmax(xs[:-1], score) is None
        values = score(*model.posterior_many(xs))
        i, value = model.posterior_argmax(xs, score)
        assert i == int(np.argmax(values))
        assert np.float64(value).tobytes() == values[i].tobytes()

    @pytest.mark.parametrize("jitter", [False, True])
    def test_stddevs_of_a_subset_read_alike(self, matern25, jitter):
        """posterior_many(xs[idx])[1] is posterior_many(xs)[1][idx] to the
        byte for |idx| >= 2, wherever the columns sit in xs's blocks;
        posterior_argmax solves the columns it keeps on that property."""
        rng = np.random.default_rng(21 + jitter)
        if jitter:
            model = jitter_refit_model(matern25, 3, rng, extra=60)
        else:
            model = GpModel.fit(matern25, 0.01, rng.uniform(size=(100, 3)),
                                rng.normal(size=100))
        xs = np.vstack([rng.uniform(size=(4096, 3)), model.points])
        _, std = model.posterior_many(xs)
        for size in (2, 3, 4, 5, 7, 9, 31, 200, 513, 1100):
            for _ in range(3):
                idx = np.sort(rng.choice(len(xs), size=size, replace=False))
                assert model.posterior_many(xs[idx])[1].tobytes() == std[idx].tobytes()
        # a lone column solved beside a copy of itself
        for i in rng.choice(len(xs), size=20, replace=False):
            assert model.posterior_many(xs[[i, i]])[1][0] == std[i]

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 4),
        n=st.integers(1, 40),
        m=st.integers(1024, 4200),
        kernel=st.sampled_from(SCREENED),
        ell=st.floats(0.02, 2.0),
        acq=st.one_of(st.tuples(st.just("ei"), st.floats(0.5, 20.0)),
                      st.tuples(st.just("ucb"), st.floats(0.0, 5.0))),
        duplicate=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(d=2, n=30, m=1024, kernel=(MATERN, 2.5), ell=0.2, acq=("ei", 1.0),
             duplicate=True, seed=0)
    @example(d=3, n=40, m=4197, kernel=(MATERN, 0.5), ell=0.02, acq=("ei", 1.0),
             duplicate=False, seed=1)
    @example(d=3, n=40, m=4198, kernel=(MATERN, 1.5), ell=0.5, acq=("ucb", 2.0),
             duplicate=False, seed=2)
    @example(d=1, n=12, m=4199, kernel=(SQUARED_EXPONENTIAL, None), ell=2.0,
             acq=("ei", 3.0), duplicate=True, seed=3)
    @example(d=4, n=25, m=4200, kernel=(MATERN, 1.5), ell=0.05, acq=("ucb", 0.0),
             duplicate=False, seed=4)
    def test_argmax_is_the_full_pass_argmax(self, d, n, m, kernel, ell, acq, duplicate, seed):
        """posterior_argmax(xs, score) is the first-index argmax of
        score(*posterior_many(xs)) and its value, to the byte, for EI at
        scale omega and UCB at width beta, over the kernels the float32
        screen bounds, every m mod 4 (the sampled points, last in xs, sit in
        the full pass's ragged gemv tail), and with and without a
        duplicated point at lam = 1e-16 that forces the jitter refit."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, d))
        lam = 0.01
        if duplicate:
            X = np.vstack([X[:1], X])
            lam = 1e-16
        model = GpModel.fit(KernelSpec(kernel[0], ell, kernel[1]), lam, X,
                            np.sin(5.0 * X).sum(axis=1) + 0.1 * rng.normal(size=len(X)))
        assert (model._jitter > 0) == duplicate
        kind, scale = acq
        if kind == "ei":
            incumbent = model.incumbent()[1]

            def score(means, stds):
                return ei_scores(means, incumbent, scale * stds)
        else:
            def score(means, stds):
                return ucb_score(means, stds, scale)
        xs = np.vstack([rng.uniform(size=(m - len(X), d)), X])
        values = score(*model.posterior_many(xs))
        i, value = model.posterior_argmax(xs, score)
        assert i == int(np.argmax(values))
        assert np.float64(value).tobytes() == values[i].tobytes()

    @pytest.mark.parametrize("n, m", [(1, 1024), (2, 1025), (7, 1026), (30, 1027),
                                      (64, 2051), (99, 3070), (100, 4196), (129, 4197),
                                      (130, 4199), (130, 4200)])
    def test_laid_out_columns_read_as_in_the_full_pass(self, matern25, n, m):
        """Means of any multiple-of-4 set of columns outside the full pass's
        ragged gemv tail (its last m % 4 columns), in any order, and of that
        tail at the end of a (4 + t)-wide batch, are posterior_many(xs)'s to
        the byte, and so are stddevs; _scores_at lays out every subset so."""
        rng = np.random.default_rng([n, m])
        model = GpModel.fit(matern25, 0.01, rng.uniform(size=(n, 3)), rng.normal(size=n))
        xs = rng.uniform(size=(m, 3))
        mean, std = model.posterior_many(xs)
        t = m % 4
        batches = [rng.choice(m - t, size=size, replace=False) for size in (4, 8, 44, 516, 1020)]
        if t:
            batches.append(np.concatenate([rng.choice(m - t, size=4, replace=False),
                                           np.arange(m - t, m)]))
        for idx in batches:
            got_mean, got_std = model.posterior_many(xs[idx])
            assert got_mean.tobytes() == mean[idx].tobytes()
            assert got_std.tobytes() == std[idx].tobytes()

        def both(means, stds):
            return np.stack([means, stds])

        subsets = [np.sort(rng.choice(m, size=size, replace=False))
                   for size in (1, 2, 3, 4, 5, 41, 700)]
        subsets += [np.arange(m - t, m)[:k] for k in range(1, t + 1)]
        subsets += [np.arange(m), np.array([0, m - 1])]
        for idx in subsets:
            want = np.stack([mean[idx], std[idx]])
            assert model._scores_at(xs, idx, both).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kernel", SCREENED, ids=str)
    def test_screen_errors_stay_within_a_quarter_of_their_margins(self, kernel, screen_errors):
        """The screen's float32 kernel values and means stray from the
        float64 ones by at most a quarter of the documented margins e_k and
        e_mu, for d = 1 to 6 and l = 0.02 to 5, on the unit cube, on cubes
        shifted to [4, 5]^d and to [1e3, 1e3 + 1]^d (which the centring
        takes back to the unit cube), and at candidates within 1e-9 l of the
        data, where the product's squared distances cancel.  Measured under
        1 and 2 BLAS threads, since the margins must hold for any summation
        order of the product."""
        for threads in ("1", "2"):
            worst_k, worst_mu = screen_errors[threads][SCREENED.index(kernel)]
            assert worst_k <= 0.25 and worst_mu <= 0.25

    @pytest.mark.parametrize("case", ["huge", "huge_d3", "nu_below_half", "short", "nan",
                                      "bessel"])
    def test_unsound_screens_give_the_full_pass(self, case):
        """Where float32 cannot hold the coordinates (|x| >= 1e18, or
        |x| * sqrt(d) >= 1e18 in general) or the lengthscale, where |dk/ds| is unbounded (nu < 1/2), or
        with a NaN candidate, posterior_argmax gives None, for the full pass,
        without a warning; just inside the coordinate limit it gives the
        full pass's pick.  So it does for a Matern nu without a closed form,
        whose Bessel route would cost the screen what the full pass costs."""
        rng = np.random.default_rng(40)
        d = 3 if case == "huge_d3" else 1
        spec = {"nu_below_half": KernelSpec(MATERN, 0.2, 0.3),
                "bessel": KernelSpec(MATERN, 0.2, 1.2),
                "short": KernelSpec(MATERN, 1e-31, 2.5)}.get(case, KernelSpec(MATERN, 0.2, 2.5))
        model = GpModel.fit(spec, 0.01, rng.uniform(size=(20, d)), rng.normal(size=20))
        xs = rng.uniform(size=(1100, d))

        def score(means, stds):
            return ucb_score(means, stds, 2.0)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if case == "nan":
                xs[7, 0] = np.nan
                assert model.posterior_argmax(xs, score) is None
                return
            if case.startswith("huge"):
                xs[7, 0] = 0.9e18 / math.sqrt(d)
                assert model._screen(xs) is not None
                values = score(*model.posterior_many(xs))
                i, value = model.posterior_argmax(xs, score)
                assert i == int(np.argmax(values)) and value == values[i]
                xs[7, 0] = 1e18
                assert model.posterior_argmax(xs, score) is None
            else:
                assert model.posterior_argmax(xs, score) is None
            values = score(*model.posterior_many(xs))
            assert np.isfinite(values).all()


# For each kernel of SCREENED, the largest measured |k32 - k64| / e_k and
# |mu32 - mu64| / e_mu of the screen over models of 40 points, as
# test_screen_errors_stay_within_a_quarter_of_their_margins describes, and
# one of 130 points, whose blocks' products are large enough for two BLAS
# threads to share; 1024 candidates, the least a screened pass has
_MARGINS_CODE = """
import ast
import sys
import numpy as np
from gpbandit import gp, kernels
from gpbandit.gp import GpModel
from gpbandit.kernels import KernelSpec, cross_matrix


def worst(family, nu):
    out = [0.0, 0.0]
    for d in range(1, 7):
        for ell in (0.02, 0.1, 0.5, 2.0, 5.0):
            for shift in (0.0, 4.0, 1e3):
                rng = np.random.default_rng([d, int(100 * ell), int(shift)])
                spec = KernelSpec(family, ell, nu)
                n = 130 if (d, ell, shift) == (3, 0.1, 0.0) else 40
                X = shift + rng.uniform(size=(n, d))
                model = GpModel.fit(spec, 0.01, X, np.sin(5.0 * X).sum(axis=1))
                near = X + 1e-9 * ell * rng.uniform(-1.0, 1.0, size=X.shape)
                xs = np.vstack([shift + rng.uniform(size=(1024 - 2 * n, d)), X, near])
                e_k, blocks = kernels.screen_blocks(spec, model._X, xs)
                blocks = [(start, stop, k.copy()) for start, stop, k in blocks]
                e_mu = gp._mean_margin(e_k, n, float(np.sum(np.abs(model._alpha))))
                k32 = np.concatenate([k for _, _, k in blocks], axis=1)
                mu32, kmax32 = gp._means_and(blocks, model._alpha.astype(np.float32), len(xs),
                                             gp._column_max)
                assert np.array_equal(kmax32, k32.max(axis=0))
                # the float64 means by one gemv, as posterior_many's blocks make them
                k64 = cross_matrix(spec, X, xs)
                out[0] = max(out[0], np.max(np.abs(k32 - k64)) / e_k)
                out[1] = max(out[1], np.max(np.abs(mu32 - k64.T @ model._alpha)) / e_mu)
    return out


for family, nu in ast.literal_eval(sys.argv[1]):
    print(*worst(family, nu))
"""


def blas_thread_runs(code, *args):
    """The stdout of `python -c code *args` under 1 and 2 BLAS threads, run
    side by side in new interpreters, keyed by the thread count."""
    src = str(Path(gp.__file__).resolve().parents[1])
    path = os.pathsep.join([src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))
    procs = {threads: subprocess.Popen(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                 PYTHONPATH=path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for threads in ("1", "2")}
    outs = {}
    for threads, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        outs[threads] = out
    return outs


@pytest.fixture(scope="module")
def screen_errors():
    """_MARGINS_CODE's measurements under 1 and 2 BLAS threads, keyed by the
    thread count."""
    return {threads: [tuple(map(float, line.split())) for line in out.splitlines()]
            for threads, out in blas_thread_runs(_MARGINS_CODE, repr(SCREENED)).items()}


# A GP-EI candidate pass at n = 100 (4096 + n points), 2 passes to warm up,
# then the mean minor page faults over 5
_FAULTS_CODE = """
import resource
import numpy as np
from gpbandit.acquisition import ei_scores
from gpbandit.gp import GpModel
from gpbandit.kernels import MATERN, KernelSpec

rng = np.random.default_rng(30)
model = GpModel.fit(KernelSpec(MATERN, 0.2, 2.5), 0.01, rng.uniform(size=(100, 3)),
                    np.sin(5.0 * rng.uniform(size=100)))
xs = np.vstack([rng.uniform(size=(4096, 3)), model.points])
incumbent = float(np.max(model.posterior_many(model.points)[0]))

def ei(means, stds):
    return ei_scores(means, incumbent, stds)

for _ in range(2):
    model.posterior_argmax(xs, ei)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    model.posterior_argmax(xs, ei)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


def test_candidate_passes_reuse_their_memory():
    """The kernel blocks' temporaries live in memory kept between passes:
    freed each block, they went back to the OS and took about 2,000 minor
    page faults per pass to come back.  Measured in a new interpreter,
    since whether freed memory goes back to the OS depends on what the
    process allocated before."""
    pytest.importorskip("resource")
    src = str(Path(gp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", _FAULTS_CODE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert float(proc.stdout) < 100


def box_points(lower, upper, X, rng):
    """Every kind of point a cell search scores in the box [lower, upper]:
    uniform candidates lower + u (upper - lower), some at u = 1 - 2^-53,
    which may round one ulp past the box; the corners; points with faces
    clamped to nextafter(upper, lower); and the sampled points X."""
    d = len(lower)
    u = rng.uniform(size=(40, d))
    u[:8] = np.where(rng.uniform(size=(8, d)) < 0.5, 1.0 - 2.0**-53, u[:8])
    cands = lower + u * (upper - lower)
    corners = np.array([np.where(bits, upper, lower)
                        for bits in itertools.product((False, True), repeat=d)])
    clamped = cands[:12].copy()
    face = rng.uniform(size=clamped.shape) < 0.5
    clamped[face] = np.broadcast_to(np.nextafter(upper, lower), clamped.shape)[face]
    return np.vstack([cands, corners, clamped, X])


# the kernels a cell can hold: SE, the Matern closed forms and the Bessel
# route
BOX_KERNELS = SCREENED + [(MATERN, 1.2)]


class TestBoxBound:
    @settings(max_examples=150, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3, 5]),
        n=st.integers(1, 12),
        kernel=st.sampled_from(BOX_KERNELS),
        ell=st.floats(0.05, 1.0),
        log_lam=st.floats(-8.0, 0.0),
        log_width=st.floats(-7.0, 0.0),
        layout=st.sampled_from(["uniform", "corners", "copies"]),
        jitter=st.booleans(),
        acq=st.one_of(st.tuples(st.just("ei"), st.floats(0.5, 20.0)),
                      st.tuples(st.just("ucb"), st.sampled_from([0.0, 0.5, 4.0]))),
        seed=st.integers(0, 2**16),
    )
    # found failing with box_reach's noise read without the jitter, and with
    # _box_bound's mean margin left out
    @example(d=1, n=1, kernel=(MATERN, 2.5), ell=0.2, log_lam=-2.0, log_width=-7.0,
             layout="copies", jitter=True, acq=("ei", 1.0), seed=0)
    @example(d=2, n=3, kernel=(MATERN, 2.5), ell=0.2, log_lam=-2.0, log_width=-2.0,
             layout="corners", jitter=False, acq=("ucb", 0.0), seed=0)
    def test_bound_covers_every_point_a_search_scores(self, d, n, kernel, ell, log_lam,
                                                      log_width, layout, jitter, acq, seed):
        """Oracle: at every point a cell search can score in its box, alone
        or in a batch, the computed mean and stddev are at most _box_bound's,
        and the computed score at most box_reach's, for EI at scale omega
        and UCB at width beta.  The sampled points are uniform in the box,
        at its corners with signs of y by corner (where the mean bound is
        tight), or copies of one point; with jitter, a duplicated first
        point at lam = 1e-16 forces the jitter refit, whose noise the
        stddev bound must carry (in a box of width ~1e-6 the one-point
        stddev without it is below the computed one)."""
        rng = np.random.default_rng(seed)
        width = 10.0**log_width
        lower = rng.uniform(size=d) * (1.0 - width)
        upper = lower + width
        if layout == "corners":
            bits = rng.uniform(size=(n, d)) < 0.5
            X = np.where(bits, upper, lower)
            y = np.where(bits[:, 0], 1.0, -1.0) * rng.uniform(0.5, 1.5, size=n)
        else:
            X = lower + rng.uniform(size=(n, d)) * (upper - lower)
            if layout == "copies":
                X[:] = X[0]
            y = rng.normal(size=n)
        lam = 10.0**log_lam
        if jitter:
            X, y, lam = np.vstack([X[:1], X]), np.append(y[:1], y), 1e-16
        model = GpModel.fit(KernelSpec(kernel[0], ell, kernel[1]), lam, X, y)
        assert (model._jitter > 0) == jitter
        mean_bound, std_bound = model._box_bound(lower, upper)
        kind, scale = acq
        if kind == "ei":
            incumbent = model.incumbent()[1]

            def score(means, stds):
                return ei_scores(means, incumbent, scale * stds)
        else:
            def score(means, stds):
                return ucb_score(means, stds, scale)
        reach = model.box_reach(lower, upper, (
            lambda m, s: ei_float(m - incumbent, scale * s)) if kind == "ei" else (
            lambda m, s: m + scale * s))
        xs = box_points(lower, upper, X, rng)
        for batch in [xs] + [x[None, :] for x in xs]:
            means, stds = model.posterior_many(batch)
            assert np.all(means <= mean_bound)
            assert np.all(stds <= std_bound)
            assert np.all(score(means, stds) <= reach)


    @pytest.mark.parametrize("shift, want", [(0.0, "slack"), (1e3, "floor")])
    def test_reach_is_the_bound_with_slack_and_floor(self, matern25, shift, want):
        # the float score at _box_bound's (mean, stddev), times
        # 1 + _BOUND_RTOL, and never below _SCORE_FLOOR: an EI that vanishes
        # on the box (its incumbent far above every mean) and a negative UCB
        # reach the floor; the float scores are the array scores' within
        # 1e-12 relative
        rng = np.random.default_rng(3)
        model = GpModel.fit(matern25, 0.01, 0.25 + 0.5 * rng.uniform(size=(4, 2)),
                            rng.normal(size=4))
        lower, upper = np.full(2, 0.25), np.full(2, 0.75)
        mean, std = model._box_bound(lower, upper)
        incumbent = model.incumbent()[1] + shift

        def ei(mean, std):
            return ei_float(mean - incumbent, 2.0 * std)

        def ucb(mean, std):
            return mean - 2 * shift + 0.5 * std

        arrays = (ei_scores(np.array([mean]), incumbent, 2.0 * np.array([std]))[0],
                  ucb_score(np.array([mean - 2 * shift]), np.array([std]), 0.5)[0])
        for score, array in zip((ei, ucb), arrays):
            value = score(mean, std)
            assert type(value) is float and type(model.box_reach(lower, upper, score)) is float
            if want == "slack":
                assert value == pytest.approx(array, rel=1e-12, abs=0)
                assert value > 0 and model.box_reach(lower, upper, score) == (
                    value * (1.0 + gp._BOUND_RTOL))
            else:
                assert value < gp._SCORE_FLOOR and array < gp._SCORE_FLOOR
                assert model.box_reach(lower, upper, score) == gp._SCORE_FLOOR

    def test_bound_is_kept_per_factor_and_box(self, matern25, monkeypatch):
        # box_reach keeps its last box's bound until the factor changes: the
        # same box again costs no far_corner_kernels call, another box never
        # reads the kept bound, and an update drops it
        calls, real = [], gp.far_corner_kernels
        monkeypatch.setattr(gp, "far_corner_kernels",
                            lambda *args: calls.append(args) or real(*args))
        rng = np.random.default_rng(5)
        model = GpModel.fit(matern25, 0.01, 0.5 * rng.uniform(size=(5, 2)), rng.normal(size=5))

        def ucb(mean, std):
            return mean + 2.0 * std

        def fresh(box):  # the reach of a model that has kept no bound
            other = GpModel.fit(matern25, 0.01, model.points, model.observations)
            return other.box_reach(*box, ucb)

        a = (0.0, 0.0), (0.5, 0.5)
        b = (0.0, 0.0), (0.5, 0.25)
        reach = model.box_reach(*a, ucb)
        assert model.box_reach(*a, ucb) == reach and len(calls) == 1
        assert model.box_reach(np.zeros(2), np.full(2, 0.5), ucb) == reach and len(calls) == 1
        assert model.box_reach(*b, ucb) == fresh(b) != reach and len(calls) == 3
        assert model.box_reach(*a, ucb) == reach and len(calls) == 4
        model.update(rng.uniform(size=2) * 0.5, 3.0)
        assert model.box_reach(*a, ucb) == fresh(a) != reach and len(calls) == 6


class TestJitterRefit:
    @settings(max_examples=60, deadline=None)
    @given(
        log10_lam=st.floats(-16.0, 0.0),
        offset=st.sampled_from([0.0, 1e-14, 1e-11, 1e-9]),
        copies=st.integers(1, 3),
        extra=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    @example(log10_lam=-16.0, offset=0.0, copies=1, extra=10, seed=0)
    def test_factor_keeps_one_diagonal_shift(self, log10_lam, offset, copies,
                                             extra, seed):
        # near-duplicates push the extension pivot under the floor, so the
        # model refits with jitter; the rows added after that refit must
        # carry the same jitter, leaving L L^T - K a multiple of I
        lam = 10.0 ** log10_lam
        kernel = KernelSpec(MATERN, 0.2, 2.5)
        rng = np.random.default_rng(seed)
        p = rng.uniform(size=2)
        X = np.vstack([p, p + offset * rng.uniform(-1, 1, size=(copies, 2)),
                       rng.uniform(size=(extra, 2))])
        model = GpModel.fit(kernel, lam, X, rng.normal(size=len(X)))
        L = model._L
        D = L @ L.T - gram_matrix(kernel, model.points)
        diag = np.diag(D)
        assert np.max(np.abs(D - np.diag(diag))) <= 1e-12
        assert np.ptp(diag) <= 1e-12
        assert lam - 1e-12 <= diag.mean() <= lam + 1e-6 + 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_posterior_after_a_refit_matches_the_reference(self, matern25, seed):
        # the last update repeats the first point at lam = 1e-16 and refits,
        # so the factor comes from dpotrf, not from an extension; the
        # posterior still reads the bits of the one-block SciPy reference
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(30, 2))
        model = GpModel.fit(matern25, 1e-16, X, rng.normal(size=30))
        assert model._jitter == 0
        model.update(X[0], rng.normal())
        assert model._jitter > 0
        xq = rng.uniform(size=(600, 2))
        mean, std = model.posterior_many(xq)
        mean_r, std_r = unblocked_posterior(model, xq)
        assert mean.tobytes() == mean_r.tobytes()
        assert std.tobytes() == std_r.tobytes()

    def test_posterior_makes_one_solve_per_block(self, matern25, monkeypatch):
        # alpha is set with the factor, so after each kind of update (first
        # point, extension, jitter refit) a posterior call solves only its
        # kernel blocks
        rng = np.random.default_rng(25)
        p = rng.uniform(size=2)
        xq = rng.uniform(size=(3 * kernels.BLOCK + 7, 2))
        model = GpModel(matern25, 1e-16)
        calls, real = [], gp._solve_lower
        monkeypatch.setattr(gp, "_solve_lower",
                            lambda *args, **kw: calls.append(1) or real(*args, **kw))
        for x in (p, rng.uniform(size=2), p):
            model.update(x, rng.normal())
            del calls[:]
            model.posterior_many(xq)
            assert len(calls) == 3
        assert model._jitter > 0


def first_mean_argmax(model):
    """The sampled point of largest posterior mean, and that mean, from the
    first-index argmax of one posterior pass over the points."""
    points = model.points
    means, _ = model.posterior_many(points)
    i = int(np.argmax(means))
    return points[i], float(means[i])


class TestIncumbent:
    def test_none_without_data(self, matern25):
        assert GpModel(matern25, 0.01).incumbent() is None

    @pytest.mark.parametrize("seed", range(5))
    def test_first_argmax_of_the_posterior_means(self, matern25, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(15, 2))
        model = GpModel.fit(matern25, 0.01, X, rng.normal(size=15))
        x, mean = model.incumbent()
        want_x, want_mean = first_mean_argmax(model)
        assert x.tobytes() == want_x.tobytes()
        assert mean == want_mean

    def test_ties_go_to_the_first_point(self, matern25):
        # zero observations give alpha = 0, so every mean is exactly 0
        X = np.random.default_rng(5).uniform(size=(6, 2))
        x, mean = GpModel.fit(matern25, 0.01, X, np.zeros(6)).incumbent()
        assert x.tobytes() == X[0].tobytes() and mean == 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_read_again_after_an_update_and_a_refit(self, d):
        kernel = KernelSpec(MATERN, 0.3, 2.5)
        rng = np.random.default_rng(60 + d)
        model = GpModel(kernel, 1e-16)
        p = rng.uniform(size=d)
        model.update(p, 0.0)
        for x, y in ((rng.uniform(size=d), 1.0), (p, 2.0)):  # an extension, a refit
            before = model.incumbent()
            model.update(x, y)
            assert model.incumbent() is not before
            assert model.incumbent()[1] == first_mean_argmax(model)[1]
        assert model._jitter > 0
        model = jitter_refit_model(kernel, d, rng)
        x, mean = model.incumbent()
        want_x, want_mean = first_mean_argmax(model)
        assert x.tobytes() == want_x.tobytes() and mean == want_mean
        model.update(rng.uniform(size=d), mean + 1.0)
        x, mean = model.incumbent()
        want_x, want_mean = first_mean_argmax(model)
        assert x.tobytes() == want_x.tobytes() and mean == want_mean

    def test_one_posterior_pass_per_factor(self, matern25, monkeypatch):
        # one pass over the kept Gram matrix per factor, and neither a walk
        # of kernel blocks nor a posterior_many call: no kernel value is
        # computed again, and the stddevs posterior_many would solve are not
        # read
        rng = np.random.default_rng(26)
        p = rng.uniform(size=2)
        model = GpModel(matern25, 1e-16)
        passes, walks, calls = [], [], []
        real_edges, real_blocks = gp.block_edges, gp.cross_blocks
        real_many = GpModel.posterior_many
        monkeypatch.setattr(gp, "block_edges",
                            lambda *args: passes.append(1) or real_edges(*args))
        monkeypatch.setattr(gp, "cross_blocks",
                            lambda *args: walks.append(1) or real_blocks(*args))
        monkeypatch.setattr(GpModel, "posterior_many",
                            lambda self, xs: calls.append(1) or real_many(self, xs))
        for x in (p, rng.uniform(size=2), p):  # first point, extension, refit
            model.update(x, rng.normal())
            del passes[:], walks[:], calls[:]
            first = model.incumbent()
            for _ in range(2):
                assert model.incumbent() is first
            assert len(passes) == 1 and not walks and not calls
        assert model._jitter > 0

    def test_means_are_posterior_many_bytes_over_several_blocks(self, matern25):
        # 1030 points are walked in two kernel blocks, the second ragged
        rng = np.random.default_rng(27)
        n = 2 * kernels.BLOCK + 6
        model = GpModel(matern25, 0.01)
        model._X, model._y = rng.uniform(size=(n, 2)), rng.normal(size=n)
        model._refit()
        x, mean = model.incumbent()
        want_x, want_mean = first_mean_argmax(model)
        assert x.tobytes() == want_x.tobytes() and mean == want_mean


# Every mean of incumbent's pass over the kept Gram matrix, against
# posterior_many's at the same points, for models of one to four kernel
# blocks: a BLAS on several threads splits a gemv by its shape, so one gemv
# over all columns rounds some means differently from posterior_many's walk
_ALL_MEANS_CODE = """
import numpy as np
from gpbandit import gp, kernels
from gpbandit.gp import GpModel
from gpbandit.kernels import MATERN, KernelSpec

rng = np.random.default_rng(34)
for n in (700, 2 * kernels.BLOCK + 6, 3 * kernels.BLOCK + 3, 5 * kernels.BLOCK + 1):
    model = GpModel(KernelSpec(MATERN, 0.2, 2.5), 0.01)
    model._X, model._y = rng.uniform(size=(n, 2)), rng.normal(size=n)
    model._refit()
    seen, real = [], gp._means_and
    gp._means_and = lambda *args: seen.append(real(*args)) or seen[-1]
    model.incumbent()
    gp._means_and = real
    [(means, _)] = seen
    print(n, means.tobytes() == model.posterior_many(model.points)[0].tobytes())
"""


def assert_kept_gram(model):
    """The model's kept Gram matrix is gram_matrix's to the bit, and its
    incumbent is first_mean_argmax's bytes."""
    want = gram_matrix(model.kernel, model._X)
    assert model._K.dtype == want.dtype and model._K.tobytes() == want.tobytes()
    x, mean = model.incumbent()
    want_x, want_mean = first_mean_argmax(model)
    assert x.tobytes() == want_x.tobytes()
    assert np.float64(mean).tobytes() == np.float64(want_mean).tobytes()


class TestKeptGram:
    """GpModel keeps gram_matrix(kernel, points) through the first point,
    every extension and every jitter refit, and incumbent's means over it
    are posterior_many's."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("family,nu", SCREENED + [(MATERN, 1.2)])
    def test_after_every_update(self, family, nu, d):
        # an exact duplicate at lam = 1e-16 forces a jitter refit, and a
        # near-duplicate within _ZERO_SNAP * l of it takes the snap to 1
        kernel = KernelSpec(family, 0.3, nu)
        rng = np.random.default_rng([31, d, int(10 * (nu or 0))])
        p = rng.uniform(size=d)
        near = p + 0.1 * kernels._ZERO_SNAP * kernel.lengthscale
        assert near.tobytes() != p.tobytes()
        points = np.vstack([p, rng.uniform(size=(4, d)), p, rng.uniform(size=(3, d)), near,
                            rng.uniform(size=(3, d))])
        model = GpModel(kernel, 1e-16)
        refits = 0
        for x in points:
            jitter = model._jitter
            model.update(x, rng.normal())
            refits += model._jitter != jitter
            assert_kept_gram(model)
        assert refits and model._jitter > 0

    def test_every_mean_is_posterior_many_bytes_under_1_and_2_blas_threads(self):
        for out in blas_thread_runs(_ALL_MEANS_CODE).values():
            assert [line.split()[1] for line in out.splitlines()] == ["True"] * 4, out

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_near_duplicates_snap_on_extension(self, matern25, d):
        # at lam = 0.01 the near-duplicates extend the factor, so the snapped
        # values come from the extension's kernel column, not a refit
        rng = np.random.default_rng([32, d])
        X = rng.uniform(size=(6, d))
        model = GpModel(matern25, 0.01)
        for x in np.vstack([X, X + 0.5 * kernels._ZERO_SNAP * matern25.lengthscale]):
            model.update(x, rng.normal())
            assert_kept_gram(model)
        assert model._jitter == 0.0
        assert (model._K[:6, 6:] == 1.0).any()

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_se_past_the_exp_clamp(self, d):
        # at l = 0.001 unit-box distances pass _EXP_ZERO * l, where the
        # kernel clamps them
        kernel = KernelSpec(SQUARED_EXPONENTIAL, 0.001)
        rng = np.random.default_rng([33, d])
        X = rng.uniform(size=(12, d))
        model = GpModel(kernel, 0.01)
        for x in X:
            model.update(x, rng.normal())
            assert_kept_gram(model)
        r = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
        assert (r > kernels._EXP_ZERO * kernel.lengthscale).any()


class TestStoredCount:
    """GpModel.n, a count set with the points, is len(points) through the
    first point, every extension and every jitter refit."""

    @pytest.mark.parametrize("seed", range(5))
    def test_count_follows_every_update(self, matern25, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(12, 2))
        X[1] = X[0]  # at lam = 1e-16, a repeated point refits with jitter
        model = GpModel(matern25, 1e-16)
        assert model.n == 0 == len(model.observations)
        for i, x in enumerate(X):
            model.update(x, rng.normal())
            assert model.n == i + 1 == len(model.points) == len(model.observations)
        assert model._jitter > 0

    def test_refit_sets_the_count_of_injected_points(self, matern25):
        rng = np.random.default_rng(8)
        model = GpModel.fit(matern25, 0.01, rng.uniform(size=(3, 2)), rng.normal(size=3))
        model._X, model._y = rng.uniform(size=(7, 2)), rng.normal(size=7)
        model._refit()
        assert model.n == 7 and model._L.shape == (7, 7)


class TestVarianceMonotonicity:
    def test_sigma_never_increases(self):
        kernel = KernelSpec(MATERN, 0.2, 2.5)
        rng = np.random.default_rng(16)
        probes = rng.uniform(size=(200, 2))
        model = GpModel(kernel, 0.01)
        prev = model.posterior_many(probes)[1]
        for _ in range(50):
            model.update(rng.uniform(size=2), rng.normal())
            cur = model.posterior_many(probes)[1]
            assert np.all(cur <= prev + 1e-6)
            prev = cur


class TestInfoGain:
    def test_empty_is_zero(self):
        model = GpModel(KernelSpec(SQUARED_EXPONENTIAL, 1.0), 1.0)
        assert model.accumulated_info_gain() == 0.0

    def test_update_returns_the_prior_stddev_at_the_point(self, matern25):
        rng = np.random.default_rng(21)
        model = GpModel(matern25, 0.01)
        for _ in range(6):
            x = rng.uniform(size=2)
            _, before = model.posterior(x)
            assert model.update(x, rng.normal()) == before

    def test_first_point_half_ln_two(self):
        model = GpModel(KernelSpec(SQUARED_EXPONENTIAL, 1.0), 1.0)
        model.update(np.array([0.5]), 0.3)
        assert model.accumulated_info_gain() == pytest.approx(0.5 * math.log(2), rel=1e-12)

    def test_identity_with_log_det_at_every_step(self):
        kernel = KernelSpec(MATERN, 0.2, 2.5)
        lam = 0.1
        rng = np.random.default_rng(17)
        model = GpModel(kernel, lam)
        X = []
        for _ in range(30):
            x = rng.uniform(size=2)
            model.update(x, rng.normal())
            X.append(x)
            K = gram_matrix(kernel, np.array(X))
            direct = 0.5 * np.linalg.slogdet(np.eye(len(X)) + K / lam)[1]
            assert model.accumulated_info_gain() == pytest.approx(direct, abs=1e-6)

    def test_running_sum_is_kept_after_a_jitter_refit(self, matern25):
        # a duplicate point at lam = 1e-16 spoils the extension pivot; the
        # refit needs jitter, so the factor no longer carries the
        # log-det gain of the points, and the model keeps the running sum
        rng = np.random.default_rng(0)
        p = rng.uniform(size=2)
        X = np.vstack([p, p, rng.uniform(size=(20, 2))])
        model = GpModel(matern25, 1e-16)
        running = 0.0
        for x in X:
            sigma = model.update(x, 0.0)
            running += 0.5 * math.log1p(sigma * sigma / 1e-16)
        assert model._jitter > 0
        assert model.accumulated_info_gain() == running
        assert abs(model.log_det_info_gain() - running) > 1.0

    def test_chol_factor_reconstructs_system(self):
        kernel = KernelSpec(MATERN, 0.2, 2.5)
        rng = np.random.default_rng(18)
        X = rng.uniform(size=(25, 2))
        model = GpModel.fit(kernel, 0.01, X, rng.normal(size=25))
        L = model._L
        A = gram_matrix(kernel, X) + 0.01 * np.eye(25)
        np.testing.assert_allclose(L @ L.T, A, rtol=1e-8, atol=1e-10)


class TestErrors:
    def test_nonfinite_update_rejected(self):
        model = GpModel(KernelSpec(SQUARED_EXPONENTIAL, 1.0), 0.01)
        with pytest.raises(ValueError):
            model.update(np.array([np.nan]), 1.0)
        with pytest.raises(ValueError):
            model.update(np.array([0.5]), float("inf"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_query_rejected(self, matern25, bad):
        # the kernel's distance check sees the bad coordinate, with no
        # RuntimeWarning, and the input scan names it; a model with data and
        # one without reject the point before it enters
        rng = np.random.default_rng(7)
        model = GpModel.fit(matern25, 0.01, rng.uniform(size=(3, 2)), rng.uniform(size=3))
        for xs in (np.array([[0.2, bad]]), np.vstack([rng.uniform(size=(20, 2)), [[bad, 0.4]]])):
            with pytest.raises(ValueError, match="^kernel inputs must be finite$"):
                model.posterior_many(xs)
        for m in (model, GpModel(matern25, 0.01)):
            n = m.n
            with pytest.raises(ValueError, match="^update inputs must be finite$"):
                m.update(np.array([bad, 0.5]), 1.0)
            assert m.n == n

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            GpModel(KernelSpec(SQUARED_EXPONENTIAL, 1.0), 0.0)

    def test_lambda_whose_reciprocal_overflows(self):
        # log1p(var / lam) in the information gain would be infinite
        with pytest.raises(ValueError, match="with 1/lam finite"):
            GpModel(KernelSpec(SQUARED_EXPONENTIAL, 1.0), 1e-320)
