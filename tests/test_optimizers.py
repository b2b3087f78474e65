import hashlib
import math

import numpy as np
import pytest

from gpbandit.acquisition import (
    OMEGA_FIXED,
    OMEGA_POLYLOG_T,
    OMEGA_THEORY_EI,
    OmegaSchedule,
)
from gpbandit import optimizers, partition
from gpbandit.bench import strip_wallclock, trace_csv_lines
from gpbandit.gp import GpModel
from gpbandit.kernels import MATERN, KernelSpec
from gpbandit.optimizers import (
    ALG_GP_EI,
    ALG_IMPROVED_GP_EI,
    ALG_PI_UCB,
    AcquisitionNumericsError,
    RunConfig,
    maximize_acquisition,
    run,
)
from gpbandit.partition import initial_cover
from gpbandit.testbed import NoisyOracle, make_rkhs_function, standard_function


KERNEL = KernelSpec(MATERN, 0.2, 2.5)
FIXED1 = OmegaSchedule(OMEGA_FIXED, c=1.0)


def small_config(alg=ALG_GP_EI, T=5, omega=FIXED1, seed=0, **kw):
    kw.setdefault("acq_candidates", 256)
    kw.setdefault("acq_refinements", 5)
    return RunConfig(
        algorithm=alg, horizon_T=T, omega=omega, kernel=KERNEL,
        lam=0.01, seed=seed, **kw
    )


def rkhs_oracle(seed=100, d=2, noise=0.1, m=30):
    rng = np.random.default_rng(seed)
    f = make_rkhs_function(KERNEL, d, m, rng, optimum_budget=5000)
    oracle = NoisyOracle(f, d, noise, np.random.default_rng(seed + 1))
    return oracle, f.optimum_value


class TestMaximizeAcquisition:
    def test_finds_quadratic_peak(self):
        center = np.full(2, 0.5)

        def score(xs):
            return -np.sum((np.atleast_2d(xs) - center) ** 2, axis=1)

        best, _ = maximize_acquisition(
            score, np.zeros(2), np.ones(2), np.random.default_rng(61),
            n_candidates=4096, n_refinements=20,
        )
        assert np.linalg.norm(best - center) < 0.02

    def test_single_candidate_no_refinement(self):
        def score(xs):
            return np.atleast_2d(xs)[:, 0]

        rng = np.random.default_rng(62)
        extra = np.array([[0.99]])
        best, _ = maximize_acquisition(
            score, np.zeros(1), np.ones(1), rng, 1, 0, extra_points=extra
        )
        # the prior sample point scores 0.99; a uniform draw rarely beats it
        assert best[0] >= 0.99 or score(best[None, :])[0] > 0.99

    def test_constant_score_first_seen_wins(self):
        def score(xs):
            return np.zeros(np.atleast_2d(xs).shape[0])

        rng = np.random.default_rng(63)
        cands_preview = np.random.default_rng(63).uniform(size=(8, 2))
        best, _ = maximize_acquisition(score, np.zeros(2), np.ones(2), rng, 8, 0)
        np.testing.assert_allclose(best, cands_preview[0])

    def test_deterministic_given_rng(self):
        def score(xs):
            return np.sin(np.sum(np.atleast_2d(xs), axis=1))

        a, _ = maximize_acquisition(
            score, np.zeros(3), np.ones(3), np.random.default_rng(64), 128, 5
        )
        b, _ = maximize_acquisition(
            score, np.zeros(3), np.ones(3), np.random.default_rng(64), 128, 5
        )
        np.testing.assert_array_equal(a, b)

    def test_nan_score_raises_with_point(self):
        def score(xs):
            return np.full(np.atleast_2d(xs).shape[0], np.nan)

        with pytest.raises(AcquisitionNumericsError) as err:
            maximize_acquisition(
                score, np.zeros(2), np.ones(2), np.random.default_rng(65), 4, 0
            )
        assert err.value.point.shape == (2,)


class TestRunGpEi:
    def test_horizon_one(self):
        oracle, opt = rkhs_oracle()
        trace = run(small_config(T=1), oracle, opt)
        assert trace.horizon == 1
        row = trace.rows[0]
        np.testing.assert_array_equal(row.x, row.x_plus)

    def test_flat_zero_objective_zero_regret(self):
        oracle = NoisyOracle(lambda x: 0.0, 2, 0.0, np.random.default_rng(0))
        trace = run(small_config(T=6), oracle, 0.0)
        assert all(r.instantaneous_regret == 0.0 for r in trace.rows)
        assert trace.rows[-1].cumulative_regret == 0.0

    def test_determinism(self):
        for _ in range(2):
            oracle, opt = rkhs_oracle(seed=200)
            traces = [run(small_config(T=5, seed=3), rkhs_oracle(seed=200)[0], opt)
                      for _ in range(2)]
        a, b = traces
        for ra, rb in zip(a.rows, b.rows):
            np.testing.assert_array_equal(ra.x, rb.x)
            assert ra.y == rb.y
            assert ra.cumulative_regret == rb.cumulative_regret

    def test_reporting_rule_maximizes_posterior_mean(self):
        oracle, opt = rkhs_oracle(seed=201)
        from gpbandit.gp import GpModel

        trace = run(small_config(T=8), oracle, opt)
        # rebuild the model over the trace and check each reported point
        model = GpModel(KERNEL, 0.01)
        for row in trace.rows:
            model.update(row.x, row.y)
            means, _ = model.posterior_many(model.points)
            best = model.points[int(np.argmax(means))]
            np.testing.assert_allclose(row.x_plus, best, atol=1e-12)

    def test_omega_nondecreasing_under_theory_schedule(self):
        oracle, opt = rkhs_oracle(seed=202)
        cfg = small_config(T=10, omega=OmegaSchedule(OMEGA_THEORY_EI, delta=0.05))
        trace = run(cfg, oracle, opt)
        omegas = [r.omega for r in trace.rows]
        assert all(a <= b + 1e-12 for a, b in zip(omegas, omegas[1:]))

    def test_sigma_sum_bound_theory_lambda(self):
        # with lam = 1 + 2/T the stddev sum obeys sqrt(4(T+2) * gain)
        T = 20
        oracle, opt = rkhs_oracle(seed=203)
        cfg = RunConfig(
            algorithm=ALG_GP_EI, horizon_T=T, omega=FIXED1, kernel=KERNEL,
            lam=1 + 2 / T, seed=1, acq_candidates=256, acq_refinements=5,
        )
        trace = run(cfg, oracle, opt)
        bound = math.sqrt(4 * (T + 2) * trace.final_info_gain)
        assert trace.sum_sigma_selected <= bound

    def test_makes_progress_on_smooth_target(self):
        finals, earlies = [], []
        for seed in range(5):
            oracle, opt = rkhs_oracle(seed=300 + seed)
            cfg = small_config(T=30, seed=seed, acq_candidates=512)
            trace = run(cfg, oracle, opt)
            gap = lambda r: max(opt - r.f_at_x_plus, 1e-12)
            earlies.append(math.log10(gap(trace.rows[4])))
            finals.append(math.log10(gap(trace.rows[-1])))
        assert np.median(finals) < np.median(earlies)

    @pytest.mark.parametrize("kernel, omega, candidates, digest", [
        (KERNEL, FIXED1, 4096,
         "bea7f0ab4ecbb054c7f75aa7d0cb0ef8b4e8e43a4300870e559d614f38533d30"),
        (KERNEL, OmegaSchedule(OMEGA_THEORY_EI, delta=0.05), 4096,
         "6b759993edc4822335dcada27c4220c6691fd75277f96f64d4a6b6c685eb3179"),
        (KernelSpec("se", 0.2), FIXED1, 4096,
         "1118270397b294c4cb71423ebeb0350e8ba32840980aa6bf91222ce79963749d"),
        (KERNEL, FIXED1, 64,
         "65ecfcc50398388587fb4f8608f20da45b501e09d640cba91368bad1077efe8d"),
    ], ids=["matern_fixed", "theory_ei", "se", "candidates64"])
    def test_trace_unchanged(self, kernel, omega, candidates, digest):
        # GP-EI as the one-cell cover: the stripped trace is pinned by the
        # hashes of the loop it replaced
        target, d, opt, _ = standard_function("hartmann3")
        cfg = RunConfig(
            algorithm=ALG_GP_EI, horizon_T=30, omega=omega, kernel=kernel,
            lam=0.01, seed=3, acq_candidates=candidates,
        )
        oracle = NoisyOracle(target, d, 0.1, np.random.default_rng(77))
        trace = run(cfg, oracle, opt)
        assert trace.total_cells_created == 1 and math.isnan(trace.cover_q)
        text = strip_wallclock("\n".join(trace_csv_lines(trace, "x", opt)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestCoverLoops:
    def test_horizon_one_single_cell_matches_gp_ei_first_point(self):
        oracle, opt = rkhs_oracle(seed=400)
        cfg_a = small_config(T=1, seed=5)
        trace_a = run(cfg_a, rkhs_oracle(seed=400)[0], opt)
        cfg_b = RunConfig(
            algorithm=ALG_IMPROVED_GP_EI, horizon_T=1,
            omega=OmegaSchedule(OMEGA_FIXED, c=1.0), kernel=KERNEL,
            lam=0.01, seed=5, acq_candidates=256, acq_refinements=5,
        )
        trace_b = run(cfg_b, rkhs_oracle(seed=400)[0], opt)
        np.testing.assert_array_equal(trace_a.rows[0].x, trace_b.rows[0].x)

    def test_initial_cell_count_and_monotone_growth(self):
        oracle, opt = rkhs_oracle(seed=401, d=3)
        cfg = RunConfig(
            algorithm=ALG_IMPROVED_GP_EI, horizon_T=25,
            omega=OmegaSchedule(OMEGA_POLYLOG_T, horizon_T=25), kernel=KERNEL,
            lam=0.01, seed=2, acq_candidates=256, acq_refinements=3,
        )
        trace = run(cfg, oracle, opt)
        counts = [r.cell_count for r in trace.rows]
        # d=3, T=25: one initial cell, but its diameter sqrt(3) > 1 gives
        # capacity below 1, so the first split pass already fires
        assert counts[0] == 8
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_selected_point_inside_winning_cell(self):
        oracle, opt = rkhs_oracle(seed=402)
        cfg = RunConfig(
            algorithm=ALG_IMPROVED_GP_EI, horizon_T=15,
            omega=OmegaSchedule(OMEGA_POLYLOG_T, horizon_T=100), kernel=KERNEL,
            lam=0.01, seed=3, acq_candidates=256, acq_refinements=3,
        )
        trace = run(cfg, oracle, opt)
        cover = initial_cover(2, 100, KERNEL, 0.01)
        for row in trace.rows:
            assert np.all(row.x >= 0.0) and np.all(row.x <= 1.0)
            # every point owned by exactly one cell
            assert sum(c.contains(row.x) for c in cover.cells) == 1

    def test_ucb_baseline_runs_and_is_deterministic(self):
        cfg = RunConfig(
            algorithm=ALG_PI_UCB, horizon_T=10,
            omega=OmegaSchedule(OMEGA_POLYLOG_T, horizon_T=100), kernel=KERNEL,
            lam=0.01, seed=4, acq_candidates=256, acq_refinements=3,
        )
        traces = [run(cfg, rkhs_oracle(seed=403)[0],
                      rkhs_oracle(seed=403)[1]) for _ in range(2)]
        for ra, rb in zip(traces[0].rows, traces[1].rows):
            np.testing.assert_array_equal(ra.x, rb.x)
            assert ra.cumulative_regret == rb.cumulative_regret

    def test_partition_algorithms_need_smooth_matern(self):
        with pytest.raises(ValueError):
            RunConfig(
                algorithm=ALG_IMPROVED_GP_EI, horizon_T=10,
                omega=OmegaSchedule(OMEGA_POLYLOG_T, horizon_T=100),
                kernel=KernelSpec(MATERN, 0.2, 0.5), lam=0.01,
            )


class _StepRecorder:
    """Oracle wrapper that notes, at each observation, how many acquisition
    searches ran since the previous one and the cover as the previous step
    left it."""

    def __init__(self, oracle, monkeypatch):
        self.oracle, self.dim = oracle, oracle.dim
        self.target = oracle.target
        self.searches, self.per_step, self.cover = 0, [], None
        self.reports = []  # fresh across-cells argmax before each step
        search, cover_fn = optimizers.maximize_acquisition, optimizers.initial_cover

        def counting_search(*args, **kwargs):
            self.searches += 1
            return search(*args, **kwargs)

        def capturing_cover(*args, **kwargs):
            self.cover = cover_fn(*args, **kwargs)
            self.initial_cells = self.cover.cell_count
            return self.cover

        monkeypatch.setattr(optimizers, "maximize_acquisition", counting_search)
        monkeypatch.setattr(optimizers, "initial_cover", capturing_cover)

    def fresh_report(self):
        best = None
        for cell in self.cover.cells:
            if cell.model.n:
                pts = cell.model.points
                means, _ = cell.model.posterior_many(pts)
                i = int(np.argmax(means))
                if best is None or means[i] > best[1]:
                    best = (pts[i], means[i])
        return None if best is None else best[0]

    def __call__(self, x):
        self.reports.append(self.fresh_report())
        self.per_step.append(self.searches)
        self.searches = 0
        return self.oracle(x)


class TestCoverSearchCache:
    def polylog_config(self, alg, T=25):
        return RunConfig(
            algorithm=alg, horizon_T=T,
            omega=OmegaSchedule(OMEGA_POLYLOG_T, horizon_T=100), kernel=KERNEL,
            lam=0.01, seed=6, acq_candidates=256, acq_refinements=3,
        )

    @pytest.mark.parametrize("alg", [ALG_IMPROVED_GP_EI, ALG_PI_UCB])
    def test_only_the_observed_cell_is_searched_again(self, alg, monkeypatch):
        oracle, opt = rkhs_oracle(seed=404)
        rec = _StepRecorder(oracle, monkeypatch)
        trace = optimizers.run(self.polylog_config(alg), rec, opt)
        counts = [rec.initial_cells] + [r.cell_count for r in trace.rows]
        assert rec.per_step[0] == counts[0]
        unsplit = 0
        for t in range(2, trace.horizon + 1):
            if counts[t - 1] == counts[t - 2]:  # step t-1 did not split
                assert rec.per_step[t - 1] == 1, t
                unsplit += 1
            else:
                assert rec.per_step[t - 1] >= 1, t
        assert unsplit >= 5
        assert sum(rec.per_step) < trace.horizon * counts[-1] / 2

    @pytest.mark.parametrize("alg", [ALG_IMPROVED_GP_EI, ALG_PI_UCB])
    def test_reported_point_is_fresh_argmax_of_posterior_means(self, alg, monkeypatch):
        oracle, opt = rkhs_oracle(seed=405)
        rec = _StepRecorder(oracle, monkeypatch)
        trace = optimizers.run(self.polylog_config(alg), rec, opt)
        fresh = rec.reports[1:] + [rec.fresh_report()]
        for row, x_plus in zip(trace.rows, fresh):
            np.testing.assert_array_equal(row.x_plus, x_plus)

    def test_theory_schedule_trace_unchanged(self):
        # omega_t moves with the global gain under theory_ei, so every cell
        # is searched at every step, with the same rng draws as a loop that
        # caches nothing; the stripped trace is pinned by its hash
        target, d, opt, _ = standard_function("hartmann3")
        cfg = RunConfig(
            algorithm=ALG_IMPROVED_GP_EI, horizon_T=30,
            omega=OmegaSchedule(OMEGA_THEORY_EI, delta=0.05), kernel=KERNEL,
            lam=0.01, seed=3,
        )
        oracle = NoisyOracle(target, d, 0.1, np.random.default_rng(77))
        trace = run(cfg, oracle, opt)
        text = strip_wallclock("\n".join(trace_csv_lines(trace, "x", opt)))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "7c0c34ec95d0f690dfab8fb1fb9aa154d91b8f65860d37cf4f233199f8c99e45"
        )

    @pytest.mark.parametrize("alg", [ALG_IMPROVED_GP_EI, ALG_PI_UCB])
    def test_cell_budget_never_exceeds_the_total(self, alg, monkeypatch):
        budgets, search = [], optimizers.maximize_acquisition

        def recording_search(score_fn, lower, upper, rng, n_candidates, *args, **kwargs):
            budgets.append(n_candidates)
            return search(score_fn, lower, upper, rng, n_candidates, *args, **kwargs)

        monkeypatch.setattr(optimizers, "maximize_acquisition", recording_search)
        oracle, opt = rkhs_oracle(seed=409)
        cfg = RunConfig(
            algorithm=alg, horizon_T=25,
            omega=OmegaSchedule(OMEGA_POLYLOG_T, horizon_T=100), kernel=KERNEL,
            lam=0.01, seed=6, acq_candidates=64, acq_refinements=3,
        )
        trace = run(cfg, oracle, opt)
        assert trace.rows[-1].cell_count > 1
        assert budgets and max(budgets) <= 64

    @pytest.mark.parametrize("alg", [ALG_IMPROVED_GP_EI, ALG_PI_UCB])
    def test_search_reuses_the_maximizer_score(self, alg, monkeypatch):
        # without a split or a face clamp, each searched cell costs the
        # candidate batch and one call per refinement, and no re-score
        state = {"reads": 0, "searches": 0, "clamped": False}
        steps = []
        real_posterior_many = GpModel.posterior_many
        search = optimizers.maximize_acquisition

        def posterior_many(self, xs):
            state["reads"] += 1
            return real_posterior_many(self, xs)

        def counting_search(score_fn, lower, upper, *args, **kwargs):
            if state["searches"] == 0:  # drop the reads of the previous step
                state["reads"] = 0
            state["searches"] += 1
            x, s = search(score_fn, lower, upper, *args, **kwargs)
            state["clamped"] |= bool(np.any((upper < 1.0) & (x >= upper)))
            return x, s

        oracle, opt = rkhs_oracle(seed=410)

        def observe(x):
            steps.append(dict(state))
            state.update(reads=0, searches=0, clamped=False)
            return oracle(x)

        observe.dim, observe.target = oracle.dim, oracle.target
        monkeypatch.setattr(GpModel, "posterior_many", posterior_many)
        monkeypatch.setattr(optimizers, "maximize_acquisition", counting_search)
        cfg = self.polylog_config(alg)
        trace = run(cfg, observe, opt)
        counts = [r.cell_count for r in trace.rows]
        checked = 0
        for t, step in enumerate(steps[1:], start=2):
            if counts[t - 1] == counts[t - 2] and not step["clamped"]:
                assert step["reads"] == step["searches"] * (cfg.acq_refinements + 1), t
                checked += 1
        assert checked >= 5

    def test_selected_point_outside_its_cell_raises(self, monkeypatch):
        monkeypatch.setattr(partition.Cell, "contains", lambda self, x: False)
        oracle, opt = rkhs_oracle(seed=406)
        with pytest.raises(RuntimeError, match="outside its cell"):
            run(self.polylog_config(ALG_IMPROVED_GP_EI), oracle, opt)


class TestPosteriorReads:
    @pytest.mark.parametrize("alg", [ALG_GP_EI, ALG_IMPROVED_GP_EI, ALG_PI_UCB])
    def test_selected_point_is_read_once_per_step(self, alg, monkeypatch):
        # the read inside update, which also yields the trace's sigma; the
        # updates that refit the cells a split creates are not counted
        reads, splitting = [], []
        real_posterior, real_split = GpModel.posterior, optimizers.split_pass

        def split_pass(*args, **kwargs):
            splitting.append(1)
            try:
                return real_split(*args, **kwargs)
            finally:
                splitting.pop()

        def posterior(self, x):
            if not splitting:
                reads.append(1)
            return real_posterior(self, x)

        monkeypatch.setattr(GpModel, "posterior", posterior)
        monkeypatch.setattr(optimizers, "split_pass", split_pass)
        oracle, opt = rkhs_oracle(seed=407)
        trace = optimizers.run(small_config(alg, T=8), oracle, opt)
        assert len(reads) == trace.horizon

    def test_gp_ei_reads_best_sampled_mean_once_per_model_version(self, monkeypatch):
        calls, real = [], GpModel.posterior_many
        monkeypatch.setattr(GpModel, "posterior_many",
                            lambda self, xs: calls.append(1) or real(self, xs))
        oracle, opt = rkhs_oracle(seed=408)
        cfg = small_config(T=6)
        run(cfg, oracle, opt)
        # per step: the candidate batch, one call per refinement, the
        # update's read and the best sampled mean after it
        assert len(calls) == cfg.horizon_T * (cfg.acq_refinements + 3)


class TestRunConfigValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            RunConfig(algorithm="annealing", horizon_T=10, omega=FIXED1, kernel=KERNEL)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            RunConfig(algorithm=ALG_GP_EI, horizon_T=0, omega=FIXED1, kernel=KERNEL)
