import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from gpbandit import bench, gp, optimizers, partition
from gpbandit.bench import strip_wallclock, trace_csv_lines
from gpbandit.gp import GpModel
from gpbandit.kernels import MATERN, KernelSpec, cross_matrix
from gpbandit.optimizers import (
    ALG_GP_EI,
    ALG_IMPROVED_GP_EI,
    ALG_PI_UCB,
    OMEGA_FIXED,
    OMEGA_POLYLOG_T,
    OMEGA_THEORY_EI,
    AcquisitionNumericsError,
    RunConfig,
    maximize_acquisition,
    run,
    search_draw,
)
from gpbandit.partition import initial_cover
from gpbandit.testbed import NoisyOracle, make_rkhs_function, standard_function


KERNEL = KernelSpec(MATERN, 0.2, 2.5)


def small_config(alg=ALG_GP_EI, T=5, omega_mode=OMEGA_FIXED, seed=0, **kw):
    kw.setdefault("acq_candidates", 256)
    kw.setdefault("acq_refinements", 5)
    return RunConfig(
        algorithm=alg, horizon_T=T, omega_mode=omega_mode, kernel=KERNEL,
        lam=0.01, seed=seed, **kw
    )


def rkhs_oracle(seed=100, d=2, noise=0.1, m=30):
    rng = np.random.default_rng(seed)
    f = make_rkhs_function(KERNEL, d, m, rng, optimum_budget=5000)
    oracle = NoisyOracle(f, d, noise, np.random.default_rng(seed + 1))
    return oracle, f.optimum_value


def drawn_search(score_fn, lower, upper, rng, n_candidates, n_refinements,
                 extra_points=None):
    """maximize_acquisition on one search_draw from rng, as run searches a
    cell with data."""
    cand_u, probe_u = search_draw(rng, n_candidates, n_refinements, len(lower))
    return maximize_acquisition(score_fn, lower, upper, cand_u, probe_u,
                                extra_points=extra_points)


class TestMaximizeAcquisition:
    def test_finds_quadratic_peak(self):
        center = np.full(2, 0.5)

        def score(xs):
            return -np.sum((np.atleast_2d(xs) - center) ** 2, axis=1)

        best, _ = drawn_search(
            score, np.zeros(2), np.ones(2), np.random.default_rng(61),
            n_candidates=4096, n_refinements=20,
        )
        assert np.linalg.norm(best - center) < 0.02

    def test_single_candidate_no_refinement(self):
        def score(xs):
            return np.atleast_2d(xs)[:, 0]

        rng = np.random.default_rng(62)
        extra = np.array([[0.99]])
        best, _ = drawn_search(
            score, np.zeros(1), np.ones(1), rng, 1, 0, extra_points=extra
        )
        # the prior sample point scores 0.99; a uniform draw rarely beats it
        assert best[0] >= 0.99 or score(best[None, :])[0] > 0.99

    def test_constant_score_first_seen_wins(self):
        def score(xs):
            return np.zeros(np.atleast_2d(xs).shape[0])

        rng = np.random.default_rng(63)
        cands_preview = np.random.default_rng(63).uniform(size=(8, 2))
        best, _ = drawn_search(score, np.zeros(2), np.ones(2), rng, 8, 0)
        np.testing.assert_allclose(best, cands_preview[0])

    def test_deterministic_given_rng(self):
        def score(xs):
            return np.sin(np.sum(np.atleast_2d(xs), axis=1))

        a, _ = drawn_search(
            score, np.zeros(3), np.ones(3), np.random.default_rng(64), 128, 5
        )
        b, _ = drawn_search(
            score, np.zeros(3), np.ones(3), np.random.default_rng(64), 128, 5
        )
        np.testing.assert_array_equal(a, b)
        # the search is a function of its draw alone
        cand_u, probe_u = search_draw(np.random.default_rng(64), 128, 5, 3)
        c, _ = maximize_acquisition(score, np.zeros(3), np.ones(3), cand_u.copy(),
                                    probe_u.copy())
        np.testing.assert_array_equal(a, c)

    def test_nan_score_raises_with_point(self):
        def score(xs):
            return np.full(np.atleast_2d(xs).shape[0], np.nan)

        with pytest.raises(AcquisitionNumericsError) as err:
            drawn_search(
                score, np.zeros(2), np.ones(2), np.random.default_rng(65), 4, 0
            )
        assert err.value.point.shape == (2,)


class TestSearchInputs:
    """A search rejects, naming the value, what it cannot search; the draw
    rejects negative counts."""

    @staticmethod
    def score(xs):
        return -np.sum(np.atleast_2d(xs) ** 2, axis=1)

    def test_search_draw_is_one_call_split_in_two(self):
        for d in (1, 2, 5):
            rng, ref = np.random.default_rng(70 + d), np.random.default_rng(70 + d)
            n_probes = max(8, 2 * d)
            cand_u, probe_u = search_draw(rng, 7, 3, d)
            u = ref.uniform(size=(7 + 3 * n_probes, d))
            assert cand_u.shape == (7, d) and probe_u.shape == (3, n_probes, d)
            assert cand_u.tobytes() + probe_u.tobytes() == u.tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("counts", [(-1, 0, 2), (4, -1, 2), (4, 1, -1)])
    def test_search_draw_rejects_negative_counts(self, counts):
        rng = np.random.default_rng(71)
        with pytest.raises(ValueError, match="counts >= 0.*=-1"):
            search_draw(rng, *counts)

    def test_no_candidate_and_no_extra_point_raises(self):
        # formerly a failure inside numpy: "attempt to get argmax of an empty
        # sequence"
        cand_u, probe_u = search_draw(np.random.default_rng(72), 0, 3, 2)
        for extra in (None, np.zeros((0, 0))):
            with pytest.raises(ValueError, match="no candidate"):
                maximize_acquisition(self.score, np.zeros(2), np.ones(2), cand_u,
                                     probe_u, extra_points=extra)
        # a sampled point alone is a candidate
        x, _ = maximize_acquisition(self.score, np.zeros(2), np.ones(2), cand_u,
                                    probe_u, extra_points=np.full((1, 2), 0.5))
        assert x.shape == (2,)

    @pytest.mark.parametrize("which", ["cand_u", "probe_u"])
    def test_draw_of_another_dimension_raises(self, which):
        draws = {d: search_draw(np.random.default_rng(73), 4, 2, d) for d in (2, 3)}
        cand_u, probe_u = draws[2]
        if which == "cand_u":
            cand_u = draws[3][0]
        else:
            probe_u = draws[3][1]
        with pytest.raises(ValueError, match=f"{which} has shape .*d = 2"):
            maximize_acquisition(self.score, np.zeros(2), np.ones(2), cand_u, probe_u)

    @pytest.mark.parametrize("which", ["cand_u", "probe_u"])
    @pytest.mark.parametrize("bad", [np.nan, -0.25, 1.5])
    def test_draw_outside_the_unit_interval_raises(self, which, bad):
        # a NaN formerly raised AcquisitionNumericsError "score is NaN", and
        # other values outside [0, 1] put candidates outside the box
        draw = dict(zip(("cand_u", "probe_u"), search_draw(np.random.default_rng(75), 4, 2, 2)))
        draw[which][-1, ..., 1] = bad
        with pytest.raises(ValueError, match=f"{which} must hold uniforms in \\[0, 1\\]"):
            maximize_acquisition(self.score, np.zeros(2), np.ones(2), **draw)

    def test_rounds_without_a_probe_raise(self):
        # formerly a failure inside numpy: "attempt to get argmax of an empty
        # sequence"; no round at all is the candidate pass alone
        cand_u = np.random.default_rng(76).uniform(size=(4, 2))
        with pytest.raises(ValueError, match=r"probe_u has shape \(3, 0, 2\)"):
            maximize_acquisition(self.score, np.zeros(2), np.ones(2), cand_u, np.empty((3, 0, 2)))
        x, _ = maximize_acquisition(self.score, np.zeros(2), np.ones(2), cand_u,
                                    np.empty((0, 0, 2)))
        assert x.tobytes() == cand_u[np.argmax(self.score(cand_u))].tobytes()

    @pytest.mark.parametrize("lower, upper", [([1.0, 1.0], [0.0, 0.0]),
                                              ([0.0, 0.5], [1.0, 0.5]),
                                              ([0.0, np.nan], [1.0, 1.0])])
    def test_box_without_lower_below_upper_raises(self, lower, upper):
        # the reversed box formerly returned [0, 0] without an error
        cand_u, probe_u = search_draw(np.random.default_rng(74), 4, 2, 2)
        with pytest.raises(ValueError, match="lower < upper"):
            maximize_acquisition(self.score, np.array(lower), np.array(upper),
                                 cand_u, probe_u)


def _interleaved_maximizer(score_fn, lower, upper, rng, n_candidates,
                           n_refinements, extra_points=None):
    """The maximizer as it was before it drew its uniforms in one call: one
    rng call for the candidates, then one per refinement round.  Kept
    verbatim as the reference for the one-draw version."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    d = lower.shape[0]
    cands = lower + rng.uniform(size=(n_candidates, d)) * (upper - lower)
    if extra_points is not None and len(extra_points):
        cands = np.vstack([cands, np.atleast_2d(np.asarray(extra_points, dtype=float))])
    scores = np.asarray(score_fn(cands), dtype=float)
    if np.any(np.isnan(scores)):
        raise AcquisitionNumericsError(cands[int(np.argmax(np.isnan(scores)))])
    best = int(np.argmax(scores))
    best_x, best_score = cands[best].copy(), float(scores[best])
    radius = 0.25 * (upper - lower)
    n_probes = max(8, 2 * d)
    for _ in range(n_refinements):
        probes = best_x + rng.uniform(-1.0, 1.0, size=(n_probes, d)) * radius
        np.clip(probes, lower, upper, out=probes)
        pv = np.asarray(score_fn(probes), dtype=float)
        if np.any(np.isnan(pv)):
            raise AcquisitionNumericsError(probes[int(np.argmax(np.isnan(pv)))])
        i = int(np.argmax(pv))
        if pv[i] > best_score:
            best_score, best_x = float(pv[i]), probes[i].copy()
        radius *= 0.5
    return best_x, best_score


def _replayed_windows(calls, lower, upper, probe_u, n):
    """(row counts, used predicted rounds) of one search's score calls, replayed
    from the rows and scores those calls saw (calls: one (rows, scores) pair
    per call, the candidate batch first), the search's box, its probe draw
    and its n sampled points.

    Each round's centre is read from its rows, as the point whose probes,
    clamped to the box, they are: the best point so far for a window's first
    round, else its predecessor's centre or one of its predecessor's rows (a
    predicted round).  A round is used while its centre is the best point at
    its start; the first that is not ends its window, and it and the rounds
    after it are dropped.  Windows hold max(1, 100 // (max(1, n) n_probes))
    rounds first and after one with a dropped round, and twice the last
    window's after one used in full, at most the rounds left.  Where that
    floor is several rounds no round is predicted, and a window whose last
    round improves is followed by the floor too."""
    n_refinements, n_probes, _ = probe_u.shape
    floor = max(1, 100 // (max(1, n) * n_probes))
    stay = floor > 1
    cand_rows, cand_scores = calls[0]
    top = int(np.argmax(cand_scores))
    best_x, best = cand_rows[top], cand_scores[top]
    want, predicted = [len(cand_scores)], []
    radius = 0.25 * (upper - lower)  # halved after each round, as the reference does
    r, window, later = 0, floor, iter(calls[1:])
    while r < n_refinements:
        rounds = min(window, n_refinements - r)
        want.append(rounds * n_probes)
        call = next(later, None)
        if call is None or len(call[1]) != want[-1]:
            break  # the caller's comparison shows the mismatch
        rows = call[0].reshape(rounds, n_probes, -1)
        scores = np.asarray(call[1]).reshape(rounds, n_probes)
        centres, reset, improved = [best_x], False, False
        for k in range(rounds):
            built = [c for c in centres
                     if np.clip(c + (2.0 * probe_u[r] - 1.0) * radius, lower, upper)
                     .tobytes() == rows[k].tobytes()]
            assert built, f"round {r} is centred on no allowed point"
            if all(c.tobytes() != best_x.tobytes() for c in built):
                reset = True  # centred elsewhere than the best point: dropped
                break
            if all(c is not centres[0] for c in built):
                assert not stay, f"round {r} is predicted where the floor is several rounds"
                predicted.append(r)
            r += 1
            radius = 0.5 * radius
            centres = [best_x, *rows[k]]
            top = int(np.argmax(scores[k]))
            improved = scores[k][top] > best
            if improved:
                best_x, best = rows[k][top], scores[k][top]
        reset |= stay and improved
        window = floor if reset else 2 * window
    return want, predicted


class TestOneDraw:
    """The search on one search_draw against the interleaved reference: the
    same point to the byte, the same score and the same rng state after."""

    @staticmethod
    def box(rng, d):
        a, b = rng.uniform(size=(2, d))
        return np.minimum(a, b), np.maximum(a, b) + 1e-3

    @pytest.mark.parametrize("with_extra", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 7])
    def test_matches_interleaved_draws(self, d, with_extra):
        # cells of 1 to 12 sampled points: up to 11 (at 8 probes), 9 (at
        # 10), 7 (at 14) or 4 (at 12) the first window and each after an
        # improvement hold several rounds
        setup = np.random.default_rng(1000 + d)
        center = setup.uniform(size=d)
        n_probes = max(8, 2 * d)

        def peaked(xs):
            return -np.sum((np.atleast_2d(xs) - center) ** 2, axis=1)

        def constant(xs):
            return np.full(np.atleast_2d(xs).shape[0], 0.25)

        for n_extra in (1, 2, 3, 5, 8, 12) if with_extra else (0,):
            for n_candidates in (1, 7, 128):
                for n_refinements in (0, 1, 30):
                    lower, upper = self.box(setup, d)
                    extra = (lower + setup.uniform(size=(n_extra, d)) * (upper - lower)
                             if with_extra else None)
                    seed = int(setup.integers(2**32))
                    for score in (peaked, constant):
                        calls = []

                        def recorded(xs):
                            calls.append((np.array(xs), score(xs)))
                            return calls[-1][1]

                        ref_rng = np.random.default_rng(seed)
                        rng = np.random.default_rng(seed)
                        want = _interleaved_maximizer(score, lower, upper, ref_rng,
                                                      n_candidates, n_refinements, extra)
                        got = drawn_search(recorded, lower, upper, rng, n_candidates,
                                           n_refinements, extra_points=extra)
                        assert got[0].tobytes() == want[0].tobytes()
                        assert got[1] == want[1]
                        assert rng.bit_generator.state == ref_rng.bit_generator.state
                        _, probe_u = search_draw(np.random.default_rng(seed), n_candidates,
                                                 n_refinements, d)
                        want_rows, _ = _replayed_windows(calls, lower, upper, probe_u, n_extra)
                        assert [len(pv) for _, pv in calls] == want_rows

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_flat_search_scores_only_the_first_candidate(self, d):
        # the one-row search that a cell without data stands for (see
        # TestFlatSearches): the whole draw is made, and the search is given
        # its first candidate row and no probe row
        setup = np.random.default_rng(2000 + d)
        for n_candidates in (1, 7, 128):
            for n_refinements in (0, 1, 30):
                lower, upper = self.box(setup, d)
                seed = int(setup.integers(2**32))
                calls = []

                def constant(xs):
                    calls.append(np.atleast_2d(xs).shape[0])
                    return np.full(calls[-1], 0.25)

                ref_rng = np.random.default_rng(seed)
                want = _interleaved_maximizer(constant, lower, upper, ref_rng,
                                              n_candidates, n_refinements)
                calls.clear()
                rng = np.random.default_rng(seed)
                cand_u, probe_u = search_draw(rng, n_candidates, n_refinements, d)
                got = maximize_acquisition(constant, lower, upper, cand_u[:1],
                                           probe_u[:0])
                assert calls == [1]
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1] == want[1]
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_flat_search_raises_on_nan_at_the_first_candidate(self):
        def nan_score(xs):
            return np.full(np.atleast_2d(xs).shape[0], np.nan)

        first = np.random.default_rng(66).uniform(size=(5, 2))[0]
        cand_u, probe_u = search_draw(np.random.default_rng(66), 5, 3, 2)
        with pytest.raises(AcquisitionNumericsError) as err:
            maximize_acquisition(nan_score, np.zeros(2), np.ones(2), cand_u[:1],
                                 probe_u[:0])
        np.testing.assert_array_equal(err.value.point, first)


def one_row_search(cell, score_fn, draw):
    """The search a cell without data stands for: maximize_acquisition on
    its draw's first candidate row and no probe row, and a point on a shared
    upper face moved in by one ulp and scored again."""
    cand_u, probe_u = draw
    x, s = maximize_acquisition(score_fn, cell.lower, cell.upper, cand_u[:1], probe_u[:0],
                                extra_points=cell.model.points)
    clamp = (cell.upper < 1.0) & (x >= cell.upper)
    if clamp.any():
        x = np.where(clamp, np.nextafter(cell.upper, cell.lower), x)
        s = float(np.asarray(score_fn(x[None, :]))[0])
    return x, s


class TestFlatSearches:
    """A cell without data is searched in closed form: its draw is
    search_draw's first candidate row, the rest skipped, and its (x, score)
    is the one-row search's, with one score call a step for all such cells."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_first_row_is_the_draws_and_skips_the_rest(self, d):
        setup = np.random.default_rng(3000 + d)
        for n_candidates in (1, 128, 4096):
            for n_refinements in (0, 5, 30):
                seed = int(setup.integers(2**32))
                ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
                cand_u, _ = search_draw(ref_rng, n_candidates, n_refinements, d)
                row = optimizers._first_row(rng, n_candidates, n_refinements, d)
                assert row.tobytes() == cand_u[0].tobytes()
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("alg, omega_mode", [
        (ALG_IMPROVED_GP_EI, OMEGA_FIXED), (ALG_IMPROVED_GP_EI, OMEGA_THEORY_EI),
        (ALG_IMPROVED_GP_EI, OMEGA_POLYLOG_T), (ALG_PI_UCB, OMEGA_POLYLOG_T)])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_the_one_row_search(self, alg, omega_mode, d, monkeypatch):
        # an initial cover, one cell of it with data: every cell without
        # data holds the one-row search's point and score, the score made
        # by one posterior call, and the generator is left where full draws
        # for every cell leave it
        cfg = small_config(alg, T=100, omega_mode=omega_mode, omega_c=0.7)
        omega_t = optimizers._omega(cfg, 1.3)
        cover = initial_cover(d, cfg.horizon_T, KERNEL, cfg.lam)
        data = cover.cells[1]
        data.model.update((data.lower + data.upper) / 2, 0.5)
        empty_reads, real = [], GpModel.posterior_many
        monkeypatch.setattr(GpModel, "posterior_many",
                            lambda self, xs: (empty_reads.append(1) if not self.n else None)
                            or real(self, xs))
        seed = 500 + d
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        optimizers._select(cfg, cover, omega_t, rng)
        assert len(empty_reads) == 1
        monkeypatch.setattr(GpModel, "posterior_many", real)
        budget = max(128, cfg.acq_candidates // cover.cell_count)
        flat = set()
        for cell in cover.cells:
            draw = search_draw(ref_rng, budget, cfg.acq_refinements, d)
            if cell.model.n:
                continue
            score_fn = optimizers._cell_score(cfg, cell.model, omega_t, 0.0)
            x, score = one_row_search(cell, score_fn, draw)
            assert cell.search.x.tobytes() == x.tobytes()
            assert cell.search.score == score
            assert cell.search.draw is None
            flat.add(score)
        assert len(flat) == 1 and len(cover.cells) > 2
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_a_point_on_a_shared_upper_face_moves_in(self):
        # the first candidate 0.5 + (1 - 2^-53) 0.25 rounds to the upper face
        # 0.75, which the neighbour owns: the point moves in by one ulp, and
        # every cell without data takes the one flat score
        cells = [partition.Cell(np.array([a, 0.0]), np.array([a + 0.25, 1.0]),
                                GpModel(KERNEL, 0.01)) for a in (0.5, 0.75)]
        cover = partition.Cover(cells, math.nan, math.nan)
        row = np.array([1.0 - 2.0**-53, 0.5])
        cells[0].search = optimizers._Search((0, 1.0), row.copy())
        cfg = small_config(ALG_IMPROVED_GP_EI)
        rng = np.random.default_rng(7)
        win, x = optimizers._select(cfg, cover, 1.0, rng)
        score_fn = optimizers._cell_score(cfg, cells[0].model, 1.0, 0.0)
        want = one_row_search(cells[0], score_fn, (row[None, :], np.empty((0, 8, 2))))
        assert want[0][0] == np.nextafter(0.75, 0.0)
        assert x.tobytes() == want[0].tobytes() and win is cells[0]
        assert cells[0].search.score == cells[1].search.score == want[1]

    @pytest.mark.parametrize("alg", [ALG_IMPROVED_GP_EI, ALG_PI_UCB])
    def test_nan_flat_score_raises_at_its_point(self, alg, monkeypatch):
        # the one-row search raises at the first candidate of the first
        # cell without data, and so does the closed form
        monkeypatch.setattr(optimizers, "ei_scores",
                            lambda means, inc, stds: np.full(len(means), np.nan))
        monkeypatch.setattr(optimizers, "ucb_score",
                            lambda means, stds, beta: np.full(len(means), np.nan))
        cfg = small_config(alg, T=20, omega_mode=OMEGA_POLYLOG_T)
        cover = initial_cover(2, cfg.horizon_T, KERNEL, cfg.lam)
        first = cover.cells[0]
        score_fn = optimizers._cell_score(cfg, first.model, 1.0, 0.0)
        with pytest.raises(AcquisitionNumericsError) as want:
            one_row_search(first, score_fn, search_draw(
                np.random.default_rng(8), 128, cfg.acq_refinements, 2))
        with pytest.raises(AcquisitionNumericsError) as got:
            optimizers._select(cfg, cover, 1.0, np.random.default_rng(8))
        assert got.value.point.tobytes() == want.value.point.tobytes()


class TestLookAheadWindows:
    """Rounds scored in look-ahead windows against the one-round-at-a-time
    reference (_interleaved_maximizer): the same point to the byte, the same
    score, the same rng state after, and a NaN raises only in a round the
    reference scores, at the point it reports."""

    @staticmethod
    def scores(d, setup):
        center = setup.uniform(size=d)

        def peaked(xs):  # smooth: nearly every round improves
            return -np.sum((xs - center) ** 2, axis=1)

        def rough(xs):  # wavy: improves often once the radius is small
            return np.sin(4000.0 * xs @ np.arange(1.0, d + 1.0))

        def chaotic(xs):  # uncorrelated at every probe scale: improves rarely
            return np.sin(1e9 * xs @ np.arange(1.0, d + 1.0))

        def terraced(xs):  # ties with the best, where only > improves
            return np.floor(4.0 * peaked(xs))

        def constant(xs):  # never improves
            return np.full(xs.shape[0], 0.25)

        return peaked, rough, chaotic, terraced, constant

    @staticmethod
    def outcome(search, score, lower, upper, seed, n_candidates, n_refinements,
                extra=None):
        """The result and the rng state after one search, or the point of
        the NaN it raised at (the one-draw search has drawn every round's
        uniforms by then, the reference only those up to that round)."""
        rng = np.random.default_rng(seed)
        try:
            x, s = search(score, lower, upper, rng, n_candidates, n_refinements,
                          extra_points=extra)
        except AcquisitionNumericsError as err:
            return "nan", err.point.tobytes()
        return "ok", x.tobytes(), s, rng.bit_generator.state

    @staticmethod
    def recording(score, calls):
        def recorded(xs):
            calls.append(np.array(xs))
            return score(xs)
        return recorded

    @staticmethod
    def nan_at(score, points):
        """score, but NaN at the rows whose bytes are in `points`."""
        def with_nans(xs):
            out = np.array(score(xs), dtype=float)
            out[[x.tobytes() in points for x in xs]] = np.nan
            return out
        return with_nans

    def cases(self, d):
        setup = np.random.default_rng(3000 + d)
        scores = self.scores(d, setup)
        for n_candidates in (1, 7, 128):
            for n_refinements in (0, 1, 2, 30):
                lower, upper = TestOneDraw.box(setup, d)
                extra = lower + setup.uniform(size=(2, d)) * (upper - lower)
                seed = int(setup.integers(2**32))
                for score in scores:
                    yield score, (lower, upper, seed, n_candidates, n_refinements,
                                  extra)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 7])
    def test_matches_one_round_at_a_time(self, d):
        n_probes = max(8, 2 * d)
        windows = 0
        for score, args in self.cases(d):
            calls = []
            want = self.outcome(_interleaved_maximizer, score, *args)
            got = self.outcome(drawn_search, self.recording(score, calls),
                               *args)
            assert got == want
            windows += any(len(c) > n_probes for c in calls[1:])
        assert windows >= 10  # searches that scored several rounds at once

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 7])
    def test_nan_in_a_dropped_round_does_not_raise(self, d):
        # NaN at every point the windowed search scores but the reference
        # never does: the probes of rounds after an improving one in the
        # same window
        dropped_cases = 0
        for score, args in self.cases(d):
            ref_calls, calls = [], []
            want = self.outcome(_interleaved_maximizer,
                                self.recording(score, ref_calls), *args)
            self.outcome(drawn_search, self.recording(score, calls), *args)
            seen = {x.tobytes() for c in ref_calls for x in c}
            dropped = {x.tobytes() for c in calls for x in c} - seen
            if not dropped:
                continue
            dropped_cases += 1
            got = self.outcome(drawn_search, self.nan_at(score, dropped),
                               *args)
            assert got == want
        assert dropped_cases >= 4

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 7])
    def test_nan_in_a_consumed_round_raises_at_the_same_point(self, d):
        raised = 0
        for score, args in self.cases(d):
            ref_calls = []
            self.outcome(_interleaved_maximizer, self.recording(score, ref_calls),
                         *args)
            rounds = ref_calls[1:]  # the candidate batch comes first
            for k in sorted({0, len(rounds) // 2, len(rounds) - 1} if rounds else ()):
                nan_score = self.nan_at(score, {x.tobytes() for x in rounds[k]})
                want = self.outcome(_interleaved_maximizer, nan_score, *args)
                got = self.outcome(drawn_search, nan_score, *args)
                assert want[0] == "nan"
                assert got == want
                raised += 1
        assert raised >= 10

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 7])
    def test_single_nan_after_a_larger_score_raises_at_it(self, d):
        # one NaN row, in the candidate batch or in a round the reference
        # scores, after a row of larger finite score: the first NaN, not the
        # finite argmax, decides where the search raises
        raised = [0, 0]
        for score, args in self.cases(d):
            ref_calls = []
            self.outcome(_interleaved_maximizer, self.recording(score, ref_calls),
                         *args)
            for k, batch in enumerate(ref_calls[:1] + ref_calls[1:][-1:]):
                values = np.asarray(score(batch), dtype=float)
                top = int(np.argmax(values))
                later = np.flatnonzero(values[top + 1:] < values[top])
                if not len(later):
                    continue
                row = batch[top + 1 + later[-1]]
                nan_score = self.nan_at(score, {row.tobytes()})
                want = self.outcome(_interleaved_maximizer, nan_score, *args)
                assert want == ("nan", row.tobytes())
                assert self.outcome(drawn_search, nan_score, *args) == want
                raised[k] += 1
        assert min(raised) >= 5


class TestPredictedWindows:
    """Cells of 8 sampled points, where the floor is one round (of 8 or 12
    probes), so that a window's later rounds are centred on the rows their
    predecessors are predicted to pick.  Against the one-round-at-a-time
    reference (_interleaved_maximizer): the same point to the byte, the same
    score and the same rng state after, a NaN in a dropped round never
    raises, and one in a used round raises at the reference's point."""

    N_EXTRA = 8

    @staticmethod
    def scores(d, lower, upper, setup):
        a, c = setup.normal(size=(2, d))
        width = upper - lower
        mid = lower + setup.uniform(0.3, 0.7, size=d) * width
        out = np.zeros(d)
        out[0] = 4.0 / width[0]

        def ramp(xs):  # rises from the sampled points: rounds improve as predicted
            return xs @ np.abs(a)

        def peak(xs):
            return -np.sum(((xs - mid) / width) ** 2, axis=1)

        def face(xs):  # out through the upper face of axis 0: winners clamped
            return xs @ out + peak(xs)

        def bursts(xs):  # terraces, finer ones between: improves in runs
            return np.floor(peak(xs) * 2.0**10) + 2.0**-12 * np.floor(xs / width @ c * 2.0**24)

        def spikes(xs):  # +inf at a few points, -inf at more
            h = np.sin(1e7 * xs @ c)
            return np.where(h > 0.99995, np.inf, np.where(h < -0.9, -np.inf, peak(xs)))

        return ramp, face, bursts, spikes

    def cases(self, d):
        # the sampled points lie low on the ramp, so that a search from one
        # candidate often starts far below the box's top
        setup = np.random.default_rng(4000 + d)
        for n_candidates in (1, 7, 128):
            for n_refinements in (2, 30, 30):
                lower, upper = TestOneDraw.box(setup, d)
                extra = lower + setup.uniform(0.0, 0.1, size=(self.N_EXTRA, d)) * (upper - lower)
                seed = int(setup.integers(2**32))
                for score in self.scores(d, lower, upper, setup):
                    yield score, (lower, upper, seed, n_candidates, n_refinements, extra)

    def windowed(self, score, args):
        """The windowed search's outcome and its (rows, scores) calls, and the
        used predicted rounds its replay reads from them."""
        calls = []

        def recorded(xs):
            calls.append((np.array(xs), score(xs)))
            return calls[-1][1]

        got = TestLookAheadWindows.outcome(drawn_search, recorded, *args)
        lower, upper, seed, n_candidates, n_refinements, _ = args
        _, probe_u = search_draw(np.random.default_rng(seed), n_candidates, n_refinements,
                                 len(lower))
        rows, predicted = _replayed_windows(calls, lower, upper, probe_u, self.N_EXTRA)
        assert [len(pv) for _, pv in calls] == rows
        return got, calls, predicted

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 7])
    def test_matches_one_round_at_a_time(self, d):
        predicted, infinite = {}, 0
        for score, args in self.cases(d):
            got, calls, rounds = self.windowed(score, args)
            assert got == TestLookAheadWindows.outcome(_interleaved_maximizer, score, *args)
            predicted[score.__name__] = predicted.get(score.__name__, 0) + len(rounds)
            infinite += sum(bool(np.isposinf(pv).any()) for _, pv in calls[1:])
        assert infinite >= 3  # rounds that scored +inf
        # every surface has used rounds centred on a predicted pick
        assert min(predicted.values()) >= 3, predicted

    @pytest.mark.parametrize("d", [1, 2, 3, 6])
    def test_scores_near_the_float_limit(self, d):
        # the fit's centred scores overflow: its picks are useless, but it
        # neither warns (a RuntimeWarning fails the suite) nor raises
        for score, args in self.cases(d):
            def huge(xs, score=score):
                return 1.7e308 * np.tanh(score(xs))

            got, _, _ = self.windowed(huge, args)
            assert got == TestLookAheadWindows.outcome(_interleaved_maximizer, huge, *args)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 7])
    def test_nan_in_a_dropped_round_does_not_raise(self, d):
        # NaN at every point the windowed search scores but the reference
        # never does: the rounds of a window after its first miss
        dropped_cases = 0
        for score, args in self.cases(d):
            ref_calls = []
            want = TestLookAheadWindows.outcome(
                _interleaved_maximizer, TestLookAheadWindows.recording(score, ref_calls), *args)
            _, calls, _ = self.windowed(score, args)
            seen = {x.tobytes() for c in ref_calls for x in c}
            dropped = {x.tobytes() for c, _ in calls for x in c} - seen
            if dropped:
                dropped_cases += 1
                nan_score = TestLookAheadWindows.nan_at(score, dropped)
                assert TestLookAheadWindows.outcome(drawn_search, nan_score, *args) == want
        assert dropped_cases >= 8

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 7])
    def test_nan_in_a_used_predicted_round_raises_at_the_same_point(self, d):
        # NaN at every probe of a round the windowed search centred on a
        # predicted pick: the reference scores that round too, and raises
        raised = 0
        for score, args in self.cases(d):
            ref_calls = []
            TestLookAheadWindows.outcome(
                _interleaved_maximizer, TestLookAheadWindows.recording(score, ref_calls), *args)
            _, _, predicted = self.windowed(score, args)
            for r in predicted[::7]:
                nan_score = TestLookAheadWindows.nan_at(
                    score, {x.tobytes() for x in ref_calls[1 + r]})
                want = TestLookAheadWindows.outcome(_interleaved_maximizer, nan_score, *args)
                assert want[0] == "nan"
                assert TestLookAheadWindows.outcome(drawn_search, nan_score, *args) == want
                raised += 1
        assert raised >= 10


class TestWindowCallBudget:
    def test_gp_ei_h3_seed0_window_calls(self, tmp_path, monkeypatch):
        # the benchmark's gp_ei_h3 run, built as tests/test_bench_hashes.py
        # builds it: 2,656 window score calls with every round centred on the
        # best point, 1,420 with predicted picks; the margin allows another
        # BLAS to round a fit differently
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import WORKLOADS, bench_config, make_target

        workload = WORKLOADS["gp_ei_h3"]
        cfg = bench_config(workload, make_target(workload, 0, tmp_path), 0, tmp_path / "run")
        calls, search = [], optimizers.maximize_acquisition

        def counting_search(score_fn, *args, **kwargs):
            def scored(xs):
                calls.append(1)
                return score_fn(xs)

            def argmax(xs):  # the candidate pass; where it gives up, a score call
                found = score_fn.argmax(xs)
                calls.append(-1 if found is None else 0)
                return found

            scored.argmax = argmax
            return search(scored, *args, **kwargs)

        monkeypatch.setattr(optimizers, "maximize_acquisition", counting_search)
        bench.run_benchmark(cfg)
        assert 0 < sum(calls) <= 1800


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
        cfg = small_config(T=10, omega_mode=OMEGA_THEORY_EI)
        trace = run(cfg, oracle, opt)
        omegas = [r.omega for r in trace.rows]
        assert all(a <= b + 1e-12 for a, b in zip(omegas, omegas[1:]))

    def test_sigma_sum_bound_theory_lambda(self):
        # with lam = 1 + 2/T the stddev sum obeys sqrt(4(T+2) * gain)
        T = 20
        oracle, opt = rkhs_oracle(seed=203)
        cfg = RunConfig(
            algorithm=ALG_GP_EI, horizon_T=T, omega_mode=OMEGA_FIXED, kernel=KERNEL,
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

    @pytest.mark.parametrize("kernel, omega_mode, candidates, digest", [
        (KERNEL, OMEGA_FIXED, 4096,
         "25805e0ee9a470b93deadd20cab9a27042ce6f0bf22df3e60e7f7105ee491762"),
        (KERNEL, OMEGA_THEORY_EI, 4096,
         "9bee15e5e5dccb35ed4c649af56d5fdfafded46e87bf3f4c65d32cc9f2cc987f"),
        (KernelSpec("se", 0.2), OMEGA_FIXED, 4096,
         "0f61d2fe98a8eb9f36e5657f60e60d63747b4479ebfafac93f04901878772a31"),
        (KERNEL, OMEGA_FIXED, 64,
         "dc3f9e748a143b7135f3c16b2e8ce88e9b8793bb6ddb47c727670f6341295181"),
        (KernelSpec(MATERN, 0.2, 0.5), OMEGA_FIXED, 4096,
         "331c873790f7254f09e1489b34d5876fd7807a06ca3b04ee8fd147ebae6c957d"),
        (KernelSpec(MATERN, 0.2, 1.5), OMEGA_FIXED, 4096,
         "c175f9a294f3305c63edcc247099dc2226a8d4859b736545ca8ea7029cdc9686"),
        (KernelSpec(MATERN, 0.2, 1.2), OMEGA_FIXED, 4096,
         "284aa1bea719dd67dae9a0940bd4955ade68e344ff498e23c7f8414753499a00"),
        (KernelSpec(MATERN, 0.05, 2.5), OMEGA_FIXED, 4096,
         "0af00188d44e012a9c9977f93474ef88c2643b359f31de3bc02f253ddc036325"),
    ], ids=["matern_fixed", "theory_ei", "se", "candidates64", "matern05", "matern15",
            "bessel12", "matern25_short"])
    def test_trace_unchanged(self, kernel, omega_mode, candidates, digest):
        # GP-EI as the one-cell cover, its stripped trace pinned; the last
        # four cover the kernels the float32 screen bounds (nu = 5/2 at
        # l = 0.05 has its widest margins) and the Bessel route at nu = 1.2,
        # which takes the full pass
        target, d, opt, _ = standard_function("hartmann3")
        cfg = RunConfig(
            algorithm=ALG_GP_EI, horizon_T=30, omega_mode=omega_mode, kernel=kernel,
            lam=0.01, seed=3, acq_candidates=candidates,
        )
        oracle = NoisyOracle(target, d, 0.1, np.random.default_rng(77))
        trace = run(cfg, oracle, opt)
        assert trace.total_cells_created == 1 and math.isnan(trace.cover_q)
        text = strip_wallclock("\n".join(trace_csv_lines(trace, "x", opt)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def full_argmax(score, xs):
    """First-index argmax of the full candidate pass: (index, score)."""
    scores = score(xs)
    i = int(np.argmax(scores))
    return i, float(scores[i])


def assert_same_pick(got, want, xs):
    assert got is not None
    assert got[0] == want[0]
    assert xs[got[0]].tobytes() == xs[want[0]].tobytes()
    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()


def pass_model(kind, rng):
    """(model, EI incumbent) for the pruned-pass checks: random data, or a
    duplicated point at lam = 1e-16 that forces a jitter refit."""
    if kind == "jitter":
        p = rng.uniform(size=2)
        model = GpModel(KERNEL, 1e-16)
        for x in np.vstack([p, p, rng.uniform(size=(25, 2))]):
            model.update(x, rng.normal())
        assert model._jitter > 0
    else:
        kernel, d, n = {
            "matern25_d3": (KERNEL, 3, 100),
            "matern15_d6": (KernelSpec(MATERN, 0.5, 1.5), 6, 60),
            "se_d1": (KernelSpec("se", 0.1), 1, 20),
        }[kind]
        X = rng.uniform(size=(n, d))
        model = GpModel.fit(kernel, 0.01, X, np.sin(5 * X).sum(axis=1)
                            + 0.1 * rng.normal(size=n))
    return model, float(np.max(model.posterior_many(model.points)[0]))


POLYLOG_OMEGA = optimizers._omega(
    RunConfig(algorithm=ALG_GP_EI, horizon_T=100, omega_mode=OMEGA_POLYLOG_T,
              kernel=KERNEL), 0.0)


def assert_one_point_pick(rng, y, config, incumbent, monkeypatch):
    """The pruned pass over 4096 + 1 candidates, for a GP of one observation
    y at a uniform point, whose stddev bound is exact up to _VAR_MARGIN,
    gives the full pass's pick, and skips a solve exactly when the best
    score reaches _SCORE_FLOOR."""
    model = GpModel.fit(KERNEL, 0.01, rng.uniform(size=(1, 2)), [y])
    xs = np.vstack([rng.uniform(size=(4096, 2)), model.points])
    _, std = model.posterior_many(xs)
    sbar = model._stddev_bound(cross_matrix(KERNEL, model.points, xs).max(axis=0))
    assert np.all(sbar * sbar - std * std <= 1.5 * gp._VAR_MARGIN)
    score = optimizers._cell_score(config, model, 1.0, incumbent)
    solved, real = [], GpModel._block_posterior
    monkeypatch.setattr(GpModel, "_block_posterior",
                        lambda self, kc: solved.append(kc.shape[1]) or real(self, kc))
    got = score.argmax(xs)
    monkeypatch.undo()
    want = full_argmax(score, xs)
    assert_same_pick(got, want, xs)
    assert (sum(solved) < len(xs)) == (want[1] >= gp._SCORE_FLOOR)


class TestPrunedCandidatePass:
    """The candidate pass that solves stddevs only for candidates whose
    bound can reach the best exact score returns the full pass's pick to
    the byte, for EI and for UCB."""

    @pytest.mark.parametrize("kind", ["matern25_d3", "matern15_d6", "se_d1", "jitter"])
    @pytest.mark.parametrize("omega", [1.0, 3.0, 4.5, 6.0, 15.0, POLYLOG_OMEGA],
                             ids=["fixed", "theory3", "theory4.5", "theory6", "theory15",
                                  "polylog"])
    def test_matches_the_full_pass(self, kind, omega):
        rng = np.random.default_rng([sum(map(ord, kind)), int(1000 * omega)])
        model, incumbent = pass_model(kind, rng)
        score = optimizers._cell_score(small_config(), model, omega, incumbent)
        d = model.points.shape[1]
        for m in (1024, 1025, 4096 + model.n):
            xs = np.vstack([rng.uniform(size=(m - model.n, d)), model.points])
            assert_same_pick(score.argmax(xs), full_argmax(score, xs), xs)

    @pytest.mark.parametrize("copies", [1, 2, 3, 4, 5, 6, 7, 8, 9, 200])
    def test_forced_survivor_counts(self, copies, monkeypatch):
        # copies of the best point, the first in the first block, among
        # candidates whose screened bound is far below its score: the eight
        # largest bounds are solved, then every copy in one call, a lone one
        # beside a copy of itself, and the first copy wins
        rng = np.random.default_rng(copies)
        model, incumbent = pass_model("matern25_d3", rng)
        pool = rng.uniform(size=(8000, 3))
        high, sbar = model._screen(pool)
        bound = optimizers.ei_scores(high, incumbent, sbar)
        score = optimizers._cell_score(small_config(), model, 1.0, incumbent)
        star, best = full_argmax(score, pool)
        low = pool[bound < 0.5 * best]
        at = np.sort(rng.choice(4096, size=copies, replace=False))
        at[0] = min(at[0], 511)
        xs = np.insert(low[:4096 - copies], at - np.arange(copies), pool[star], axis=0)
        assert len(xs) == 4096 and np.all(xs[at] == pool[star])
        solved, real = [], GpModel._block_posterior
        monkeypatch.setattr(GpModel, "_block_posterior",
                            lambda self, kc: solved.append(kc.shape[1]) or real(self, kc))
        got = score.argmax(xs)
        assert solved == [8, max(copies, 2)]
        monkeypatch.undo()
        want = full_argmax(score, xs)
        assert want[0] == at[0]
        assert_same_pick(got, want, xs)

    def test_small_passes_take_the_full_pass(self):
        # a pass of one block, fewer than 2 * _BLOCK = 1024 points, is left
        # to the full pass; from 1024 points on the pruned pass gives its pick
        rng = np.random.default_rng(5)
        model, incumbent = pass_model("matern25_d3", rng)
        score = optimizers._cell_score(small_config(), model, 1.0, incumbent)

        def ei(means, stds):
            return optimizers.ei_scores(means, incumbent, stds)

        xs = rng.uniform(size=(1024, 3))
        assert model.posterior_argmax(xs[:1023], ei) is None
        assert_same_pick(model.posterior_argmax(xs, ei), full_argmax(score, xs), xs)

    def test_vanished_ei_solves_every_candidate(self, monkeypatch):
        # an incumbent far above every mean makes every EI 0: no score can
        # prune another, the eight largest bounds are solved, then every
        # column in batches of _BLOCK, and the search is the full pass's
        rng = np.random.default_rng(6)
        model, incumbent = pass_model("matern25_d3", rng)
        incumbent += 1e3
        score = optimizers._cell_score(small_config(), model, 1.0, incumbent)
        xs = rng.uniform(size=(4096, 3))
        assert np.all(score(xs) == 0.0)
        solved, real = [], GpModel._block_posterior
        monkeypatch.setattr(GpModel, "_block_posterior",
                            lambda self, kc: solved.append(kc.shape[1]) or real(self, kc))
        got = score.argmax(xs)
        assert solved == [8] + [512] * 8
        monkeypatch.undo()
        assert_same_pick(got, full_argmax(score, xs), xs)
        plain = lambda q: score(q)  # noqa: E731  (no argmax attribute)
        got, want = (drawn_search(fn, np.zeros(3), np.ones(3),
                                  np.random.default_rng(7), 4096, 5,
                                  extra_points=model.points)
                     for fn in (score, plain))
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]

    @pytest.mark.parametrize("omega", [1.0, 4.5])
    def test_search_matches_the_unpruned_search(self, omega):
        rng = np.random.default_rng(8)
        model, incumbent = pass_model("matern25_d3", rng)
        score = optimizers._cell_score(small_config(), model, omega, incumbent)
        plain = lambda q: score(q)  # noqa: E731
        for seed in range(5):
            got, want = (drawn_search(fn, np.zeros(3), np.ones(3),
                                      np.random.default_rng(seed), 4096, 30,
                                      extra_points=model.points)
                         for fn in (score, plain))
            assert got[0].tobytes() == want[0].tobytes()
            assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()

    def test_non_finite_means_raise_where_the_full_pass_does(self, monkeypatch):
        rng = np.random.default_rng(9)
        model, incumbent = pass_model("matern25_d3", rng)
        score = optimizers._cell_score(small_config(), model, 1.0, incumbent)
        for name in ("_alpha", "_beta"):  # the screen's weights and the means'
            weights = getattr(model, name).copy()
            weights[3] = np.nan
            monkeypatch.setattr(model, name, weights)
        xs = rng.uniform(size=(4096, 3))
        assert score.argmax(xs) is None
        for fn in (score, lambda q: score(q)):
            with pytest.raises(ValueError, match="means and incumbent must be finite"):
                drawn_search(fn, np.zeros(3), np.ones(3),
                             np.random.default_rng(0), 4096, 5)

    @pytest.mark.parametrize("z", [0.0, -1.0, -4.0, -10.0, -20.0, -30.0, -35.5, -35.8,
                                   -37.0])
    def test_one_point_models_ei(self, z, monkeypatch):
        # the incumbent -z puts the farthest candidates, mean ~0 and stddev
        # ~1, at z: from the center to EI's deep tail, whose values fall
        # below _SCORE_FLOOR from z ~ -35.7 and are then all solved
        rng = np.random.default_rng([7, int(-10 * z)])
        assert_one_point_pick(rng, 0.5, small_config(), -z, monkeypatch)

    @pytest.mark.parametrize("B, R", [(0.0, 0.0), (0.0, 0.02), (1.0, 1.0)],
                             ids=["beta0", "beta_small", "beta_default"])
    @pytest.mark.parametrize("y", [0.5, 1e-3, -0.5])
    def test_one_point_models_ucb(self, B, R, y, monkeypatch):
        # beta = 0 scores the mean, bound and value alike; with every value
        # below _SCORE_FLOOR (y < 0, beta = 0) every column is solved
        rng = np.random.default_rng([8, int(100 * R), int(1e3 * (y + 1))])
        config = small_config(ALG_PI_UCB, B=B, R=R)
        assert_one_point_pick(rng, y, config, 0.0, monkeypatch)

    def test_pruned_ucb_run_trace_unchanged(self, monkeypatch):
        # pi-GP-UCB on a d = 2 kernel-expansion target at the default 4096
        # candidates: the first cell search scores 4096 + 1 points and takes
        # the pruned pass; the hash was recorded with the full pass
        picks, real = [], GpModel.posterior_argmax
        monkeypatch.setattr(GpModel, "posterior_argmax",
                            lambda *a: picks.append(real(*a)) or picks[-1])
        oracle, opt = rkhs_oracle(seed=100, m=30)
        cfg = RunConfig(algorithm=ALG_PI_UCB, horizon_T=30, omega_mode=OMEGA_POLYLOG_T,
                        kernel=KERNEL, lam=0.01, seed=0)
        trace = run(cfg, oracle, opt)
        assert sum(pick is not None for pick in picks) >= 1
        text = strip_wallclock("\n".join(trace_csv_lines(trace, "x", opt)))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0a5e47233b8cc8ae27f3e1730b6e0713d88dafc959c0e1af83ad30d603b113db")

    @pytest.mark.parametrize("omega_mode, digest", [
        (OMEGA_FIXED, "5c5812761b207ea95e9bc32ff4f482229af783379a6b740f923eb1886d490a11"),
        (OMEGA_THEORY_EI,
         "86619917f80e3787a7577fdc6dd439d469fed07b1d23d31c23800d330ef8d793"),
    ], ids=[OMEGA_FIXED, OMEGA_THEORY_EI])
    def test_pruned_run_trace_unchanged(self, omega_mode, digest, monkeypatch):
        # GP-EI on Hartmann-3 at the default 4096 candidates takes the
        # pruned pass at every step with data, and its trace is pinned
        picks, real = [], GpModel.posterior_argmax
        monkeypatch.setattr(GpModel, "posterior_argmax",
                            lambda *a: picks.append(real(*a)) or picks[-1])
        target, d, opt, _ = standard_function("hartmann3")
        cfg = RunConfig(algorithm=ALG_GP_EI, horizon_T=40, omega_mode=omega_mode,
                        kernel=KERNEL, lam=0.01, seed=0)
        trace = run(cfg, NoisyOracle(target, d, 0.1, np.random.default_rng(5)), opt)
        assert sum(pick is not None for pick in picks) == cfg.horizon_T - 1
        text = strip_wallclock("\n".join(trace_csv_lines(trace, "x", opt)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestCoverLoops:
    def test_horizon_one_single_cell_matches_gp_ei_first_point(self):
        oracle, opt = rkhs_oracle(seed=400)
        cfg_a = small_config(T=1, seed=5)
        trace_a = run(cfg_a, rkhs_oracle(seed=400)[0], opt)
        cfg_b = RunConfig(
            algorithm=ALG_IMPROVED_GP_EI, horizon_T=1,
            omega_mode=OMEGA_FIXED, kernel=KERNEL,
            lam=0.01, seed=5, acq_candidates=256, acq_refinements=5,
        )
        trace_b = run(cfg_b, rkhs_oracle(seed=400)[0], opt)
        np.testing.assert_array_equal(trace_a.rows[0].x, trace_b.rows[0].x)

    def test_initial_cell_count_and_monotone_growth(self):
        oracle, opt = rkhs_oracle(seed=401, d=3)
        cfg = RunConfig(
            algorithm=ALG_IMPROVED_GP_EI, horizon_T=25,
            omega_mode=OMEGA_POLYLOG_T, kernel=KERNEL,
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
            algorithm=ALG_IMPROVED_GP_EI, horizon_T=16,
            omega_mode=OMEGA_POLYLOG_T, kernel=KERNEL,
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
            omega_mode=OMEGA_POLYLOG_T, kernel=KERNEL,
            lam=0.01, seed=4, acq_candidates=256, acq_refinements=3,
        )
        traces = [run(cfg, rkhs_oracle(seed=403)[0],
                      rkhs_oracle(seed=403)[1]) for _ in range(2)]
        for ra, rb in zip(traces[0].rows, traces[1].rows):
            np.testing.assert_array_equal(ra.x, rb.x)
            assert ra.cumulative_regret == rb.cumulative_regret

    def test_partition_algorithms_need_smooth_matern(self):
        with pytest.raises(ValueError, match="Matern"):
            RunConfig(
                algorithm=ALG_IMPROVED_GP_EI, horizon_T=10,
                omega_mode=OMEGA_POLYLOG_T,
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
            omega_mode=OMEGA_POLYLOG_T, kernel=KERNEL,
            lam=0.01, seed=6, acq_candidates=256, acq_refinements=3,
        )

    @pytest.mark.parametrize("alg", [ALG_IMPROVED_GP_EI, ALG_PI_UCB])
    def test_only_the_observed_cell_is_searched_again(self, alg, monkeypatch):
        # only the observed cell and a split's children take a new draw:
        # every initial cell at step 1, exactly one cell after a step that
        # did not split.  A cell without data takes its draw's first row and
        # is searched in closed form, with no maximize_acquisition call, so
        # step 1, with no data yet, makes no such call; a cell with data
        # takes a full draw, and its search runs only on a draw not yet
        # searched, in the step of the draw or, deferred, at a later one, so
        # the searches made up to any step never outnumber the full draws
        draws = []

        def counting(kind, draw):
            def counted(*args):
                draws.append(kind)
                return draw(*args)
            return counted

        monkeypatch.setattr(optimizers, "search_draw",
                            counting("full", optimizers.search_draw))
        monkeypatch.setattr(optimizers, "_first_row", counting("row", optimizers._first_row))
        oracle, opt = rkhs_oracle(seed=404)
        rec = _StepRecorder(oracle, monkeypatch)
        drawn = []

        def observe(x):
            drawn.append(list(draws))
            draws.clear()
            return rec(x)

        observe.dim, observe.target = oracle.dim, oracle.target
        trace = optimizers.run(self.polylog_config(alg), observe, opt)
        counts = [rec.initial_cells] + [r.cell_count for r in trace.rows]
        assert drawn[0] == ["row"] * counts[0] and rec.per_step[0] == 0
        unsplit = 0
        for t in range(2, trace.horizon + 1):
            if counts[t - 1] == counts[t - 2]:  # step t-1 did not split
                assert len(drawn[t - 1]) == 1, t
                unsplit += 1
            else:
                assert len(drawn[t - 1]) >= 1, t
            assert sum(rec.per_step[:t]) <= sum(kinds.count("full") for kinds in drawn[:t]), t
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

    @pytest.mark.parametrize("omega_mode, digest", [
        (OMEGA_THEORY_EI, "7c0c34ec95d0f690dfab8fb1fb9aa154d91b8f65860d37cf4f233199f8c99e45"),
        (OMEGA_POLYLOG_T, "b4fbb7d0c655e6ce20204a6972dcc4469f64e51b312feff8a82410aa151f70fe"),
    ], ids=["theory_ei", "polylog_t"])
    def test_theory_schedule_trace_unchanged(self, omega_mode, digest):
        # omega_t moves with the global gain under theory_ei, so every cell
        # is searched at every step, with the same rng draws as a loop that
        # caches nothing; under polylog_t omega_t is fixed and only the
        # cells whose model changed are searched again.  The stripped traces
        # are pinned by their hashes
        target, d, opt, _ = standard_function("hartmann3")
        cfg = RunConfig(
            algorithm=ALG_IMPROVED_GP_EI, horizon_T=30,
            omega_mode=omega_mode, kernel=KERNEL,
            lam=0.01, seed=3,
        )
        oracle = NoisyOracle(target, d, 0.1, np.random.default_rng(77))
        trace = run(cfg, oracle, opt)
        text = strip_wallclock("\n".join(trace_csv_lines(trace, "x", opt)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("alg, omega_mode", [(ALG_IMPROVED_GP_EI, OMEGA_POLYLOG_T),
                                                 (ALG_PI_UCB, OMEGA_POLYLOG_T),
                                                 (ALG_IMPROVED_GP_EI, OMEGA_THEORY_EI)])
    def test_select_draws_for_the_stale_cells_before_searching(self, alg, omega_mode,
                                                               monkeypatch):
        # a step's select phase makes every stale cell's draw, in cover
        # order, before its first search, and leaves the generator where
        # full draws for those cells leave it; each search runs on its own
        # cell's draw, made at this step or, for a deferred search, at an
        # earlier one, and only on a cell with data whose search was still
        # to make; a stale cell without data takes its draw's first row and,
        # with no search call, that row's point and the step's one flat
        # score; every cell ends the step under this step's key, and a cell
        # neither stale nor searched keeps its search as it was.  The winner
        # is the first cell of largest score among the searched cells, with
        # that search's x, and every cell left deferred has a reach, its box
        # bound times 1 + _BOUND_RTOL, below the winner's score
        select, draw, first_row, search = (optimizers._select, optimizers.search_draw,
                                           optimizers._first_row,
                                           optimizers.maximize_acquisition)
        events, steps = [], []

        def recording_draw(*args):
            events.append(("draw", draw(*args)))
            return events[-1][1]

        def recording_row(*args):
            events.append(("draw", first_row(*args)))
            return events[-1][1]

        def recording_search(score_fn, lower, upper, cand_u, probe_u, **kwargs):
            events.append(("search", lower, cand_u))
            return search(score_fn, lower, upper, cand_u, probe_u, **kwargs)

        def recording_select(config, cover, omega_t, rng):
            before = [cell.search for cell in cover.cells]
            waiting = [held is None or held.key != (c.model.n, omega_t) or held.x is None
                       for c, held in zip(cover.cells, before)]
            stale = [c for c, held in zip(cover.cells, before)
                     if held is None or held.key != (c.model.n, omega_t)]
            events.clear()
            replay = np.random.Generator(np.random.PCG64())
            replay.bit_generator.state = rng.bit_generator.state
            budget = max(128, config.acq_candidates // cover.cell_count)
            for cell in stale:
                search_draw(replay, budget, config.acq_refinements, cell.lower.size)
            out = select(config, cover, omega_t, rng)
            assert rng.bit_generator.state == replay.bit_generator.state
            after = [cell.search for cell in cover.cells]
            keys = [(cell.model.n, omega_t) for cell in cover.cells]
            # as this step leaves them; a deferred search is made later
            made = [(held.key, held.score, held.x, held.reach) for held in after]
            reaches = [None if held.x is not None else optimizers._cell_score(
                config, cell.model, omega_t, cell.model.incumbent()[1]).reach(
                cell.lower, cell.upper) for cell, held in zip(cover.cells, after)]
            steps.append((list(cover.cells), stale, waiting, list(events),
                          [a is b for a, b in zip(after, before)], made, reaches, keys,
                          [cell.model.n > 0 for cell in cover.cells], out))
            return out

        monkeypatch.setattr(optimizers, "search_draw", recording_draw)
        monkeypatch.setattr(optimizers, "_first_row", recording_row)
        monkeypatch.setattr(optimizers, "maximize_acquisition", recording_search)
        monkeypatch.setattr(optimizers, "_select", recording_select)
        oracle, opt = rkhs_oracle(seed=411)
        cfg = dataclasses.replace(self.polylog_config(alg), omega_mode=omega_mode)
        run(cfg, oracle, opt)
        after_split, deferred, late, drawn, flat_steps = 0, 0, 0, {}, 0
        for t, (cells, stale, waiting, step_events, kept, made, reaches, keys, data,
                (win, x)) in enumerate(steps):
            n = len(stale)
            kinds = [kind for kind, *_ in step_events]
            assert kinds == ["draw"] * n + ["search"] * (len(kinds) - n), t
            flat = set()
            for cell, (_, held_draw) in zip(stale, step_events[:n]):
                drawn[cell] = t, held_draw
                [i] = [i for i, c in enumerate(cells) if c is cell]
                assert isinstance(held_draw, tuple) == data[i], t
                if data[i]:
                    continue
                # the first row, its point moved in off a shared upper face
                point = cell.lower + held_draw * (cell.upper - cell.lower)
                clamp = (cell.upper < 1.0) & (point >= cell.upper)
                point = np.where(clamp, np.nextafter(cell.upper, cell.lower), point)
                assert made[i][2].tobytes() == point.tobytes(), t
                flat.add(made[i][1])
            assert len(flat) <= 1, t
            flat_steps += len(flat)
            searched = []
            for _, lower, used in step_events[n:]:
                [i] = [i for i, cell in enumerate(cells) if cell.lower is lower]
                assert waiting[i] and data[i] and i not in searched, t
                assert np.shares_memory(used, drawn[cells[i]][1][0]), t
                late += drawn[cells[i]][0] < t
                searched.append(i)
            if omega_mode == OMEGA_THEORY_EI:
                assert stale == cells, t
            assert [key for key, *_ in made] == keys, t
            for i, (_, _, held_x, _) in enumerate(made):
                assert (held_x is not None) == (i in searched or not waiting[i] or not data[i]), t
                assert kept[i] == (cells[i] not in stale), t
            scores = [score if held_x is not None else -math.inf
                      for _, score, held_x, _ in made]
            i = scores.index(max(scores))
            assert win is cells[i] and x is made[i][2], t
            for (_, _, held_x, reach), again in zip(made, reaches):
                if held_x is None:
                    deferred += 1
                    assert gp._SCORE_FLOOR <= reach < scores[i], t
                    assert reach == again, t  # the reach of the cell's current model
            after_split += t > 0 and len(cells) > len(steps[t - 1][0])
        assert after_split >= 1 and flat_steps >= 1
        if omega_mode == OMEGA_POLYLOG_T:
            assert any(len(stale) < len(cells) for cells, stale, *_ in steps)
            assert late >= 1  # a deferred search made on an earlier step's draw
        if alg == ALG_IMPROVED_GP_EI:
            assert deferred > 0

    @pytest.mark.parametrize("alg", [ALG_IMPROVED_GP_EI, ALG_PI_UCB])
    def test_cell_budget_never_exceeds_the_total(self, alg, monkeypatch):
        budgets, draw = [], optimizers.search_draw

        def recording_draw(rng, n_candidates, *args):
            budgets.append(n_candidates)
            return draw(rng, n_candidates, *args)

        monkeypatch.setattr(optimizers, "search_draw", recording_draw)
        oracle, opt = rkhs_oracle(seed=409)
        cfg = RunConfig(
            algorithm=alg, horizon_T=25,
            omega_mode=OMEGA_POLYLOG_T, kernel=KERNEL,
            lam=0.01, seed=6, acq_candidates=64, acq_refinements=3,
        )
        trace = run(cfg, oracle, opt)
        assert trace.rows[-1].cell_count > 1
        assert budgets and max(budgets) <= 64

    @pytest.mark.parametrize("alg", [ALG_IMPROVED_GP_EI, ALG_PI_UCB])
    def test_search_reuses_the_maximizer_score(self, alg, monkeypatch):
        # a search of a cell with data reads the posterior once for the
        # candidate batch and once per window of refinement rounds, with the
        # row counts the window rule gives for the scores it saw; the cells
        # without data are searched without a search call, and a step reads
        # one point for all of them, the flat score; without a face clamp in
        # a search the select phase reads nothing else, so a step whose
        # searches are all deferred and whose cells without data are all
        # searched already reads nothing
        state = {"reads": 0, "searches": 0, "expected": 0, "clamped": False, "flat": 0}
        select = optimizers._select
        steps, windows = [], []
        real_posterior_many = GpModel.posterior_many
        search = optimizers.maximize_acquisition
        cfg = self.polylog_config(alg)
        n_probes = 8  # max(8, 2 d) at d = 2

        def posterior_many(self, xs):
            state["reads"] += 1
            return real_posterior_many(self, xs)

        def counting_select(config, cover, omega_t, rng):
            state["reads"] = 0  # drop the reads of the previous step's update
            state["flat"] = sum(1 for c in cover.cells if not c.model.n and (
                c.search is None or c.search.key != (0, omega_t)))
            state["expected"] += state["flat"] > 0
            return select(config, cover, omega_t, rng)

        def counting_search(score_fn, lower, upper, cand_u, probe_u, extra_points):
            state["searches"] += 1
            before, calls = state["reads"], []

            def recorded(xs):
                calls.append((np.array(xs), np.asarray(score_fn(xs))))
                return calls[-1][1]

            x, s = search(recorded, lower, upper, cand_u, probe_u,
                          extra_points=extra_points)
            reads = state["reads"] - before
            assert reads == len(calls)
            rows = [len(pv) for _, pv in calls]
            assert len(extra_points)  # the cell's sampled points
            assert probe_u.shape == (cfg.acq_refinements, n_probes, 2)
            assert rows == _replayed_windows(calls, lower, upper, probe_u,
                                             len(extra_points))[0]
            windows.extend(rows[1:])
            state["expected"] += reads
            state["clamped"] |= bool(np.any((upper < 1.0) & (x >= upper)))
            return x, s

        oracle, opt = rkhs_oracle(seed=410)

        def observe(x):
            steps.append(dict(state))
            state.update(reads=0, searches=0, expected=0, clamped=False)
            return oracle(x)

        observe.dim, observe.target = oracle.dim, oracle.target
        monkeypatch.setattr(GpModel, "posterior_many", posterior_many)
        monkeypatch.setattr(optimizers, "maximize_acquisition", counting_search)
        monkeypatch.setattr(optimizers, "_select", counting_select)
        run(cfg, observe, opt)
        checked = 0
        for t, step in enumerate(steps, start=1):
            if not step["clamped"]:
                assert step["reads"] == step["expected"], t
                checked += 1
        assert checked >= 5
        # one read scores several cells without data, and cells with data
        # are searched
        assert any(step["flat"] > 1 for step in steps)
        assert any(step["searches"] for step in steps)
        # both one-round windows and wider ones occur
        assert n_probes in windows and max(windows) > n_probes
        if alg == ALG_IMPROVED_GP_EI:  # EI defers the searches of cells with data
            assert any(step["searches"] == 0 for step in steps)

    def test_selected_point_outside_its_cell_raises(self, monkeypatch):
        monkeypatch.setattr(partition.Cell, "contains", lambda self, x: False)
        oracle, opt = rkhs_oracle(seed=406)
        with pytest.raises(RuntimeError, match="outside its cell"):
            run(self.polylog_config(ALG_IMPROVED_GP_EI), oracle, opt)


def hartmann_oracle(seed):
    target, d, opt, _ = standard_function("hartmann3")
    return NoisyOracle(target, d, 0.1, np.random.default_rng(seed)), opt


class TestDeferredSearches:
    """A cell whose reach stays below the step's best score is not searched:
    it keeps its draw, and the step's pick is the one that searching every
    cell whose search is still to make, on the same draws, gives."""

    @staticmethod
    def replay(config, cover, omega_t, rng, select, log):
        """select's (cell index, x bytes, score), then the same from
        searching, on copies of their held records, the cells it left
        deferred; logs (pruned pick, unpruned pick, cells deferred, whether
        the best score is below _SCORE_FLOOR while a cell with data waits)."""
        waits = any(c.model.n and (c.search is None or c.search.x is None
                                   or c.search.key != (c.model.n, omega_t))
                    for c in cover.cells)
        win, x = select(config, cover, omega_t, rng)
        pick = (cover.cells.index(win), x.tobytes(), win.search.score)
        made, deferred = [], 0
        for cell in cover.cells:
            held = cell.search
            if held.x is None:
                deferred += 1
                cell.search = dataclasses.replace(held)
                incumbent = cell.model.incumbent()[1]
                optimizers._search(cell, optimizers._cell_score(config, cell.model, omega_t,
                                                                incumbent))
                held, cell.search = cell.search, held
                assert held.draw is None and cell.search.draw is not None
            made.append((held.score, held.x))
        scores = [score for score, _ in made]
        i = scores.index(max(scores))  # the first of largest, in cover order
        log.append((pick, (i, made[i][1].tobytes(), made[i][0]), deferred,
                    waits and pick[2] < gp._SCORE_FLOOR))
        return win, x

    @pytest.mark.parametrize("alg, omega_mode, omega_c", [
        (ALG_IMPROVED_GP_EI, OMEGA_POLYLOG_T, 1.0),
        (ALG_IMPROVED_GP_EI, OMEGA_THEORY_EI, 1.0),
        (ALG_PI_UCB, OMEGA_POLYLOG_T, 1.0),
        # every empty cell scores rho(0, 4e-301): steps whose best lies
        # below _SCORE_FLOOR, where every cell with data is searched
        (ALG_IMPROVED_GP_EI, OMEGA_FIXED, 1e-300),
    ], ids=["ei_polylog", "ei_theory", "ucb", "ei_floor"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_pruned_select_replays_the_unpruned_pick(self, alg, omega_mode, omega_c, d,
                                                     monkeypatch):
        log, select = [], optimizers._select
        monkeypatch.setattr(optimizers, "_select",
                            lambda *args: self.replay(*args, select, log))
        oracle, opt = rkhs_oracle(seed=420) if d == 2 else hartmann_oracle(421)
        cfg = RunConfig(algorithm=alg, horizon_T=25, omega_mode=omega_mode, kernel=KERNEL,
                        lam=0.01, seed=7, acq_candidates=256, acq_refinements=10,
                        omega_c=omega_c)
        run(cfg, oracle, opt)
        assert len(log) == cfg.horizon_T
        for t, (pruned, unpruned, _, _) in enumerate(log, start=1):
            assert pruned == unpruned, t
        if alg == ALG_IMPROVED_GP_EI and omega_c == 1.0:
            assert sum(deferred for *_, deferred, _ in log) > 0
        if omega_c < 1.0:
            floor_steps = [deferred for *_, deferred, below in log if below]
            assert floor_steps and not any(floor_steps)

    @pytest.mark.parametrize("alg", [ALG_GP_EI, ALG_IMPROVED_GP_EI, ALG_PI_UCB])
    def test_reaches_are_taken_where_they_can_skip_or_order(self, alg, monkeypatch):
        # a step takes one reach per cell with data new to the wait, except
        # for a lone such cell that no reach would skip: GP-EI's one cell,
        # with no score found before it, and, under UCB, whose width grows
        # with a cell's gain, a lone observed cell
        calls, real, select, log = [], GpModel.box_reach, optimizers._select, []
        monkeypatch.setattr(GpModel, "box_reach",
                            lambda self, *args: calls.append(1) or real(self, *args))

        def counting_select(config, cover, omega_t, rng):
            new = sum(1 for c in cover.cells if c.model.n and (
                c.search is None or c.search.key != (c.model.n, omega_t)))
            before = len(calls)
            out = select(config, cover, omega_t, rng)
            log.append((new, len(calls) - before))
            return out

        monkeypatch.setattr(optimizers, "_select", counting_select)
        oracle, opt = rkhs_oracle(seed=413)
        run(small_config(alg, T=25, omega_mode=OMEGA_POLYLOG_T), oracle, opt)
        if alg == ALG_GP_EI:
            assert all(taken == 0 for _, taken in log)
        elif alg == ALG_PI_UCB:
            assert all(taken == (new if new > 1 else 0) for new, taken in log)
            assert any(taken for _, taken in log)
        else:
            assert all(taken == new for new, taken in log[1:])
            assert sum(taken for _, taken in log) > 0

    @pytest.mark.parametrize("alg", [ALG_IMPROVED_GP_EI, ALG_PI_UCB])
    def test_reach_scores_the_bound_in_floats(self, alg, monkeypatch):
        # a cell score's reach is _reach of its float form at _box_bound's
        # (mean, stddev), within 1e-12 relative of the array form's (UCB to
        # the bit), and makes no ei_scores or ucb_score call
        calls = []
        for name in ("ei_scores", "ucb_score"):
            real = getattr(optimizers, name)
            monkeypatch.setattr(optimizers, name,
                                lambda *args, real=real: calls.append(1) or real(*args))
        cfg = small_config(alg, T=20, omega_mode=OMEGA_POLYLOG_T)
        rng = np.random.default_rng(44)
        for trial in range(40):
            lower = rng.uniform(size=2) * 0.5
            cell = partition.Cell(lower, lower + 0.5 * rng.uniform(0.01, 1.0, size=2),
                                  GpModel(KERNEL, 0.01))
            for _ in range(int(rng.integers(1, 8))):
                cell.model.update(rng.uniform(cell.lower, cell.upper), rng.normal())
            # Python floats, as run's omega_t and incumbent() give them; the
            # incumbent moved up toward EI's deep tail
            omega = float(10.0 ** rng.uniform(-1, 1))
            incumbent = cell.model.incumbent()[1] + float(rng.choice([0.0, 1.0, 5.0]))
            score = optimizers._cell_score(cfg, cell.model, omega, incumbent)
            del calls[:]
            got = score.reach(*cell.box)
            assert type(got) is float and not calls
            mean, std = cell.model._box_bound(*cell.box)
            if alg == ALG_PI_UCB:
                beta = optimizers.beta_value(cfg.B, cfg.R, cell.model.accumulated_info_gain(),
                                             cfg.delta)
                want = gp._reach(optimizers.ucb_score(np.array([mean]), np.array([std]),
                                                      beta))[0]
                assert got == want
            else:
                want = gp._reach(optimizers.ei_scores(np.array([mean]), incumbent,
                                                      omega * np.array([std])))[0]
                assert got == pytest.approx(want, rel=1e-12, abs=0), trial

    def test_ties_go_to_the_first_cell_in_cover_order(self, monkeypatch):
        # a stubbed cover of three cells with data, whose searches return
        # set scores and whose reaches are set, and one without: the empty
        # cell takes its flat score, EI at (0, 1), without a search call,
        # then the others are searched in decreasing reach while it reaches
        # the best so far (a reach equal to it may tie, and is searched), and
        # the first cell of largest score wins, though it was searched after
        # the one it ties
        rng = np.random.default_rng(0)
        cells = []
        for i in range(4):
            model = GpModel(KERNEL, 0.01)
            if i < 3:
                model.update(np.array([0.25 * i + 0.1, 0.5]), 1.0)
            cells.append(partition.Cell(np.array([0.25 * i, 0.0]),
                                        np.array([0.25 * i + 0.25, 1.0]), model))
        cover = partition.Cover(cells, math.nan, math.nan)
        score = {0: 2.0, 1: 2.0, 2: 1.0}
        reach = {0: 2.0, 1: 5.0, 2: 1.9}
        index = {id(c.model): i for i, c in enumerate(cells)}
        order = []

        def stub_search(score_fn, lower, upper, cand_u, probe_u, extra_points):
            [i] = [i for i, c in enumerate(cells) if c.lower is lower]
            order.append(i)
            return lower + 0.5 * (upper - lower), score[i]

        monkeypatch.setattr(optimizers, "maximize_acquisition", stub_search)
        monkeypatch.setattr(GpModel, "box_reach",
                            lambda self, lower, upper, of: reach[index[id(self)]])
        cfg = small_config(ALG_IMPROVED_GP_EI)
        win, x = optimizers._select(cfg, cover, 1.0, rng)
        assert order == [1, 0]
        assert cells[3].search.score == float(optimizers.ei_scores(0.0, 0.0, 1.0))
        assert win is cells[0] and x is cells[0].search.x
        assert cells[2].search.x is None and cells[2].search.draw is not None
        # the next step at the same key draws nothing and searches nothing
        state, order[:] = rng.bit_generator.state, []
        assert optimizers._select(cfg, cover, 1.0, rng)[0] is cells[0]
        assert order == [] and rng.bit_generator.state == state


class TestInfoGainColumn:
    @pytest.mark.parametrize("alg", [ALG_IMPROVED_GP_EI, ALG_PI_UCB])
    def test_row_reads_the_sum_of_the_cells_running_gains(self, alg, monkeypatch):
        # the running gain, not the log-det one: the two part after a jitter
        # refit (tests/test_gp.py pins such a case)
        oracle, opt = rkhs_oracle(seed=411)
        rec = _StepRecorder(oracle, monkeypatch)
        sums = []

        def cell_gain_sum():
            return sum(c.model.accumulated_info_gain() for c in rec.cover.cells)

        def observe(x):
            sums.append(cell_gain_sum())  # as the previous step left the cover
            return rec(x)

        observe.dim, observe.target = oracle.dim, oracle.target
        trace = run(small_config(alg, T=20), observe, opt)
        assert trace.rows[-1].cell_count > rec.initial_cells
        assert [r.info_gain for r in trace.rows] == sums[1:] + [cell_gain_sum()]


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
        walks, real_blocks = [], gp.cross_blocks
        monkeypatch.setattr(gp, "cross_blocks",
                            lambda *args: walks.append(1) or real_blocks(*args))
        # GpModel.incumbent's reads; each computation returns a new tuple,
        # held here so that no id is reused
        means, real_incumbent = [], GpModel.incumbent
        monkeypatch.setattr(GpModel, "incumbent",
                            lambda self: means.append(real_incumbent(self)) or means[-1])
        searches, search = [], optimizers.maximize_acquisition

        def recording_search(score_fn, lower, upper, cand_u, probe_u, extra_points):
            made = []
            searches.append((made, lower, upper, probe_u, len(extra_points)))

            def recorded(xs):
                made.append((np.array(xs), np.asarray(score_fn(xs))))
                return made[-1][1]

            return search(recorded, lower, upper, cand_u, probe_u, extra_points=extra_points)

        monkeypatch.setattr(optimizers, "maximize_acquisition", recording_search)
        oracle, opt = rkhs_oracle(seed=408)
        cfg = small_config(T=6)
        run(cfg, oracle, opt)
        # per step: the search's score calls (the candidate batch, then one
        # per window of refinement rounds) and the update's read, each a
        # posterior_many call, and the best sampled mean after it, computed
        # once per model version, which walks no kernel block; step 1's
        # cell has no data, so it makes no search call but one posterior_many
        # call for its flat score, and neither that call nor the update's
        # read walks any block
        assert len(searches) == cfg.horizon_T - 1
        for search_calls, *replay in searches:
            assert [len(pv) for _, pv in search_calls] == _replayed_windows(
                search_calls, *replay)[0]
        assert len(calls) == sum(len(search[0]) for search in searches) + 1 + cfg.horizon_T
        assert len(walks) == len(calls) - 2
        assert len({id(mean) for mean in means if mean is not None}) == cfg.horizon_T


class TestReport:
    @pytest.mark.parametrize("alg", [ALG_GP_EI, ALG_IMPROVED_GP_EI, ALG_PI_UCB])
    def test_target_is_read_only_where_x_plus_moves(self, alg):
        # the report reads f(x+) at the first step and where x+ moved from
        # the previous step's bytes; every other row carries the last value
        # read, the value a read would give
        oracle, opt = rkhs_oracle(seed=412)
        reads = []

        def target(x):
            reads.append(np.array(x))
            return oracle.target(x)

        def observe(x):
            return oracle(x)

        observe.dim, observe.target = oracle.dim, target
        trace = run(small_config(alg, T=20), observe, opt)
        rows = trace.rows
        moved = [row.x_plus.tobytes() for i, row in enumerate(rows)
                 if i == 0 or row.x_plus.tobytes() != rows[i - 1].x_plus.tobytes()]
        assert [x.tobytes() for x in reads] == moved
        assert len(reads) < trace.horizon
        for row in rows:
            want = float(oracle.target(row.x_plus))
            assert np.float64(row.f_at_x_plus).tobytes() == np.float64(want).tobytes()


    def test_first_cell_wins_a_tie_and_gains_add_in_cover_order(self):
        # one pass: an empty cell is skipped, two cells whose incumbents tie
        # give the first one's x+, and the gains add left to right from 0.0
        cells = []
        for i, points in enumerate([[], [[0.3, 0.5]], [[0.6, 0.5]], [[0.8, 0.5], [0.9, 0.1]]]):
            model = GpModel(KERNEL, 0.01)
            for x in points:
                model.update(np.array(x), 1.0 if len(points) == 1 else -1.0)
            cells.append(partition.Cell(np.array([0.25 * i, 0.0]),
                                        np.array([0.25 * i + 0.25, 1.0]), model))
        cover = partition.Cover(cells, math.nan, math.nan)

        def target(x):
            return float(x[0])

        target.target = target
        assert cells[1].model.incumbent()[1] == cells[2].model.incumbent()[1]
        x_plus, f_plus, gain = optimizers._report(cover, target, None)
        assert x_plus.tobytes() == cells[1].model.incumbent()[0].tobytes() and f_plus == 0.3
        want = 0.0
        for cell in cells:
            want += cell.model.accumulated_info_gain()
        assert gain == want


class TestRunConfigValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            RunConfig(algorithm="annealing", horizon_T=10, omega_mode=OMEGA_FIXED,
                      kernel=KERNEL)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            RunConfig(algorithm=ALG_GP_EI, horizon_T=0, omega_mode=OMEGA_FIXED,
                      kernel=KERNEL)

    def test_negative_refinements_rejected(self):
        with pytest.raises(ValueError, match="refinements"):
            RunConfig(algorithm=ALG_GP_EI, horizon_T=10, omega_mode=OMEGA_FIXED,
                      kernel=KERNEL, acq_refinements=-3)
        assert RunConfig(algorithm=ALG_GP_EI, horizon_T=10, omega_mode=OMEGA_FIXED,
                         kernel=KERNEL, acq_refinements=0).acq_refinements == 0

    @pytest.mark.parametrize("delta", [0.0, 1.0, 1.5])
    def test_ucb_delta_outside_unit_interval_rejected(self, delta):
        # beta_value would raise at step 1, after the outputs were started
        with pytest.raises(ValueError, match="delta"):
            RunConfig(algorithm=ALG_PI_UCB, horizon_T=10, omega_mode=OMEGA_POLYLOG_T,
                      kernel=KERNEL, delta=delta)
