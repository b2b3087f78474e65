"""The sequential run loop, its inner acquisition maximizer, and the
exploration scale omega_t.

One loop runs every algorithm on a cover of the unit box with a GP per cell:
GP-EI is EI on one cell that never splits, Improved GP-EI is EI per cell on
the adaptive cover, and pi-GP-UCB scores that cover's cells by UCB.  Each
step searches the cells that can hold the argmax, observes it, refreshes
its cell's model, applies the split rule, and reports the sampled point of
largest current posterior mean.  Regret rows are exact: the testbed
supplies the optimum.

EI scales the posterior stddev by omega_t, which RunConfig.omega_mode
computes from the run's own parameters: the constant omega_c (fixed),
sqrt(gain + 1 + ln(1/delta)) with the gain summed over the cells after the
previous step (theory_ei), or sqrt(ln T * ln ln T) for the horizon T >= 16
(polylog_t).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .acquisition import beta_value, ei_float, ei_scores, ucb_score
from .gp import GpModel
from .kernels import KernelSpec
from .partition import Cell, Cover, initial_cover, split_pass

ALG_GP_EI = "gp_ei"
ALG_IMPROVED_GP_EI = "improved_gp_ei"
ALG_PI_UCB = "pi_ucb"

_ALGORITHMS = (ALG_GP_EI, ALG_IMPROVED_GP_EI, ALG_PI_UCB)

OMEGA_FIXED = "fixed"
OMEGA_THEORY_EI = "theory_ei"
OMEGA_POLYLOG_T = "polylog_t"

# the kernel pairs (a cell's sampled points times probe rows) a refinement
# window is sized to after an improvement: below about this many, a score
# call's cost is its fixed numpy overhead, not its kernel work
_WINDOW_PAIRS = 100


class AcquisitionNumericsError(ArithmeticError):
    """Score function returned NaN; carries the offending point."""

    def __init__(self, point):
        super().__init__(f"acquisition score is NaN at {point}")
        self.point = np.asarray(point)


@dataclass(frozen=True)
class RunConfig:
    algorithm: str
    horizon_T: int
    omega_mode: str
    kernel: KernelSpec
    lam: float = 0.01
    delta: float = 0.05
    seed: int = 0
    acq_candidates: int = 4096
    acq_refinements: int = 30
    B: float = 1.0
    R: float = 1.0
    omega_c: float = 1.0

    def __post_init__(self):
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm: {self.algorithm!r}")
        if self.horizon_T < 1:
            raise ValueError("horizon must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.acq_candidates < 1:
            raise ValueError("need at least one acquisition candidate")
        if self.acq_refinements < 0:
            raise ValueError("acquisition refinements must be >= 0")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")
        if not math.isfinite(1.0 / self.lam):  # the gain's log1p(var / lam) would overflow
            raise ValueError(f"lambda needs 1/lambda finite, got lam={self.lam}")
        if self.algorithm in (ALG_IMPROVED_GP_EI, ALG_PI_UCB):
            if self.kernel.nu is None or not self.kernel.nu > 1:
                raise ValueError("partition-based runs need a Matern kernel with nu > 1")
        # the scales below must be finite, or every score is infinite and a
        # step picks its search's first draw; UCB's width must be >= 0, or
        # its score decreases in the stddev
        if self.algorithm == ALG_PI_UCB:  # UCB reads no omega
            self._check_delta("pi_ucb")
            for name in ("B", "R"):
                value = getattr(self, name)
                if not (math.isfinite(value) and value >= 0):
                    raise ValueError(f"pi_ucb needs {name} finite and >= 0, got {value}")
            return
        mode = self.omega_mode
        if mode not in (OMEGA_FIXED, OMEGA_THEORY_EI, OMEGA_POLYLOG_T):
            raise ValueError(f"unknown omega mode: {mode!r}")
        if mode == OMEGA_FIXED and not (math.isfinite(self.omega_c) and self.omega_c > 0):
            raise ValueError(f"fixed omega needs c > 0 and finite, got {self.omega_c}")
        if mode == OMEGA_THEORY_EI:
            self._check_delta("theory_ei omega")
        if mode == OMEGA_POLYLOG_T and self.horizon_T < 16:
            raise ValueError(f"{self.algorithm} with polylog_t omega needs horizon_T >= 16 "
                             f"(ln ln T must be positive), got T = {self.horizon_T}")

    def _check_delta(self, user: str) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"{user} needs delta in (0, 1)")
        if not math.isfinite(1.0 / self.delta):
            raise ValueError(f"{user} needs 1/delta finite, got delta={self.delta}")


@dataclass
class TraceRow:
    t: int
    x: np.ndarray
    y: float
    x_plus: np.ndarray
    f_at_x_plus: float
    instantaneous_regret: float
    cumulative_regret: float
    omega: float
    info_gain: float
    cell_count: int
    wallclock_ms: float


@dataclass
class RunTrace:
    algorithm: str
    seed: int
    dim: int
    rows: list[TraceRow] = field(default_factory=list)
    # run-level diagnostics filled by the loop
    sum_sigma_selected: float = 0.0
    final_info_gain: float = 0.0
    max_cell_info_gain: float = 0.0
    total_cells_created: int = 1
    cover_q: float = float("nan")

    @property
    def horizon(self) -> int:
        return len(self.rows)

    @property
    def final_cumulative_regret(self) -> float:
        return self.rows[-1].cumulative_regret


def _draw_rows(n_candidates: int, n_refinements: int, d: int) -> tuple[int, int]:
    """(rows, n_probes) of a search's draw: n_candidates rows, then
    n_probes = max(8, 2 d) rows per refinement round, d uniforms a row."""
    if min(n_candidates, n_refinements, d) < 0:
        raise ValueError(f"search_draw needs counts >= 0, got n_candidates={n_candidates}, "
                         f"n_refinements={n_refinements}, d={d}")
    n_probes = max(8, 2 * d)
    return n_candidates + n_refinements * n_probes, n_probes


def search_draw(rng: np.random.Generator, n_candidates: int, n_refinements: int, d: int):
    """A search's uniforms from one rng call, the same doubles as one call per
    pass: cand_u, shape (n_candidates, d), then probe_u, shape (n_refinements,
    n_probes, d), one group of n_probes = max(8, 2 d) rows per round."""
    rows, n_probes = _draw_rows(n_candidates, n_refinements, d)
    u = rng.uniform(size=(rows, d))
    return u[:n_candidates], u[n_candidates:].reshape(n_refinements, n_probes, d)


def _first_row(rng: np.random.Generator, n_candidates: int, n_refinements: int,
               d: int) -> np.ndarray:
    """search_draw's first candidate row, cand_u[0] (n_candidates >= 1), with
    rng left in the state search_draw leaves: the rest of the draw is skipped,
    not made.  For a PCG64 generator such as run's, which takes one 64-bit
    output per uniform and holds no buffered 32-bit value for advance to
    drop."""
    rows, _ = _draw_rows(n_candidates, n_refinements, d)
    u = rng.uniform(size=d)
    rng.bit_generator.advance((rows - 1) * d)
    return u


def maximize_acquisition(score_fn, lower, upper, cand_u: np.ndarray, probe_u: np.ndarray,
                         extra_points=None) -> tuple[np.ndarray, float]:
    """Random multi-start argmax over a box, a pure function of its draw (see
    search_draw): candidates lower + cand_u (upper - lower) plus any sampled
    points, then shrinking-radius rounds, round r's probes offset by
    2 probe_u[r] - 1.  Returns the best point and its score; ties go to the
    first-seen point.  A draw of another dimension, with a value outside
    [0, 1] (NaN included) or with rounds of no probe raises ValueError.

    Rounds are scored in look-ahead windows, several per score_fn call, which
    must give a row the same bytes in every batch of n_probes or more rows,
    as GpModel.posterior_many does from two on.  The radius halves every
    round, so a round's probes depend only on its centre, the best point at
    its start.  A window's first round is centred on the best point; each
    later one on the row its predecessor is predicted to pick, or on its
    predecessor's centre where no improvement is predicted.  A round is used
    while its centre is the best point at its start, to the byte; the first
    that is not ends the window, its rounds and those after it are dropped,
    and a NaN raises only in a used round.  So the result is the one-round
    search's.

    A posterior-plus-score call costs some 20-30 us whatever its size and
    1-2.5 us more per 100 kernel pairs, so the floor, the first window and
    each after one that dropped a round, holds max(1, _WINDOW_PAIRS //
    (max(1, n) * n_probes)) rounds for n sampled points: 12 rounds of 8
    probes at n = 1, and one round from n = 7 on.  A window doubles after
    one used in full, up to the rounds left.  Where the floor is several
    rounds, every round of a window is centred on the best point, and an
    improvement in a window's last round also resets it to the floor.
    Where the floor is one round (n >= 7 at 8 probes), a window of two or
    more rounds after a used round that improved predicts its picks: each
    round's probe of largest slope . offset, if positive, for the
    least-squares slope of that round's finite scores against its probes
    (_predicted_picks).

    A score_fn may carry an `argmax(points)` attribute, a shortcut for the
    candidate pass: it returns the (index, score) that the first-index
    argmax of score_fn(points) gives, or None to have that full pass made."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    d = lower.shape[0]
    if not (lower < upper).all():
        raise ValueError(f"search box needs lower < upper, got {lower} and {upper}")
    for name, u, ndim in (("cand_u", cand_u, 2), ("probe_u", probe_u, 3)):
        if u.ndim != ndim or u.shape[-1] != d:
            raise ValueError(f"{name} has shape {u.shape}, but the box has d = {d}")
        if u.size and not (u.min() >= 0.0 and u.max() <= 1.0):  # a NaN fails both
            raise ValueError(f"{name} must hold uniforms in [0, 1], "
                             f"got values in [{u.min()}, {u.max()}]")
    if len(probe_u) and not probe_u.shape[1]:
        raise ValueError(f"probe_u has shape {probe_u.shape}: rounds without a probe")
    cands = lower + cand_u * (upper - lower)
    if extra_points is not None and len(extra_points):
        cands = np.vstack([cands, np.atleast_2d(np.asarray(extra_points, dtype=float))])
    n = len(cands) - len(cand_u)
    if not len(cands):
        raise ValueError("search has no candidate: cand_u has 0 rows and no extra point")
    argmax = getattr(score_fn, "argmax", None)
    found = None if argmax is None else argmax(cands)
    best, best_score = found or _pick(cands, np.asarray(score_fn(cands), dtype=float))
    best_x = cands[best].copy()
    n_refinements, n_probes, _ = probe_u.shape
    if not n_refinements:  # acq_refinements = 0: the candidate pass alone
        return best_x, best_score
    # round r's steps, its offsets times its radius, 0.25 (upper - lower)
    # halved r times, exactly
    steps = (2.0 * probe_u - 1.0) * (
        0.25 * (upper - lower) * 0.5 ** np.arange(n_refinements)[:, None, None])
    floor = max(1, _WINDOW_PAIRS // (max(1, n) * n_probes))
    predict = floor == 1
    r, window, last = 0, floor, None  # last: the last round used, where it improved
    while r < n_refinements:
        stop = min(r + window, n_refinements)
        picks = (_predicted_picks(*last, steps[r:stop]) if predict and last and stop - r > 1
                 else None)
        if picks is None:  # every round centred on the best point
            probes = best_x + steps[r:stop]
            np.maximum(probes, lower, out=probes)  # np.clip, without its wrappers
            np.minimum(probes, upper, out=probes)
        else:  # each later round centred on its predecessor's predicted pick
            probes, next_centres, centre = np.empty((stop - r, n_probes, d)), [], best_x
            for p, step, pick in zip(probes, steps[r:stop], picks):
                np.add(centre, step, out=p)
                np.maximum(p, lower, out=p)
                np.minimum(p, upper, out=p)
                centre = centre if pick < 0 else p[pick]
                next_centres.append(centre)
        pv = np.asarray(score_fn(probes.reshape(-1, d)), dtype=float)
        rounds = zip(probes, pv.reshape(stop - r, n_probes))
        window *= 2
        if picks is None:  # the first improvement ends the window
            for round_probes, round_pv in rounds:
                r += 1
                i, score = _pick(round_probes, round_pv)
                if score > best_score:
                    best_score, best_x = score, round_probes[i].copy()
                    last = round_probes, round_pv
                    if r < stop or not predict:  # a predicting window's last round resets nothing
                        window = floor
                        break
                else:
                    last = None
        else:  # the next round is used only where it is centred on the best point
            for (round_probes, round_pv), pick, next_centre in zip(rounds, picks, next_centres):
                r += 1
                i, score = _pick(round_probes, round_pv)
                if score > best_score:
                    best_score, best_x = score, round_probes[i].copy()
                    last = round_probes, round_pv
                else:
                    i, last = -1, None
                if i != pick and r < stop and next_centre.tobytes() != best_x.tobytes():
                    window = floor
                    break
    return best_x, best_score


@np.errstate(all="ignore")  # scores near the float limit overflow to a useless slope
def _predicted_picks(probes, scores, steps) -> list[int] | None:
    """Each round's predicted pick: the index of its step of largest gain
    slope . step where that gain is positive, else -1 (no improvement).  The
    slope is that of the least-squares plane through one round's probes and
    their finite scores; None where its normal matrix is singular, as when
    probes clamped to a face leave a coordinate flat.  A prediction only
    decides which rounds share a call, never what is scored or picked."""
    finite = np.isfinite(scores)
    if not finite.all():
        probes, scores = probes[finite], scores[finite]
    m = len(scores)
    x = probes - np.add.reduce(probes) / m
    _, slope, info = lapack.dposv(x.T @ x, x.T @ (scores - np.add.reduce(scores) / m))
    if info:  # not positive definite: singular, or fewer than d + 1 finite scores
        return None
    return [g.index(top) if (top := max(g)) > 0 else -1 for g in (steps @ slope).tolist()]


def _pick(points, scores) -> tuple[int, float]:
    """(index, score) of the first-index argmax of scores; a NaN score, which
    argmax returns first, raises with its point."""
    i = int(scores.argmax())
    score = float(scores[i])
    if math.isnan(score):
        raise AcquisitionNumericsError(points[i])
    return i, score


def _omega(config: RunConfig, gain: float) -> float:
    """EI's exploration scale for a step, from the gain summed over the
    cells before it; UCB has no global scale, and the trace column reads 1."""
    if config.algorithm == ALG_PI_UCB:
        return 1.0
    if config.omega_mode == OMEGA_FIXED:
        return config.omega_c
    if config.omega_mode == OMEGA_THEORY_EI:
        return math.sqrt(gain + 1.0 + math.log(1.0 / config.delta))
    ln_t = math.log(config.horizon_T)
    return math.sqrt(ln_t * math.log(ln_t))


def _cell_score(config: RunConfig, model: GpModel, omega_t: float, incumbent: float):
    """Vectorized score over points of one cell with this model: EI against
    the cell's own incumbent mean, or UCB with a width from the cell's gain.
    Either is elementwise in (means, stds) and does not decrease in stds, so
    the pruned candidate pass is its argmax, and, for a model with data,
    reach(lower, upper) bounds it over a box (GpModel.box_reach).  The
    reach scores its one (mean, stddev) bound in Python floats, by
    acquisition.ei_float or mean + beta * stddev, not by the array form."""
    if config.algorithm == ALG_PI_UCB:
        beta = beta_value(config.B, config.R, model.accumulated_info_gain(), config.delta)

        def of(means, stds):
            return ucb_score(means, stds, beta)

        def at(mean, std):
            return mean + beta * std
    else:
        def of(means, stds):
            return ei_scores(means, incumbent, omega_t * stds)

        def at(mean, std):
            return ei_float(mean - incumbent, omega_t * std)

    def score(xs):
        return of(*model.posterior_many(xs))

    score.argmax = lambda xs: model.posterior_argmax(xs, of)
    score.reach = lambda lower, upper: model.box_reach(lower, upper, at)
    return score


@dataclass(eq=False, slots=True)
class _Search:
    """A cell's search under its key (model.n, omega_t): its draw until the
    search is made, search_draw's for a cell with data and its first row
    (_first_row) for one without, then its (score, x), -inf and None
    before; for a cell with data, once _select has taken it up, the reach
    of its score over its box (GpModel.box_reach), or inf where it is
    searched without one."""

    key: tuple
    draw: tuple | np.ndarray | None
    reach: float | None = None
    score: float = -math.inf
    x: np.ndarray | None = None


def _score_at(score_fn, x: np.ndarray) -> float:
    """score_fn at the one point x; a NaN raises with x."""
    return _pick(x[None, :], np.asarray(score_fn(x[None, :]), dtype=float))[1]


def _search(cell: Cell, score_fn) -> None:
    """Search a cell with data on its held draw with its score_fn, and hold
    the (score, x) in place of the draw; a point moved in from an upper
    face is scored again."""
    held = cell.search
    x, s = maximize_acquisition(score_fn, cell.lower, cell.upper, *held.draw,
                                extra_points=cell.model.points)
    owned = cell.move_in(x)
    if owned is not x:
        x, s = owned, _score_at(score_fn, owned)
    held.draw, held.score, held.x = None, s, x


def _select(config: RunConfig, cover: Cover, omega_t: float,
            rng: np.random.Generator) -> tuple[Cell, np.ndarray]:
    """(cell, x) for a step: x is the global argmax of the cell scores over
    (cell, point), the first of largest score in cover order.

    A cell's surface depends only on its model and omega_t, so each cell
    holds its last search (_Search) under the key (model.n, omega_t), and is
    stale, and takes a new draw, only when that key changes: after an
    observation, when a split creates it, or at every step when omega_t
    moves (theory_ei); the budget sets the effort, not the surface, and is
    left out.  Every stale cell takes its draw, in cover order, before the
    first search.

    A cell without data has the prior's posterior (0, 1) at every point, so
    every such cell has the same flat score: EI against incumbent 0 at
    omega_t, or UCB at gain 0.  Its search takes its first candidate, the
    first row of its draw (_first_row, which skips the rest), moved in from
    a shared upper face as _search moves a point, and that score, computed
    once a step, at the first such cell's point; the search of every stale
    cell would pick that point, as the first candidate wins every tie.

    A search of a cell with data is made only where it can win.  The cells
    with data whose search is still to make, stale now or deferred at an
    earlier step, follow the cells without data in decreasing order of
    their reach (GpModel.box_reach), computed once per key, until one's
    reach is below the best score found so far: no point of it or of the
    cells after it can tie that score, so they keep their draw and reach,
    deferred, and are searched from that draw at the first later step whose
    best they reach.  A lone cell new to this wait is searched first
    without a reach when no score is found yet, as GP-EI's one cell, and
    under UCB, whose width grows with a cell's gain, so that such a cell
    all but never scores below the cells searched before it (1 of 313 such
    reaches on cover_ucb_rkhs2 skipped a search, and there a reach costs
    about a twenty-fifth of a search, 14.5 us against 385 us, median).  So
    every search made is one that searching every stale cell would make,
    and the winner is the same."""
    # an equal share of the candidates, floored at 128 but never above them
    budget = max(min(128, config.acq_candidates), config.acq_candidates // cover.cell_count)
    for cell in cover.cells:
        key = cell.model.n, omega_t
        if cell.search is None or cell.search.key != key:
            draw = search_draw if cell.model.n else _first_row
            cell.search = _Search(key, draw(rng, budget, config.acq_refinements,
                                            cell.lower.size))

    def score_fn(cell):
        best = cell.model.incumbent()
        return _cell_score(config, cell.model, omega_t, 0.0 if best is None else best[1])

    waiting, best, flat = [], -math.inf, None
    for cell in cover.cells:
        held = cell.search
        if held.x is None:
            if cell.model.n:
                waiting.append(cell)
                continue
            x = cell.move_in(cell.lower + held.draw * (cell.upper - cell.lower))
            if flat is None:
                flat = _score_at(score_fn(cell), x)
            held.draw, held.score, held.x = None, flat, x
        best = max(best, held.score)
    need = [cell for cell in waiting if cell.search.reach is None]
    # reaches order several new cells; a lone one's can only skip its search
    bound = len(need) > 1 or (best > -math.inf and config.algorithm != ALG_PI_UCB)
    for cell in need:  # without a bound, searched first, whatever its reach
        cell.search.reach = score_fn(cell).reach(*cell.box) if bound else math.inf
    waiting.sort(key=lambda cell: -cell.search.reach)
    for cell in waiting:
        if cell.search.reach < best:
            break
        _search(cell, score_fn(cell))
        best = max(best, cell.search.score)
    win = max(cover.cells, key=lambda cell: cell.search.score)  # the first of largest
    return win, win.search.x


def _observe(objective, cell: Cell, x: np.ndarray) -> tuple[float, float]:
    """(y, the stddev at x before the cell's model conditions on (x, y))."""
    if not cell.contains(x):
        raise RuntimeError(f"selected point {x} lies outside its cell")
    y = objective(x)
    return y, cell.model.update(x, y)


def _report(cover: Cover, objective, last) -> tuple[np.ndarray, float, float]:
    """(x+, f(x+), gain summed over the cells): x+ is the first cell's among
    the cells' incumbents of largest mean.  The target is read only where x+
    moved: last is the previous step's (x+, f(x+)), or None, and where x+
    has its x+'s bytes, its f(x+) is kept.  One pass over the cells, the
    gains summed in cover order."""
    best, gain = None, 0.0
    for c in cover.cells:
        gain += c.model.accumulated_info_gain()
        b = c.model.incumbent()
        if b is not None and (best is None or b[1] > best[1]):
            best = b
    x_plus = best[0]
    if last is not None and last[0].tobytes() == x_plus.tobytes():
        return x_plus, last[1], gain
    return x_plus, float(objective.target(x_plus)), gain


def run(config: RunConfig, objective, true_optimum: float) -> RunTrace:
    """Run config.algorithm for config.horizon_T steps on its cover, one call
    per phase a step: _select, _observe, split_pass (not for GP-EI) and
    _report.  A cell's EI incumbent and its candidate for x+ are both its
    GpModel.incumbent(), computed once per model version in O(n)."""
    d = objective.dim
    rng = np.random.default_rng(config.seed)
    splits = config.algorithm != ALG_GP_EI
    if splits:
        cover = initial_cover(d, config.horizon_T, config.kernel, config.lam)
    else:  # one cell over the unit box, without split constants
        cell = Cell(np.zeros(d), np.ones(d), GpModel(config.kernel, config.lam))
        cover = Cover([cell], math.nan, math.nan)
    trace = RunTrace(config.algorithm, config.seed, d)
    trace.cover_q = cover.q
    cum_regret, gain, last = 0.0, 0.0, None
    for t in range(1, config.horizon_T + 1):
        t0 = time.perf_counter()
        omega_t = _omega(config, gain)
        win_cell, x_t = _select(config, cover, omega_t, rng)
        y_t, sigma_sel = _observe(objective, win_cell, x_t)
        if splits:
            split_pass(cover)
        x_plus, f_plus, gain = _report(cover, objective, last)
        last = x_plus, f_plus
        regret = true_optimum - f_plus
        cum_regret += regret
        trace.sum_sigma_selected += sigma_sel
        trace.rows.append(TraceRow(
            t=t, x=x_t, y=y_t, x_plus=x_plus, f_at_x_plus=f_plus,
            instantaneous_regret=regret, cumulative_regret=cum_regret,
            omega=omega_t, info_gain=gain, cell_count=cover.cell_count,
            wallclock_ms=1e3 * (time.perf_counter() - t0),
        ))
    trace.final_info_gain = gain
    trace.max_cell_info_gain = max(c.model.accumulated_info_gain() for c in cover.cells)
    trace.total_cells_created = cover.total_created
    return trace
