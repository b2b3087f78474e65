"""Sequential run loops: EI on a global GP, EI on an adaptive cover, and the
cover-reusing UCB baseline, plus the inner acquisition maximizer.

Each loop is a single-writer decision process: score candidates, pick the
argmax, observe a noisy value, refresh the model(s), and report the point
whose current posterior mean is largest among everything sampled so far.
Regret rows are exact because the testbed supplies the true optimum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .acquisition import OmegaSchedule, beta_value, ei_scores, omega_at, ucb_score
from .gp import GpModel
from .kernels import KernelSpec
from .partition import Cover, initial_cover, split_pass

ALG_GP_EI = "gp_ei"
ALG_IMPROVED_GP_EI = "improved_gp_ei"
ALG_PI_UCB = "pi_ucb"

_ALGORITHMS = (ALG_GP_EI, ALG_IMPROVED_GP_EI, ALG_PI_UCB)


class AcquisitionNumericsError(ArithmeticError):
    """Score function returned NaN; carries the offending point."""

    def __init__(self, point):
        super().__init__(f"acquisition score is NaN at {point}")
        self.point = np.asarray(point)


@dataclass(frozen=True)
class RunConfig:
    algorithm: str
    horizon_T: int
    omega: OmegaSchedule
    kernel: KernelSpec
    lam: float = 0.01
    delta: float = 0.05
    seed: int = 0
    acq_candidates: int = 4096
    acq_refinements: int = 30
    B: float = 1.0
    R: float = 1.0

    def __post_init__(self):
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm: {self.algorithm!r}")
        if self.horizon_T < 1:
            raise ValueError("horizon must be >= 1")
        if self.acq_candidates < 1:
            raise ValueError("need at least one acquisition candidate")
        if self.algorithm in (ALG_IMPROVED_GP_EI, ALG_PI_UCB):
            if self.kernel.nu is None or not self.kernel.nu > 1:
                raise ValueError("partition-based runs need a Matern kernel with nu > 1")


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
    sigma_at_selected: float = 0.0


@dataclass
class RunTrace:
    algorithm: str
    seed: int
    dim: int
    rows: list[TraceRow] = field(default_factory=list)
    # run-level diagnostics filled by the loops
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


def maximize_acquisition(score_fn, lower, upper, rng: np.random.Generator,
                         n_candidates: int, n_refinements: int,
                         extra_points=None) -> np.ndarray:
    """Random multi-start argmax over a box: uniform candidates plus any
    previously sampled points, then shrinking-radius perturbation rounds.
    Ties go to the first-seen point; deterministic given the rng state."""
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
    return best_x


def _best_sampled_mean(model: GpModel) -> tuple[np.ndarray, float] | None:
    """The sampled point of largest posterior mean, and that mean; None
    before the model has data."""
    if model.n == 0:
        return None
    pts = model.points
    means, _ = model.posterior_many(pts)
    i = int(np.argmax(means))
    return pts[i], float(means[i])


def run_gp_ei(config: RunConfig, objective, true_optimum: float) -> RunTrace:
    """EI with a single global GP over the unit box."""
    if config.algorithm != ALG_GP_EI:
        raise ValueError("config.algorithm must be gp_ei")
    d = objective.dim
    rng = np.random.default_rng(config.seed)
    model = GpModel(config.kernel, config.lam)
    lower, upper = np.zeros(d), np.ones(d)
    trace = RunTrace(config.algorithm, config.seed, d)
    cum_regret = 0.0
    best = None  # _best_sampled_mean(model) of the current model version
    for t in range(1, config.horizon_T + 1):
        t0 = time.perf_counter()
        omega_t = omega_at(config.omega, t, model.accumulated_info_gain())
        sampled = model.points
        incumbent = 0.0 if best is None else best[1]

        def score(xs):
            means, stds = model.posterior_many(xs)
            return ei_scores(means, incumbent, omega_t * stds)

        x_t = maximize_acquisition(
            score, lower, upper, rng, config.acq_candidates,
            config.acq_refinements, extra_points=sampled if model.n else None,
        )
        y_t = objective(x_t)
        sigma_sel = model.update(x_t, y_t)
        best = _best_sampled_mean(model)
        x_plus = best[0]
        f_plus = float(objective.target(x_plus))
        regret = true_optimum - f_plus
        cum_regret += regret
        trace.sum_sigma_selected += sigma_sel
        trace.rows.append(TraceRow(
            t=t, x=x_t, y=y_t, x_plus=x_plus, f_at_x_plus=f_plus,
            instantaneous_regret=regret, cumulative_regret=cum_regret,
            omega=omega_t, info_gain=model.accumulated_info_gain(),
            cell_count=1, wallclock_ms=1e3 * (time.perf_counter() - t0),
            sigma_at_selected=sigma_sel,
        ))
    trace.final_info_gain = model.accumulated_info_gain()
    trace.max_cell_info_gain = model.accumulated_info_gain()
    return trace


def _cell_budget(total_candidates: int, n_cells: int) -> int:
    return max(128, total_candidates // n_cells)


def _run_cover_loop(config: RunConfig, objective, true_optimum: float,
                    cell_score_factory) -> RunTrace:
    """Shared machinery of the partition-based loops.

    cell_score_factory(cell, omega_t, incumbent) returns a vectorized score
    over points of that cell; selection is the global argmax over (cell,
    point).  A cell's acquisition surface depends only on its own model and
    omega_t, so each cell's search result is cached under (model.n, omega_t)
    and a cell is searched again only when that key changes: after it
    receives an observation, when it is newly created by a split, or at every
    step when omega_t moves (theory_ei).  The search budget is left out of
    the key: it sets the effort, not the surface.  Each cell's best posterior
    mean at its sampled points is likewise computed once per model version;
    it is both the cell's EI incumbent and its candidate for the report."""
    d = objective.dim
    rng = np.random.default_rng(config.seed)
    nu = config.kernel.nu
    cover = initial_cover(d, config.horizon_T, config.kernel, config.lam, nu)
    trace = RunTrace(config.algorithm, config.seed, d)
    trace.cover_q = cover.q
    searched = {}  # cell -> ((n, omega_t), score, x)
    best_seen = {}  # cell -> (n, _best_sampled_mean(cell.model))

    def best_mean(cell):
        if cell not in best_seen or best_seen[cell][0] != cell.model.n:
            best_seen[cell] = (cell.model.n, _best_sampled_mean(cell.model))
        return best_seen[cell][1]

    cum_regret = 0.0
    for t in range(1, config.horizon_T + 1):
        t0 = time.perf_counter()
        budget = _cell_budget(config.acq_candidates, cover.cell_count)
        omega_t = cell_score_factory.omega(t, cover)
        winner = None  # (score, cell, x)
        for cell in cover.cells:
            key = (cell.model.n, omega_t)
            if cell not in searched or searched[cell][0] != key:
                best = best_mean(cell)
                score_fn = cell_score_factory(
                    cell, omega_t, 0.0 if best is None else best[1])
                extra = cell.model.points if cell.model.n else None
                x = maximize_acquisition(
                    score_fn, cell.lower, cell.upper, rng, budget,
                    config.acq_refinements, extra_points=extra,
                )
                # keep the point inside the half-open ownership region: an
                # exact hit on a shared upper face would belong to the
                # neighbour cell
                interior_face = cell.upper < 1.0
                x = np.where(
                    interior_face & (x >= cell.upper),
                    np.nextafter(cell.upper, cell.lower),
                    x,
                )
                s = float(np.asarray(score_fn(x[None, :]))[0])
                searched[cell] = (key, s, x)
            _, s, x = searched[cell]
            if winner is None or s > winner[0]:
                winner = (s, cell, x)
        _, win_cell, x_t = winner
        if not win_cell.contains(x_t):
            raise RuntimeError(f"selected point {x_t} lies outside its cell")
        y_t = objective(x_t)
        sigma_sel = win_cell.model.update(x_t, y_t)
        if split_pass(cover, iteration=t + 1):
            for cache in (searched, best_seen):
                for gone in cache.keys() - set(cover.cells):
                    del cache[gone]
        reported = None
        for cell in cover.cells:
            best = best_mean(cell)
            if best is not None and (reported is None or best[1] > reported[1]):
                reported = best
        x_plus = reported[0] if reported is not None else x_t
        f_plus = float(objective.target(x_plus))
        regret = true_optimum - f_plus
        cum_regret += regret
        trace.sum_sigma_selected += sigma_sel
        gain = sum(c.model.accumulated_info_gain() for c in cover.cells)
        trace.rows.append(TraceRow(
            t=t, x=x_t, y=y_t, x_plus=x_plus, f_at_x_plus=f_plus,
            instantaneous_regret=regret, cumulative_regret=cum_regret,
            omega=omega_t, info_gain=gain, cell_count=cover.cell_count,
            wallclock_ms=1e3 * (time.perf_counter() - t0),
            sigma_at_selected=sigma_sel,
        ))
    trace.final_info_gain = sum(c.model.accumulated_info_gain() for c in cover.cells)
    trace.max_cell_info_gain = max(
        c.model.accumulated_info_gain() for c in cover.cells
    )
    trace.total_cells_created = cover.total_created
    return trace


class _EiCellScores:
    """Per-cell EI against the cell's own incumbent mean."""

    def __init__(self, config: RunConfig):
        self.config = config

    def omega(self, t: int, cover: Cover) -> float:
        gain = sum(c.model.accumulated_info_gain() for c in cover.cells)
        return omega_at(self.config.omega, t, gain)

    def __call__(self, cell, omega_t: float, incumbent: float):
        def score(xs):
            means, stds = cell.model.posterior_many(xs)
            return ei_scores(means, incumbent, omega_t * stds)

        return score


class _UcbCellScores:
    """Per-cell UCB with a width driven by the cell's own information gain."""

    def __init__(self, config: RunConfig):
        self.config = config

    def omega(self, t: int, cover: Cover) -> float:
        return 1.0  # UCB has no global scale; column kept for the trace

    def __call__(self, cell, omega_t: float, incumbent: float):
        beta = beta_value(
            self.config.B, self.config.R,
            cell.model.accumulated_info_gain(), self.config.delta,
        )

        def score(xs):
            means, stds = cell.model.posterior_many(xs)
            return ucb_score(means, stds, beta)

        return score


def run_improved_gp_ei(config: RunConfig, objective, true_optimum: float) -> RunTrace:
    """EI over an adaptive hypercube cover with independent per-cell GPs."""
    if config.algorithm != ALG_IMPROVED_GP_EI:
        raise ValueError("config.algorithm must be improved_gp_ei")
    return _run_cover_loop(config, objective, true_optimum, _EiCellScores(config))


def run_pi_ucb_baseline(config: RunConfig, objective, true_optimum: float) -> RunTrace:
    """UCB baseline reusing the same cover machinery."""
    if config.algorithm != ALG_PI_UCB:
        raise ValueError("config.algorithm must be pi_ucb")
    return _run_cover_loop(config, objective, true_optimum, _UcbCellScores(config))


def run(config: RunConfig, objective, true_optimum: float) -> RunTrace:
    """Dispatch on config.algorithm."""
    if config.algorithm == ALG_GP_EI:
        return run_gp_ei(config, objective, true_optimum)
    if config.algorithm == ALG_IMPROVED_GP_EI:
        return run_improved_gp_ei(config, objective, true_optimum)
    return run_pi_ucb_baseline(config, objective, true_optimum)
