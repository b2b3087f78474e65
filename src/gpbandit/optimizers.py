"""The sequential run loop and its inner acquisition maximizer.

One loop runs every algorithm on a cover of the unit box with a GP per cell:
GP-EI is EI on one cell that never splits, Improved GP-EI is EI per cell on
the adaptive cover, and pi-GP-UCB scores that cover's cells by UCB.  Each
step searches the cells, observes the argmax, refreshes its cell's model,
applies the split rule, and reports the sampled point of largest current
posterior mean.  Regret rows are exact: the testbed supplies the optimum.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .acquisition import OmegaSchedule, beta_value, ei_scores, omega_at, ucb_score
from .gp import GpModel
from .kernels import KernelSpec
from .partition import Cell, Cover, initial_cover, split_pass

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


def maximize_acquisition(score_fn, lower, upper, rng: np.random.Generator,
                         n_candidates: int, n_refinements: int,
                         extra_points=None) -> tuple[np.ndarray, float]:
    """Random multi-start argmax over a box: uniform candidates plus any
    previously sampled points, then shrinking-radius perturbation rounds.
    Returns the best point and its score.  Ties go to the first-seen point;
    deterministic given the rng state."""
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


def _cell_budget(total_candidates: int, n_cells: int) -> int:
    """Candidates per cell search: an equal share of the total, floored at
    128 but never above the total."""
    return max(min(128, total_candidates), total_candidates // n_cells)


def _omega(config: RunConfig, t: int, cover: Cover) -> float:
    """EI's exploration scale at step t from the gain summed over cells; UCB
    has no global scale, and the trace column reads 1."""
    if config.algorithm == ALG_PI_UCB:
        return 1.0
    gain = sum(c.model.accumulated_info_gain() for c in cover.cells)
    return omega_at(config.omega, t, gain)


def _cell_score(config: RunConfig, model: GpModel, omega_t: float, incumbent: float):
    """Vectorized score over points of one cell with this model: EI against
    the cell's own incumbent mean, or UCB with a width from the cell's gain."""
    if config.algorithm == ALG_PI_UCB:
        beta = beta_value(config.B, config.R, model.accumulated_info_gain(), config.delta)

        def score(xs):
            means, stds = model.posterior_many(xs)
            return ucb_score(means, stds, beta)
    else:
        def score(xs):
            means, stds = model.posterior_many(xs)
            return ei_scores(means, incumbent, omega_t * stds)
    return score


def run(config: RunConfig, objective, true_optimum: float) -> RunTrace:
    """Run config.algorithm for config.horizon_T steps on its cover.

    Selection is the global argmax of the cell scores over (cell, point).  A
    cell's acquisition surface depends only on its own model and omega_t, so
    each cell's search result is cached under (model.n, omega_t) and a cell
    is searched again only when that key changes: after it receives an
    observation, when it is newly created by a split, or at every step when
    omega_t moves (theory_ei).  The search budget is left out of the key: it
    sets the effort, not the surface.  Each cell's best posterior mean at its
    sampled points is likewise computed once per model version; it is both
    the cell's EI incumbent and its candidate for the report."""
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
    searched = {}  # cell -> ((n, omega_t), score, x)
    best_seen = {}  # cell -> (n, best_mean(cell))

    def best_mean(cell):
        """The cell's sampled point of largest posterior mean, and that
        mean; None before the cell has data."""
        model = cell.model
        if cell not in best_seen or best_seen[cell][0] != model.n:
            best = None
            if model.n:
                pts = model.points
                means, _ = model.posterior_many(pts)
                i = int(np.argmax(means))
                best = pts[i], float(means[i])
            best_seen[cell] = (model.n, best)
        return best_seen[cell][1]

    cum_regret = 0.0
    for t in range(1, config.horizon_T + 1):
        t0 = time.perf_counter()
        budget = _cell_budget(config.acq_candidates, cover.cell_count)
        omega_t = _omega(config, t, cover)
        winner = None  # (score, cell, x)
        for cell in cover.cells:
            key = (cell.model.n, omega_t)
            if cell not in searched or searched[cell][0] != key:
                best = best_mean(cell)
                score_fn = _cell_score(config, cell.model, omega_t,
                                       0.0 if best is None else best[1])
                extra = cell.model.points if cell.model.n else None
                x, s = maximize_acquisition(
                    score_fn, cell.lower, cell.upper, rng, budget,
                    config.acq_refinements, extra_points=extra,
                )
                # keep the point inside the half-open ownership region: an
                # exact hit on a shared upper face would belong to the
                # neighbour cell
                clamp = (cell.upper < 1.0) & (x >= cell.upper)
                if clamp.any():
                    x = np.where(clamp, np.nextafter(cell.upper, cell.lower), x)
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
        if splits and split_pass(cover):
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
        ))
    gains = [c.model.accumulated_info_gain() for c in cover.cells]
    trace.final_info_gain, trace.max_cell_info_gain = sum(gains), max(gains)
    trace.total_cells_created = cover.total_created
    return trace
