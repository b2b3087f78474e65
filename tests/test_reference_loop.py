"""GP-EI and pi-GP-UCB against naive reference loops, teacher-forced.

The references share nothing with gp, acquisition, optimizers or partition
beyond search_draw's draw protocol, and take kernel values from
kernels.cross_matrix.  At every score call they solve K + lam I with
np.linalg.solve on the history so far.

GP-EI's reference scores EI as u Phi(u/v) + v phi(u/v) with scipy.stats.norm
against the largest dense mean at the sampled points, with omega fixed or
from its own log-det gain (theory_ei); and it searches a step's draw with
every candidate and sampled point scored, then one refinement round per
call, each round centred on the best point so far with its probes clamped
to the unit box.

pi-GP-UCB's reference keeps its own cover of the unit box: the paper's grid
of floor(T^(q/d)) cells a side, its split rule (a cell of diameter rho and
n points splits into 2^d halves once rho^(-1/b) < n + 1) and half-open
ownership, closed on the domain's upper faces.  Each cell scores UCB
mu + beta sigma by dense solves on its own points, beta from its own
running gain, the sum of 1/2 ln(1 + sigma^2 / lam) over its points in the
order it got them.  At each step every cell whose point count changed, or
that is new, draws with search_draw in cover order and is searched on that
draw at once, as GP-EI's one cell is, in its own box, and a pick on a face
the cell shares with a neighbour is moved in by one ulp and scored again.
The step's best is the first cell's of largest score.

Both are fed the library's (x_t, y_t) and draw from default_rng(seed) in the
library's order.  On each step's draw, the reference's best score and its
score at the library's x_t must agree to 1e-9 relative.

The two loops' scores differ by rounding, so their search paths may part
where the reference picks between two points whose scores lie within 1e-9
relative of each other: a near-tie.  Ties of points less than SEPARATION
apart are the late rounds' own, whose probes lie within 0.25 * 2^-r of their
centre, and are not counted; nor are passes whose scores are all equal, such
as the prior's flat EI, where both loops take the first point; nor, between
cells, ties of cells without data, whose prior scores both loops compute
alike.  Each count over all runs is bounded from its value when the bound
was set: 25 for GP-EI, 14 for pi-GP-UCB."""

import functools
import itertools
import math

import numpy as np
import pytest
from scipy.stats import norm

from gpbandit.kernels import MATERN, KernelSpec, cross_matrix
from gpbandit.optimizers import (ALG_GP_EI, ALG_PI_UCB, OMEGA_FIXED, OMEGA_THEORY_EI,
                                 RunConfig, run, search_draw)
from gpbandit.testbed import NoisyOracle, make_rkhs_function, standard_function

KERNEL = KernelSpec(MATERN, 0.2, 2.5)
LAM, DELTA, T, CANDIDATES, REFINEMENTS = 0.01, 0.05, 20, 256, 30
RTOL = 1e-9
SEPARATION = 1e-4
NEAR_TIES = 40


def target(name, seed):
    if name == "hartmann3":
        f, d, opt, _ = standard_function(name)
        return f, d, opt
    f = make_rkhs_function(KERNEL, 2, 30, np.random.default_rng(500 + seed), optimum_budget=2000)
    return f, 2, f.optimum_value


class Reference:
    """The posterior, incumbent and EI of the data X, y by dense solves."""

    def __init__(self, X, y, omega_mode):
        self.X, self.y = X, y
        n = len(y)
        self.A = cross_matrix(KERNEL, X, X) + LAM * np.eye(n) if n else None
        gain = 0.5 * np.linalg.slogdet(self.A / LAM)[1] if n else 0.0  # 1/2 ln det(I + K/lam)
        self.omega = (1.0 if omega_mode == OMEGA_FIXED
                      else math.sqrt(gain + 1.0 + math.log(1.0 / DELTA)))
        self.incumbent = float(np.max(self.posterior(X)[0])) if n else 0.0

    def posterior(self, xs):
        if not len(self.y):
            return np.zeros(len(xs)), np.ones(len(xs))
        kq = cross_matrix(KERNEL, self.X, xs)
        sol = np.linalg.solve(self.A, np.column_stack([self.y, kq]))
        var = 1.0 - np.einsum("ij,ij->j", kq, sol[:, 1:])
        return kq.T @ sol[:, 0], np.sqrt(np.maximum(var, 0.0))

    def ei(self, xs):
        mean, std = self.posterior(np.atleast_2d(xs))
        u, v = mean - self.incumbent, self.omega * std
        with np.errstate(divide="ignore", invalid="ignore"):
            z = u / v
            return np.where(v > 0, u * norm.cdf(z) + v * norm.pdf(z), np.maximum(u, 0.0))


def near_tie(points, scores, i) -> bool:
    """Whether the pick of points[i], of largest score, is a near-tie."""
    if (scores == scores[i]).all():
        return False
    close = np.abs(scores - scores[i]) <= RTOL * abs(scores[i])
    far = np.sum((points[close] - points[i]) ** 2, axis=1) > SEPARATION**2
    return bool(far.any())


def search(ref, cand_u, probe_u):
    """(best EI, near-ties) of the search of one draw over the unit box."""
    cands = np.vstack([cand_u, ref.X])
    scores = ref.ei(cands)
    i = int(np.argmax(scores))
    best_x, best, ties = cands[i], scores[i], near_tie(cands, scores, i)
    for r, u in enumerate(probe_u):
        step = (2.0 * u - 1.0) * (0.25 * 0.5**r)
        probes = np.minimum(np.maximum(best_x + step, 0.0), 1.0)
        scores = ref.ei(probes)
        i = int(np.argmax(scores))
        ties += near_tie(np.vstack([probes, best_x]), np.append(scores, best), i)
        if scores[i] > best:
            best_x, best = probes[i], scores[i]
    return best, ties


CASES = list(itertools.product(["hartmann3", "rkhs2"], [OMEGA_FIXED, OMEGA_THEORY_EI], range(3)))


@functools.cache
def replay(name, omega_mode, seed):
    """([(t, the reference's best EI, its EI at the library's x_t)], near-ties)
    of a library run of T steps, fed back step by step."""
    f, d, opt = target(name, seed)
    oracle = NoisyOracle(f, d, 0.1, np.random.default_rng(1000 + seed))
    config = RunConfig(algorithm=ALG_GP_EI, horizon_T=T, omega_mode=omega_mode, kernel=KERNEL,
                       lam=LAM, delta=DELTA, seed=seed, acq_candidates=CANDIDATES,
                       acq_refinements=REFINEMENTS)
    rows = run(config, oracle, opt).rows
    X, y = np.array([row.x for row in rows]), np.array([row.y for row in rows])
    rng, steps, ties = np.random.default_rng(seed), [], 0
    for t, row in enumerate(rows):
        cand_u, probe_u = search_draw(rng, CANDIDATES, REFINEMENTS, d)
        ref = Reference(X[:t], y[:t], omega_mode)
        best, step_ties = search(ref, cand_u, probe_u)
        steps.append((t + 1, best, float(ref.ei(row.x)[0])))
        ties += step_ties
    return steps, ties


@pytest.mark.parametrize("case", CASES, ids=lambda case: "-".join(map(str, case)))
def test_steps_agree_with_the_reference(case):
    for t, best, at_x in replay(*case)[0]:
        assert abs(best - at_x) <= RTOL * abs(best), (t, best, at_x)


def test_near_ties_are_few():
    assert sum(replay(*case)[1] for case in CASES) <= NEAR_TIES


# pi-GP-UCB on the d = 2 kernel-expansion targets, at the library's default
# width constants B = R = 1
UCB_T = 30
B = R = 1.0
UCB_NEAR_TIES = 20


class Cell:
    """A box [lower, upper] of the reference cover and the data it owns."""

    def __init__(self, lower, upper):
        self.lower, self.upper = lower, upper
        self.X, self.y = np.zeros((0, len(lower))), np.zeros(0)
        self.gain = 0.0
        self.held = None  # (point count, best score, best x) of its last search

    def owns(self, x) -> bool:
        below = np.where(self.upper >= 1.0, x <= self.upper, x < self.upper)
        return bool(np.all(self.lower <= x) and np.all(below))

    def add(self, x, y):
        _, std = Reference(self.X, self.y, OMEGA_FIXED).posterior(np.atleast_2d(x))
        self.gain += 0.5 * math.log1p(std[0] ** 2 / LAM)
        self.X, self.y = np.vstack([self.X, x]), np.append(self.y, y)

    def ucb(self, xs):
        mean, std = Reference(self.X, self.y, OMEGA_FIXED).posterior(np.atleast_2d(xs))
        beta = B + R * math.sqrt(2.0 * (self.gain + 1.0 + math.log(1.0 / DELTA)))
        return mean + beta * std


def initial_cells(d):
    """The grid of floor(T^(q/d)) cells a side, q = d (d + 1) / (d (d + 2) + 2 nu)."""
    q = d * (d + 1) / (d * (d + 2) + 2.0 * KERNEL.nu)
    m = max(1, math.floor(UCB_T ** (q / d)))
    return [Cell(np.array(i) / m, (np.array(i) + 1.0) / m)
            for i in itertools.product(range(m), repeat=d)]


def split_cells(cells):
    """The cover after one pass of the split rule, b = (d + 1) / (d + 2 nu):
    each cell that breaks it is replaced, in place, by its 2^d halves,
    which take its points in its order; a half is first checked at the
    next pass."""
    d = len(cells[0].lower)
    b = (d + 1) / (d + 2.0 * KERNEL.nu)
    out = []
    for cell in cells:
        if not np.linalg.norm(cell.upper - cell.lower) ** (-1.0 / b) < len(cell.y) + 1:
            out.append(cell)
            continue
        mid = 0.5 * (cell.lower + cell.upper)
        halves = [Cell(np.where(upper, mid, cell.lower), np.where(upper, cell.upper, mid))
                  for upper in itertools.product((False, True), repeat=d)]
        for x, y in zip(cell.X, cell.y):
            next(half for half in halves if half.owns(x)).add(x, y)
        out += halves
    return out


def ucb_search(cell, cand_u, probe_u):
    """(best UCB, its point, near-ties) of the search of one draw over the
    cell's box, the pick moved in from a shared upper face."""
    lower, upper = cell.lower, cell.upper
    cands = np.vstack([lower + cand_u * (upper - lower), cell.X])
    scores = cell.ucb(cands)
    i = int(np.argmax(scores))
    best_x, best, ties = cands[i], scores[i], near_tie(cands, scores, i)
    for r, u in enumerate(probe_u):
        step = (2.0 * u - 1.0) * (0.25 * (upper - lower) * 0.5**r)
        probes = np.minimum(np.maximum(best_x + step, lower), upper)
        scores = cell.ucb(probes)
        i = int(np.argmax(scores))
        ties += near_tie(np.vstack([probes, best_x]), np.append(scores, best), i)
        if scores[i] > best:
            best_x, best = probes[i], scores[i]
    shared = (upper < 1.0) & (best_x >= upper)
    if shared.any():
        best_x = np.where(shared, np.nextafter(upper, lower), best_x)
        best = cell.ucb(best_x)[0]
    return best, best_x, ties


@functools.cache
def ucb_replay(seed):
    """([(t, the reference's best UCB, its UCB at the library's x_t, its cell
    count after the step, the library's)], near-ties) of a library pi-GP-UCB
    run of UCB_T steps, fed back step by step."""
    f, d, opt = target("rkhs2", seed)
    oracle = NoisyOracle(f, d, 0.1, np.random.default_rng(1000 + seed))
    config = RunConfig(algorithm=ALG_PI_UCB, horizon_T=UCB_T, omega_mode=OMEGA_FIXED,
                       kernel=KERNEL, lam=LAM, delta=DELTA, seed=seed,
                       acq_candidates=CANDIDATES, acq_refinements=REFINEMENTS, B=B, R=R)
    rows = run(config, oracle, opt).rows
    rng, cells, steps, ties = np.random.default_rng(seed), initial_cells(d), [], 0
    for t, row in enumerate(rows, 1):
        budget = max(min(128, CANDIDATES), CANDIDATES // len(cells))
        for cell in cells:
            if cell.held is None or cell.held[0] != len(cell.y):
                draw = search_draw(rng, budget, REFINEMENTS, d)
                best, x, cell_ties = ucb_search(cell, *draw)
                cell.held = len(cell.y), best, x
                ties += cell_ties
        scores = np.array([cell.held[1] for cell in cells])
        i = int(np.argmax(scores))
        if len(cells[i].y):  # ties among cells without data are exact in both loops
            ties += near_tie(np.array([cell.held[2] for cell in cells]), scores, i)
        owner = next(cell for cell in cells if cell.owns(row.x))
        at_x = float(owner.ucb(row.x)[0])
        owner.add(row.x, row.y)
        cells = split_cells(cells)
        steps.append((t, scores[i], at_x, len(cells), row.cell_count))
    return steps, ties


@pytest.mark.parametrize("seed", range(3))
def test_ucb_steps_agree_with_the_reference(seed):
    for t, best, at_x, cells, library_cells in ucb_replay(seed)[0]:
        assert abs(best - at_x) <= RTOL * abs(best), (t, best, at_x)
        assert cells == library_cells, t


def test_ucb_near_ties_are_few():
    assert sum(ucb_replay(seed)[1] for seed in range(3)) <= UCB_NEAR_TIES
