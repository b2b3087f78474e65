"""GP-EI against a naive reference loop, teacher-forced.

The reference shares nothing with gp, acquisition or optimizers beyond
search_draw's draw protocol, and takes kernel values from
kernels.cross_matrix.  At every score call it solves K + lam I with
np.linalg.solve on the history so far; it scores EI as
u Phi(u/v) + v phi(u/v) with scipy.stats.norm against the largest dense
mean at the sampled points, with omega fixed or from its own log-det gain
(theory_ei); and it searches a step's draw with every candidate and sampled
point scored, then one refinement round per call, each round centred on the
best point so far with its probes clamped to the unit box.

It is fed the library's (x_t, y_t) and draws from default_rng(seed) in the
library's order, one draw a step.  On each step's draw, the reference's best
EI and its EI at the library's x_t must agree to 1e-9 relative.

The two loops' scores differ by rounding, so their search paths may part
where the reference picks between two points whose scores lie within 1e-9
relative of each other: a near-tie.  Ties of points less than SEPARATION
apart are the late rounds' own, whose probes lie within 0.25 * 2^-r of their
centre, and are not counted; nor are passes whose scores are all equal, such
as the prior's flat EI, where both loops take the first point.  The count
over all runs is bounded, from its value of 25 when the bound was set."""

import functools
import itertools
import math

import numpy as np
import pytest
from scipy.stats import norm

from gpbandit.kernels import MATERN, KernelSpec, cross_matrix
from gpbandit.optimizers import (ALG_GP_EI, OMEGA_FIXED, OMEGA_THEORY_EI, RunConfig, run,
                                 search_draw)
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
