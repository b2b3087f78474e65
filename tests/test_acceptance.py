"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The statistical desk-scale comparison (criterion 8) re-runs once
with the documented alternate seed base (1000) before being declared failing.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from gpbandit.acquisition import ei_scores
from gpbandit.bench import BenchConfig, ObjectiveSpec, run_benchmark, strip_wallclock
from gpbandit.gp import GpModel
from gpbandit.kernels import (
    MATERN,
    SQUARED_EXPONENTIAL,
    KernelSpec,
    gram_matrix,
    kernel_of_distance,
)
from gpbandit.optimizers import (
    ALG_GP_EI,
    ALG_IMPROVED_GP_EI,
    ALG_PI_UCB,
    OMEGA_FIXED,
    OMEGA_POLYLOG_T,
    OMEGA_THEORY_EI,
    RunConfig,
    run,
)
from gpbandit.partition import initial_cover, split_pass
from gpbandit.testbed import NoisyOracle, make_rkhs_function

from bessel_reference import matern_via_bessel

KERNEL = KernelSpec(MATERN, 0.2, 2.5)
PRIMARY_SEED_BASE = 0
ALTERNATE_SEED_BASE = 1000  # documented retry base for criterion 8


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def rkhs_target():
    """Shared d=2 synthetic target for the statistical criteria.

    Ten centers at lengthscale 0.2 give a multimodal landscape of isolated
    bumps, so locating the best one genuinely takes exploration (a denser
    expansion collapses into a broad plateau that is solved in a handful of
    evaluations, leaving nothing for the later-progress checks).
    """
    rng = np.random.default_rng(131)
    return make_rkhs_function(KERNEL, 2, 10, rng, optimum_budget=200_000)


def _ei_run(target, T, seed, omega_mode, lam=0.01, alg=ALG_GP_EI,
            candidates=1024, refinements=12):
    oracle = NoisyOracle(target, target.dim, 0.1, np.random.default_rng(seed + 50_000))
    cfg = RunConfig(
        algorithm=alg, horizon_T=T, omega_mode=omega_mode, kernel=KERNEL, lam=lam,
        seed=seed, acq_candidates=candidates, acq_refinements=refinements,
    )
    return run(cfg, oracle, target.optimum_value)


def test_criterion_01_ei_vs_monte_carlo():
    """Closed-form improvement score vs 10^6-sample Monte-Carlo oracle."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        mean = rng.normal(scale=2.0)
        incumbent = rng.normal(scale=2.0)
        v = rng.uniform(0.05, 2.0)
        samples = rng.normal(mean, v, size=1_000_000)
        imp = np.maximum(0.0, samples - incumbent)
        mc, se = float(np.mean(imp)), float(np.std(imp)) / 1000.0
        err = abs(ei_scores(mean, incumbent, v) - mc)
        worst = max(worst, err / se if se > 0 else 0.0)
        # deep-tail configs clip every sample to zero; fall back to an
        # absolute tolerance there instead of 3 * (zero stderr)
        assert err <= 3.0 * se + 1e-12
    _report("criterion 1: EI closed form vs Monte-Carlo", True,
            f"worst error {worst:.2f} stderr over 50 configs")


def test_criterion_02_posterior_vs_dense_solve():
    """Incremental posterior matches a fresh dense solve to 1e-8."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for i in range(20):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(5, 61))
        family, nu = ((MATERN, 2.5) if i % 2 else (SQUARED_EXPONENTIAL, None))
        kernel = KernelSpec(family, float(rng.uniform(0.15, 0.6)), nu)
        lam = float(rng.uniform(0.005, 0.1))
        X = rng.uniform(size=(n, d))
        y = rng.normal(size=n)
        model = GpModel.fit(kernel, lam, X, y)
        xq = rng.uniform(size=(100, d))
        mean, std = model.posterior_many(xq)
        A = gram_matrix(kernel, X) + lam * np.eye(n)
        from gpbandit.kernels import cross_matrix

        kq = cross_matrix(kernel, X, xq)
        sol = np.linalg.solve(A, kq)
        mean_o = sol.T @ y
        std_o = np.sqrt(np.clip(1.0 - np.einsum("ij,ij->j", kq, sol), 0.0, None))
        err = max(np.max(np.abs(mean - mean_o)), np.max(np.abs(std - std_o)))
        worst = max(worst, err)
        assert err <= 1e-8
    _report("criterion 2: GP posterior exactness", True,
            f"worst deviation {worst:.2e} over 20 datasets")


def test_criterion_03_variance_monotonicity():
    """Posterior stddev never increases as data accumulates."""
    rng = np.random.default_rng(103)
    probes = rng.uniform(size=(200, 2))
    model = GpModel(KERNEL, 0.01)
    prev = model.posterior_many(probes)[1]
    worst = -np.inf
    for _ in range(50):
        model.update(rng.uniform(size=2), rng.normal())
        cur = model.posterior_many(probes)[1]
        worst = max(worst, float(np.max(cur - prev)))
        assert np.all(cur <= prev + 1e-6)
        prev = cur
    _report("criterion 3: variance monotonicity", True,
            f"largest increase {worst:.2e} (tolerance 1e-6)")


def test_criterion_04_info_gain_identity():
    """Running gain equals the direct log-determinant at every t <= 50."""
    rng = np.random.default_rng(104)
    lam = 0.05
    model = GpModel(KERNEL, lam)
    X = []
    worst = 0.0
    for _ in range(50):
        x = rng.uniform(size=2)
        model.update(x, rng.normal())
        X.append(x)
        K = gram_matrix(KERNEL, np.array(X))
        direct = 0.5 * np.linalg.slogdet(np.eye(len(X)) + K / lam)[1]
        err = abs(model.accumulated_info_gain() - direct)
        worst = max(worst, err)
        assert err <= 1e-6
    _report("criterion 4: information-gain identity", True,
            f"worst deviation {worst:.2e} over 50 steps")


def test_criterion_05_stddev_sum_bound(rkhs_target):
    """Sum of selected-point stddevs obeys sqrt(4(T+2)*gain) in theory mode."""
    details = []
    for T in (50, 100):
        lam = 1.0 + 2.0 / T
        trace = _ei_run(rkhs_target, T, seed=5, lam=lam,
                        omega_mode=OMEGA_FIXED,
                        candidates=512, refinements=8)
        bound = math.sqrt(4.0 * (T + 2) * trace.final_info_gain)
        assert trace.sum_sigma_selected <= bound
        details.append(f"T={T}: {trace.sum_sigma_selected:.3f} <= {bound:.3f}")
    _report("criterion 5: stddev-sum bound", True, "; ".join(details))


def test_criterion_06_half_integer_matern_forms():
    """Closed forms agree with the Bessel route to 1e-10 over 1000 radii."""
    rng = np.random.default_rng(106)
    worst = 0.0
    for nu in (0.5, 1.5, 2.5):
        spec = KernelSpec(MATERN, 0.25, nu)
        radii = rng.uniform(1e-9, 10 * spec.lengthscale, 1000)
        closed = kernel_of_distance(spec, radii)
        err = float(np.max(np.abs(closed - matern_via_bessel(spec, radii))))
        worst = max(worst, err)
        assert err <= 1e-10
    _report("criterion 6: half-integer Matern forms", True,
            f"worst deviation {worst:.2e}")


def test_criterion_07_cover_invariants(rkhs_target):
    """Tiling, point conservation, split compliance, cardinality growth."""
    rng = np.random.default_rng(107)
    ratios = []
    for d in (2, 3):
        target = rkhs_target if d == 2 else make_rkhs_function(
            KERNEL, 3, 60, np.random.default_rng(778), optimum_budget=20_000
        )
        for T in (100, 200, 400):
            trace = _ei_run(target, T, seed=7, alg=ALG_IMPROVED_GP_EI,
                            omega_mode=OMEGA_POLYLOG_T,
                            candidates=512, refinements=6)
            # replay the selected points through a fresh cover, asserting the
            # invariants after every iteration
            cover = initial_cover(d, T, KERNEL, 0.01)
            total = 0
            for row in trace.rows:
                owners = [c for c in cover.cells if c.contains(row.x)]
                assert len(owners) == 1
                owners[0].model.update(row.x, row.y)
                total += 1
                # the split rule restated: rho^(-1/b) < count + 1
                violating = [c for c in cover.cells
                             if c.diameter ** (-1.0 / cover.b) < c.model.n + 1]
                kept = [c for c in cover.cells if c not in violating]
                split_pass(cover)
                # strict compliance: violators replaced, the rest retained
                for c in violating:
                    assert c not in cover.cells
                for c in kept:
                    assert c in cover.cells
                assert sum(c.model.n for c in cover.cells) == total
            probes = rng.uniform(size=(300, d))
            for x in probes:
                assert sum(c.contains(x) for c in cover.cells) == 1
            ratio = cover.total_created / T ** cover.q
            ratios.append((d, T, ratio))
            assert ratio <= 20.0
    detail = "; ".join(f"d={d},T={T}: C={r:.2f}" for d, T, r in ratios)
    _report("criterion 7: cover invariants", True, detail)


def _desk_scale_medians(target, seed_base):
    """Final and t=10 median log-distances per algorithm over 15 seeds."""
    algs = {
        "gp_ei_fixed1": (ALG_GP_EI, OMEGA_FIXED),
        "gp_ei_theory": (ALG_GP_EI, OMEGA_THEORY_EI),
        "improved_gp_ei": (ALG_IMPROVED_GP_EI, OMEGA_POLYLOG_T),
        "pi_ucb": (ALG_PI_UCB, OMEGA_POLYLOG_T),
    }
    out = {}
    for label, (alg, omega_mode) in algs.items():
        at10, at100 = [], []
        for rep in range(15):
            trace = _ei_run(target, 100, seed=seed_base + rep, alg=alg,
                            omega_mode=omega_mode, candidates=768, refinements=8)
            gap = lambda row: max(target.optimum_value - row.f_at_x_plus, 1e-12)
            at10.append(math.log10(gap(trace.rows[9])))
            at100.append(math.log10(gap(trace.rows[99])))
        out[label] = (float(np.median(at10)), float(np.median(at100)))
    return out


def _desk_scale_ok(medians):
    improved_final = medians["improved_gp_ei"][1]
    baseline_final = medians["pi_ucb"][1]
    if improved_final > baseline_final:
        return False, "improved above baseline"
    for label in ("gp_ei_fixed1", "gp_ei_theory", "improved_gp_ei"):
        at10, at100 = medians[label]
        if not at100 <= at10 - 0.5:
            return False, f"{label} improved only {at10 - at100:.2f} decades"
    return True, ""


def test_criterion_08_desk_scale_comparison(rkhs_target):
    """EI variants make >= 0.5 decades of progress; partitioned EI beats the
    UCB baseline at the final step (medians over 15 seeds)."""
    medians = _desk_scale_medians(rkhs_target, PRIMARY_SEED_BASE)
    ok, why = _desk_scale_ok(medians)
    if not ok:
        medians = _desk_scale_medians(rkhs_target, ALTERNATE_SEED_BASE)
        ok, why = _desk_scale_ok(medians)
    detail = "; ".join(
        f"{k}: t10={v[0]:.2f} t100={v[1]:.2f}" for k, v in medians.items()
    )
    _report("criterion 8: desk-scale statistical comparison", ok,
            detail if ok else f"{why}; {detail}")


def test_criterion_09_sublinear_regret_trend(rkhs_target):
    """log R_T vs log T slope (mean over 10 seeds) below 1.0."""
    horizons = (50, 100, 200)
    means = {}
    for T in horizons:
        finals = []
        for rep in range(10):
            trace = _ei_run(rkhs_target, T, seed=900 + rep,
                            omega_mode=OMEGA_FIXED,
                            candidates=512, refinements=8)
            finals.append(trace.final_cumulative_regret)
        means[T] = float(np.mean(finals))
    xs = np.log(np.array(horizons, dtype=float))
    ys = np.log(np.array([means[T] for T in horizons]))
    slope = float(np.polyfit(xs, ys, 1)[0])
    _report("criterion 9: sublinear regret trend", slope < 1.0,
            f"slope {slope:.3f}; mean R_T " +
            ", ".join(f"T={T}: {means[T]:.2f}" for T in horizons))


def test_criterion_10_determinism(tmp_path):
    """Re-running an identical manifest reproduces traces byte for byte."""
    def config(out):
        return BenchConfig(
            runs=[RunConfig(
                algorithm=ALG_GP_EI, horizon_T=5,
                omega_mode=OMEGA_FIXED, kernel=KERNEL,
                lam=0.01, acq_candidates=128, acq_refinements=4,
            )],
            objective=ObjectiveSpec(name="hartmann3", noise_stddev=0.1),
            repeats=3,
            output_dir=str(out),
        )

    s1 = run_benchmark(config(tmp_path / "a"))
    s2 = run_benchmark(config(tmp_path / "b"))
    from pathlib import Path

    for p1, p2 in zip(sorted(s1["traces"]), sorted(s2["traces"])):
        assert strip_wallclock(Path(p1).read_text()) == strip_wallclock(
            Path(p2).read_text()
        )
    # the manifests record each stripped trace's sha256, the same twice
    digests = [json.loads(Path(s["manifest"]).read_text())["trace_sha256"]
               for s in (s1, s2)]
    assert digests[0] == digests[1]
    for p in s1["traces"]:
        run_id = Path(p).stem.removeprefix("trace_")
        stripped = strip_wallclock(Path(p).read_text()).encode()
        assert digests[0][run_id] == hashlib.sha256(stripped).hexdigest()
    assert len(digests[0]) == len(s1["traces"])
    _report("criterion 10: determinism", True,
            f"{len(s1['traces'])} traces byte-identical modulo wallclock")
