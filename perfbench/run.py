"""Benchmark of the gpbandit run loops.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src/`.
Each workload drives single-seed runs through `gpbandit.bench.run_benchmark`,
the path `gpbandit run` takes, one after another in this process, with BLAS
pinned to one thread.

--trace 0  times runs for S seconds with tracing off and reports the
           end-to-end metrics: setup_s (median of several complete set-ups,
           each in a new interpreter), run_s (median over runs),
           step_ms.p50 and step_ms.p90 (over the steps of all runs), and
           peak_rss_mb (this process, which runs the loops; generated
           targets are made in child processes).  Times are corrected
           for the machine's speed at the moment (see calibrate.py); the
           measured ones are kept in the result file.
--trace 1  runs one seed four times, untraced and traced in turn, and reports
           per-layer metrics from the first traced run.  The two traced runs
           must repeat every count exactly, and all four must write the same
           trace.

Every run is checked after it ends, outside the timed region; a run that
raises or fails a check counts in "failed".  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Provenance, per-run
trace hashes and final regrets go to perfbench/out/result_*.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# The workloads factor and solve matrices of at most T rows, where extra BLAS
# threads add scheduling noise rather than speed.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 9
# A complete set-up for each seed given: imports, target generation and
# loading, config building.  Prints the target-generation seconds per seed.
SETUP_CODE = """
import json, sys, time
from pathlib import Path
root, name, out = sys.argv[1], sys.argv[2], Path(sys.argv[3])
sys.path[:0] = [root + "/src", root + "/perfbench"]
from workloads import WORKLOADS, bench_config, make_target
w, gen_s = WORKLOADS[name], {}
for seed in map(int, sys.argv[4:]):
    t0 = time.perf_counter()
    objective = make_target(w, seed, out)
    gen_s[seed] = time.perf_counter() - t0
    bench_config(w, objective, seed, out / "run")
print(json.dumps(gen_s))
"""
TARGET_BATCH = 8  # generated targets made per set-up process
WARMUP_HORIZON = 16  # the smallest horizon polylog_t accepts
SEEDS_PER_WORKLOAD_SEED = 1000


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gpbandit

    if Path(gpbandit.__file__).resolve().parent != src / "gpbandit":
        raise ImportError(f"gpbandit imported from {gpbandit.__file__}, not {src}")
    return gpbandit


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def provenance(np, scipy) -> dict:
    def blas(mod):
        deps = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"

    git = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gpbandit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "git_commit": git,
        "src_sha256": digest.hexdigest(),
        "loadavg_start": os.getloadavg(),
        "machine": platform.machine(),
    }


class Bench:
    """One workload at one workload seed: set-up, then checked runs."""

    def __init__(self, workload, seed: int, pkg):
        from calibrate import Reference

        self.reference = Reference()
        self.reference.seconds()  # first pass pays scipy's lazy set-up
        self._reference_s = None
        self.w = workload
        self.seed = seed
        self.pkg = pkg
        self.dir = OUT / f"{workload.name}_s{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.records: list[dict] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def speed(self, fresh: bool = False) -> float:
        """REFERENCE_S over the reference's time now; the last one unless
        `fresh`, so back-to-back runs share the reference between them."""
        from calibrate import REFERENCE_S

        if fresh or self._reference_s is None:
            self._reference_s = self.reference.seconds()
        return REFERENCE_S / self._reference_s

    def fail(self, run_seed: int, message: str) -> None:
        self.failed += 1
        self.failures.append(f"run seed {run_seed}: {message}")

    def objective(self, run_seed: int) -> dict[str, str]:
        """Objective flags of a run.  A generated target comes from the run
        seed, so the runs of one measurement average over many targets.
        Targets are generated in batches by set-up processes, so that their
        memory stays out of this process's peak."""
        from workloads import target_path

        if not self.w.rkhs:
            return {}
        path = target_path(self.dir, run_seed)
        if not path.exists():
            self.set_up(range(run_seed, run_seed + TARGET_BATCH))
        return {"rkhs_file": str(path)}

    def set_up(self, seeds) -> dict[int, float]:
        """Set up the runs of `seeds` in a new interpreter, leaving their
        targets in the workload's directory; returns the seconds each
        target took to generate."""
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(ROOT), self.w.name, str(self.dir),
             *map(str, seeds)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        return {int(k): v for k, v in json.loads(proc.stdout.splitlines()[-1]).items()}

    def fresh_set_ups(self) -> list[float]:
        """Seconds (speed-corrected) of complete set-ups of the first run,
        each in a new interpreter."""
        times = []
        for _ in range(SETUP_REPEATS):
            before = self.speed(fresh=True)
            t0 = time.perf_counter()
            try:
                self.set_up([self.run_seed(0)])
            except RuntimeError as err:
                self.fail(self.seed, str(err))
            elapsed = time.perf_counter() - t0
            times.append(elapsed * 0.5 * (before + self.speed(fresh=True)))
        return times

    def run_seed(self, i: int) -> int:
        return self.seed * SEEDS_PER_WORKLOAD_SEED + i

    def run(self, run_seed: int, horizon: int | None = None, tracer=None) -> dict | None:
        """One checked single-seed run; returns its record, None if it failed."""
        from workloads import bench_config, capture_models, check_run

        bench = self.pkg.bench
        self.attempted += 1
        run_dir = self.dir / "run"
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            objective = self.objective(run_seed)
        except Exception:  # a target that cannot be made fails this run only
            self.fail(run_seed, traceback.format_exc())
            return None
        before = self.speed()
        try:
            cfg = bench_config(self.w, objective, run_seed, run_dir, horizon)
            if tracer is not None:
                tracer.install()
            try:
                with capture_models() as captured:
                    t0 = time.perf_counter()
                    summary = bench.run_benchmark(cfg)
                    run_s = time.perf_counter() - t0
            finally:
                if tracer is not None:
                    tracer.uninstall()
            (trace,) = [t for traces in summary["by_label"].values() for t in traces]
            csv_text = Path(summary["traces"][0]).read_text()
            failures = check_run(csv_text, captured, cfg.runs[0].horizon_T,
                                 trace.dim, trace.total_cells_created)
        except Exception:  # a failed run is counted and reported, not fatal
            self.fail(run_seed, traceback.format_exc())
            return None
        finally:
            speed = 0.5 * (before + self.speed(fresh=True))
        if failures:
            self.fail(run_seed, "; ".join(failures))
            return None
        record = {
            "run_seed": run_seed,
            "run_s": run_s * speed,
            "run_s_measured": run_s,
            "speed": speed,
            "step_ms": [row.wallclock_ms * speed for row in trace.rows],
            "trace_sha256": hashlib.sha256(
                bench.strip_wallclock(csv_text).encode()).hexdigest(),
            "final_cum_regret": trace.final_cumulative_regret,
            "cells_final": trace.rows[-1].cell_count,
            "cells_created": trace.total_cells_created,
            "steps": trace.horizon,
            "bytes_written": sum(p.stat().st_size for p in run_dir.iterdir()),
        }
        if horizon is None:
            self.records.append(record)
        return record


def measure(b: Bench, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics from untraced runs for `seconds` of wall time."""
    from tracer import percentile

    setup = b.fresh_set_ups()
    b.run(b.run_seed(0), horizon=WARMUP_HORIZON)
    t_begin = time.perf_counter()
    i = 0
    while True:
        b.run(b.run_seed(i))
        i += 1
        done = [r["run_s_measured"] for r in b.records]
        expected = statistics.median(done) if done else 0.0
        if time.perf_counter() - t_begin + expected > seconds:
            break
    if not b.records:
        return {}, {}
    steps = [ms for r in b.records for ms in r["step_ms"]]
    run_s = [r["run_s"] for r in b.records]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(run_s), "s"),
        "step_ms.p50": (percentile(steps, 50), "ms"),
        "step_ms.p90": (percentile(steps, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {
        "runs": i,
        "run_s_quartiles": statistics.quantiles(run_s, n=4) if len(run_s) > 1 else run_s,
        "setup_repeats_s": setup,
        "step_samples": len(steps),
    }


def count_view(summary: dict, record: dict) -> dict:
    counts = {name: (s["calls"], s["work"]) for name, s in summary.items() if "calls" in s}
    counts["cells"] = (record["cells_final"], record["cells_created"])
    return counts


def layer_metrics(summary: dict, record: dict, plain_s: float, traced_s: float,
                  target_gen_s: float) -> dict:
    """Per-layer metrics of one traced run, named as in BENCHMARK.json."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def per_call(name):
        calls = get(name, "calls")
        return get(name, "work") / calls if calls else 0.0

    steps = record["steps"]
    searches = get("optimizers.maximize_acquisition", "calls")
    loops = ("optimizers.run", "optimizers.run_gp_ei", "optimizers.run_improved_gp_ei",
             "optimizers.run_pi_ucb_baseline")
    cm, pm = "kernels.cross_matrix", "gp.GpModel.posterior_many"
    # a workload scores with EI or with UCB, never both
    scores = ("acquisition.ei_scores", "acquisition.ucb_score")
    return {
        "kernels.cross_matrix.calls": (get(cm, "calls"), "count"),
        "kernels.cross_matrix.pairs": (get(cm, "work"), "count"),
        "kernels.cross_matrix.pairs_per_call": (per_call(cm), "pairs/call"),
        "kernels.cross_matrix.self_s": (get(cm, "self_s"), "s"),
        "kernels.self_s": (get("layer:kernels", "self_s"), "s"),
        "gp.posterior_many.calls": (get(pm, "calls"), "count"),
        "gp.posterior_many.points": (get(pm, "work"), "count"),
        "gp.posterior_many.points_per_call": (per_call(pm), "points/call"),
        "gp.posterior_many.self_s": (get(pm, "self_s"), "s"),
        "gp.update.calls": (get("gp.GpModel.update", "calls"), "count"),
        "gp.update.self_s": (get("gp.GpModel.update", "self_s"), "s"),
        "gp.self_s": (get("layer:gp", "self_s"), "s"),
        "acquisition.scores.calls": (sum(get(n, "calls") for n in scores), "count"),
        "acquisition.scores.points": (sum(get(n, "work") for n in scores), "count"),
        "acquisition.self_s": (get("layer:acquisition", "self_s"), "s"),
        "optimizers.maximize_acquisition.calls": (searches, "count"),
        "optimizers.maximize_acquisition.self_s":
            (get("optimizers.maximize_acquisition", "self_s"), "s"),
        "optimizers.cells_searched_per_step": (searches / steps, "cells/step"),
        "optimizers.search_yield": (steps / searches if searches else 0.0, "steps/search"),
        "optimizers.run.self_s": (sum(get(n, "self_s") for n in loops), "s"),
        "optimizers.self_s": (get("layer:optimizers", "self_s"), "s"),
        "partition.cells_final": (record["cells_final"], "count"),
        "partition.cells_created": (record["cells_created"], "count"),
        "testbed.oracle.calls": (get("testbed.NoisyOracle.__call__", "calls"), "count"),
        "testbed.oracle.self_s": (get("testbed.NoisyOracle.__call__", "self_s"), "s"),
        "testbed.target_gen_s": (target_gen_s, "s"),
        "testbed.self_s": (get("layer:testbed", "self_s"), "s"),
        "bench.report_s": (get("bench.run_benchmark", "incl_s")
                           - get("optimizers.run", "incl_s"), "s"),
        "bench.bytes_written": (record["bytes_written"], "B"),
        "bench.self_s": (get("layer:bench", "self_s"), "s"),
        "trace.overhead": (traced_s / plain_s, "ratio"),
    }


def measure_traced(b: Bench) -> tuple[dict, dict]:
    """Per-layer metrics from two traced runs of one seed, each after an
    untraced run of the same seed that is the base of the tracing overhead."""
    from tracer import Tracer, summarize

    seed = b.run_seed(0)
    target_gen_s = b.set_up([seed])[seed]
    b.run(seed, horizon=WARMUP_HORIZON)
    plain, traced, summaries = [], [], []
    tracer = Tracer()
    for k in range(2):
        plain.append(b.run(seed))
        tracer.reset()
        traced.append(b.run(seed, tracer=tracer))
        summaries.append(summarize(tracer.names, tracer.spans()))
        if k == 0:
            tracer.save(b.dir / f"spans_s{seed}.npz")
    if None in plain or None in traced:
        return {}, {}
    if len({r["trace_sha256"] for r in plain + traced}) != 1:
        b.fail(seed, "traced and untraced runs of one seed wrote different traces")
    counts = [count_view(s, r) for s, r in zip(summaries, traced)]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        b.fail(seed, f"counts differ between the two traced runs: {diff}")
    plain_s = statistics.median(r["run_s"] for r in plain)
    traced_s = statistics.median(r["run_s"] for r in traced)
    metrics = layer_metrics(summaries[0], traced[0], plain_s, traced_s, target_gen_s)
    return metrics, {"target_gen_s": target_gen_s,
                     "untraced_run_s": [r["run_s"] for r in plain],
                     "traced_run_s": [r["run_s"] for r in traced]}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:  # before numpy loads; set-up subprocesses inherit it
        os.environ[var] = str(BLAS_THREADS)
    try:
        pkg = _import_package()
        import numpy as np
        import scipy
        from workloads import WORKLOADS
    except ImportError as err:
        print(f"error: cannot import the package from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    prov = provenance(np, scipy)

    b = Bench(WORKLOADS[args.workload], args.seed, pkg)
    if args.trace:
        metrics, detail = measure_traced(b)
    else:
        metrics, detail = measure(b, args.seconds)
    result = {
        "correct": b.failed == 0 and bool(metrics),
        "attempted": max(b.attempted, 1),
        "failed": b.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "horizon": b.w.horizon,
        "config": b.w.values, "provenance": prov, "detail": detail,
        "failures": b.failures,
        "runs": [{k: v for k, v in r.items() if k != "step_ms"} for r in b.records],
        "result": result,
    }
    out = OUT / f"result_{args.workload}_s{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for f in b.failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: details in {out.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
