"""Benchmark harness: repeated seeded runs, CSV traces, aggregates, and the
growth-rate diagnostics report.

Trace CSV schema (one file per algorithm x repeat):

    run_id,algorithm,seed,t,x_coords,y,f_best,log10_distance,instant_regret,
    cum_regret,omega_t,info_gain,cell_count,wallclock_ms

x_coords is semicolon-joined; floats carry 17 significant digits so a
re-run of the same manifest reproduces traces byte for byte (wallclock is the
one column excluded from that comparison).
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .acquisition import OMEGA_FIXED, OMEGA_POLYLOG_T, OMEGA_THEORY_EI, OmegaSchedule
from .kernels import KernelSpec
from .optimizers import (
    ALG_GP_EI,
    ALG_IMPROVED_GP_EI,
    ALG_PI_UCB,
    RunConfig,
    RunTrace,
    run,
)
from .testbed import NoisyOracle, RkhsFunction, standard_function

CSV_HEADER = (
    "run_id,algorithm,seed,t,x_coords,y,f_best,log10_distance,instant_regret,"
    "cum_regret,omega_t,info_gain,cell_count,wallclock_ms"
)

LOG_DISTANCE_FLOOR = 1e-12


@dataclass
class ObjectiveSpec:
    """Testbed selection: a named standard function or a saved kernel target."""

    name: str = "hartmann3"  # standard-function name, or "rkhs"
    rkhs_file: str | None = None
    noise_stddev: float = 0.1

    def build(self):
        """Returns (target callable, dim, true optimum)."""
        if self.name == "rkhs":
            if self.rkhs_file is None:
                raise ValueError("rkhs objective needs a target file")
            f = RkhsFunction.load(self.rkhs_file)
            return f, f.dim, f.optimum_value
        target, d, opt, _ = standard_function(self.name)
        return target, d, opt


@dataclass
class BenchConfig:
    runs: list[RunConfig]
    objective: ObjectiveSpec
    repeats: int = 1
    seed_base: int = 0
    noise_seed_offset: int = 10_000
    output_dir: str = "bench_out"
    jobs: int = 1

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def trace_csv_lines(trace: RunTrace, run_id: str, true_optimum: float) -> list[str]:
    lines = [CSV_HEADER]
    for row in trace.rows:
        gap = true_optimum - row.f_at_x_plus
        log_dist = math.log10(max(gap, LOG_DISTANCE_FLOOR))
        coords = ";".join(_fmt(c) for c in row.x)
        lines.append(",".join([
            run_id,
            trace.algorithm,
            str(trace.seed),
            str(row.t),
            coords,
            _fmt(row.y),
            _fmt(row.f_at_x_plus),
            _fmt(log_dist),
            _fmt(row.instantaneous_regret),
            _fmt(row.cumulative_regret),
            _fmt(row.omega),
            _fmt(row.info_gain),
            str(row.cell_count),
            _fmt(row.wallclock_ms),
        ]))
    return lines


def strip_wallclock(csv_text: str) -> str:
    """Drop the trailing wallclock column for byte-level comparisons."""
    return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.splitlines())


def run_label(config: RunConfig) -> str:
    if config.algorithm == ALG_GP_EI:
        mode = config.omega.mode
        if mode == OMEGA_FIXED:
            return f"gp_ei_fixed{config.omega.c:g}"
        return f"gp_ei_{mode}"
    return config.algorithm


def _execute_one(args) -> tuple[str, int, RunTrace]:
    label, config, objective_spec, noise_seed = args
    target, d, opt = objective_spec.build()
    oracle = NoisyOracle(
        target, d, objective_spec.noise_stddev,
        np.random.default_rng(noise_seed),
    )
    trace = run(config, oracle, opt)
    return label, config.seed, trace


def run_benchmark(config: BenchConfig) -> dict:
    """Execute all (run, repeat) pairs, write traces, aggregates, manifest.

    Returns a summary dict with output paths and per-algorithm aggregates.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _, _, true_opt = config.objective.build()

    jobs = []
    for run_cfg in config.runs:
        label = run_label(run_cfg)
        for rep in range(config.repeats):
            seed = config.seed_base + rep
            noise_seed = config.noise_seed_offset + seed
            jobs.append((label, replace(run_cfg, seed=seed), config.objective, noise_seed))

    failed_marker = out / "FAILED"
    try:
        if config.jobs > 1:
            with ProcessPoolExecutor(max_workers=config.jobs) as pool:
                results = list(pool.map(_execute_one, jobs))
        else:
            results = [_execute_one(j) for j in jobs]
    except Exception:
        failed_marker.write_text("benchmark run failed; partial outputs kept\n")
        raise

    by_label: dict[str, list[RunTrace]] = {}
    trace_paths = []
    trace_sha256 = {}
    clamped_rows = 0
    for label, seed, trace in results:
        run_id = f"{label}_s{seed}"
        text = "\n".join(trace_csv_lines(trace, run_id, true_opt)) + "\n"
        path = out / f"trace_{run_id}.csv"
        path.write_text(text)
        trace_paths.append(str(path))
        trace_sha256[run_id] = hashlib.sha256(strip_wallclock(text).encode()).hexdigest()
        by_label.setdefault(label, []).append(trace)
        clamped_rows += sum(
            1 for row in trace.rows
            if true_opt - row.f_at_x_plus <= LOG_DISTANCE_FLOOR
        )

    aggregates = {}
    for label, traces in by_label.items():
        agg_path = out / f"aggregate_{label}.csv"
        aggregates[label] = write_aggregate(traces, true_opt, agg_path)

    objective = config.objective
    rkhs_sha256 = None
    if objective.name == "rkhs":
        rkhs_sha256 = hashlib.sha256(Path(objective.rkhs_file).read_bytes()).hexdigest()
    manifest = {
        "objective": {
            "name": objective.name,
            "rkhs_file": objective.rkhs_file,
            "rkhs_sha256": rkhs_sha256,
            "noise_stddev": objective.noise_stddev,
            "true_optimum": true_opt,
        },
        "repeats": config.repeats,
        "seed_base": config.seed_base,
        "noise_seed_offset": config.noise_seed_offset,
        "runs": [
            {
                "algorithm": c.algorithm,
                "label": run_label(c),
                "horizon_T": c.horizon_T,
                "omega_mode": c.omega.mode,
                "omega_c": c.omega.c,
                "delta": c.delta,
                "lambda": c.lam,
                "kernel_family": c.kernel.family,
                "kernel_nu": c.kernel.nu,
                "kernel_lengthscale": c.kernel.lengthscale,
                "acq_candidates": c.acq_candidates,
                "acq_refinements": c.acq_refinements,
                "B": c.B,
                "R": c.R,
            }
            for c in config.runs
        ],
        "clamped_log_rows": clamped_rows,
        "trace_sha256": trace_sha256,
    }
    manifest["content_hash"] = hashlib.sha256(
        json.dumps(manifest, sort_keys=True).encode()
    ).hexdigest()
    manifest_path = out / "manifest.json"
    tmp = out / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    tmp.rename(manifest_path)
    failed_marker.unlink(missing_ok=True)  # left by an earlier failed run

    return {
        "traces": trace_paths,
        "aggregates": aggregates,
        "manifest": str(manifest_path),
        "by_label": by_label,
        "true_optimum": true_opt,
    }


def write_aggregate(traces: list[RunTrace], true_opt: float, path: Path) -> str:
    """Per-t median / mean +- stddev of the log-distance metric and the
    cumulative regret across repeats."""
    T = traces[0].horizon
    lines = [
        "t,log10_distance_median,log10_distance_mean,log10_distance_std,"
        "cum_regret_median,cum_regret_mean,cum_regret_std"
    ]
    for i in range(T):
        logs = sorted(
            math.log10(max(true_opt - tr.rows[i].f_at_x_plus, LOG_DISTANCE_FLOOR))
            for tr in traces
        )
        regs = sorted(tr.rows[i].cumulative_regret for tr in traces)
        lines.append(",".join([
            str(i + 1),
            _fmt(statistics.median(logs)),
            _fmt(statistics.fmean(logs)),
            _fmt(statistics.pstdev(logs) if len(logs) > 1 else 0.0),
            _fmt(statistics.median(regs)),
            _fmt(statistics.fmean(regs)),
            _fmt(statistics.pstdev(regs) if len(regs) > 1 else 0.0),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")
    return str(path)


@dataclass
class Diagnostics:
    slope: float
    degenerate: bool
    horizons: list[int]
    mean_final_regret: dict[int, float]
    sigma_sum_margins: list[float]
    max_cell_info_gain: float
    cover_cardinality_ratio: float
    mean_wallclock_ms: dict[str, float] = field(default_factory=dict)

    def as_text(self) -> str:
        lines = ["growth-rate diagnostics", "======================="]
        if self.degenerate:
            lines.append("regret identically zero at some horizon; slope degenerate")
        else:
            lines.append(f"fitted slope of log R_T vs log T: {self.slope:.4f}")
        for T in self.horizons:
            lines.append(f"  T={T}: mean final cumulative regret {self.mean_final_regret[T]:.6g}")
        if self.sigma_sum_margins:
            lines.append(
                "stddev-sum bound margins (bound - sum, >= 0 expected): "
                + ", ".join(f"{m:.4g}" for m in self.sigma_sum_margins)
            )
        lines.append(f"max per-cell info gain: {self.max_cell_info_gain:.6g}")
        lines.append(
            f"cover cardinality / T^q ratio (max over runs): {self.cover_cardinality_ratio:.4g}"
        )
        for label, ms in self.mean_wallclock_ms.items():
            lines.append(f"mean per-iteration wallclock [{label}]: {ms:.3f} ms")
        return "\n".join(lines) + "\n"


def diagnostics_report(traces: list[RunTrace]) -> Diagnostics:
    """Empirical growth-rate check across horizons plus bound margins."""
    horizons = sorted({tr.horizon for tr in traces})
    if len(horizons) < 2:
        raise ValueError("diagnostics need at least two distinct horizons")
    mean_final = {}
    for T in horizons:
        finals = [tr.final_cumulative_regret for tr in traces if tr.horizon == T]
        mean_final[T] = statistics.fmean(finals)
    degenerate = any(v <= 0 for v in mean_final.values())
    if degenerate:
        slope = float("nan")
    else:
        xs = np.log([float(T) for T in horizons])
        ys = np.log([mean_final[T] for T in horizons])
        slope = float(np.polyfit(xs, ys, 1)[0])

    margins = []
    for tr in traces:
        T = tr.horizon
        bound = math.sqrt(4.0 * (T + 2) * tr.final_info_gain)
        margins.append(bound - tr.sum_sigma_selected)

    max_cell_gain = max(tr.max_cell_info_gain for tr in traces)
    ratio = 0.0
    for tr in traces:
        if not math.isnan(tr.cover_q):
            ratio = max(ratio, tr.total_cells_created / tr.horizon ** tr.cover_q)

    wallclock: dict[str, list[float]] = {}
    for tr in traces:
        wallclock.setdefault(tr.algorithm, []).extend(
            row.wallclock_ms for row in tr.rows
        )
    mean_wc = {k: statistics.fmean(v) for k, v in wallclock.items()}

    return Diagnostics(
        slope=slope,
        degenerate=degenerate,
        horizons=horizons,
        mean_final_regret=mean_final,
        sigma_sum_margins=margins,
        max_cell_info_gain=max_cell_gain,
        cover_cardinality_ratio=ratio,
        mean_wallclock_ms=mean_wc,
    )


# ---------------------------------------------------------------------------
# flat key=value config files
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "algorithms": "gp_ei",
    "T": "100",
    "delta": "0.05",
    "lambda": "0.01",
    "kernel_family": "matern",
    "nu": "2.5",
    "lengthscale": "0.2",
    "omega_mode": OMEGA_FIXED,
    "omega_c": "1.0",
    "seed_base": "0",
    "repeats": "1",
    "acq_candidates": "4096",
    "acq_refinements": "30",
    "B": "1.0",
    "R": "1.0",
    "objective": "hartmann3",
    "rkhs_file": "",
    "noise_stddev": "0.1",
    "output_dir": "bench_out",
    "jobs": "1",
}


def load_config_file(path) -> dict[str, str]:
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ValueError(f"unknown config key: {key!r}")
        values[key] = value
    return values


def build_bench_config(values: dict[str, str]) -> BenchConfig:
    cfg = dict(_DEFAULTS)
    cfg.update({k: v for k, v in values.items() if v is not None and v != ""})
    kernel = KernelSpec(
        cfg["kernel_family"],
        float(cfg["lengthscale"]),
        float(cfg["nu"]) if cfg["kernel_family"] == "matern" else None,
    )
    T = int(cfg["T"])
    delta = float(cfg["delta"])

    def schedule(mode: str) -> OmegaSchedule:
        return OmegaSchedule(
            mode=mode, c=float(cfg["omega_c"]), delta=delta,
            horizon_T=T if mode == OMEGA_POLYLOG_T else None,
        )

    runs = []
    for alg in (a.strip() for a in cfg["algorithms"].split(",")):
        if alg == ALG_GP_EI:
            omega = schedule(cfg["omega_mode"])
        elif alg == "gp_ei_theory":  # convenience alias
            alg, omega = ALG_GP_EI, schedule(OMEGA_THEORY_EI)
        elif alg in (ALG_IMPROVED_GP_EI, ALG_PI_UCB):
            omega = schedule(OMEGA_POLYLOG_T)
        else:
            raise ValueError(f"unknown algorithm: {alg!r}")
        runs.append(RunConfig(
            algorithm=alg, horizon_T=T, omega=omega, kernel=kernel,
            lam=float(cfg["lambda"]), delta=delta,
            acq_candidates=int(cfg["acq_candidates"]),
            acq_refinements=int(cfg["acq_refinements"]),
            B=float(cfg["B"]), R=float(cfg["R"]),
        ))
    objective = ObjectiveSpec(
        name=cfg["objective"],
        rkhs_file=cfg["rkhs_file"] or None,
        noise_stddev=float(cfg["noise_stddev"]),
    )
    return BenchConfig(
        runs=runs, objective=objective, repeats=int(cfg["repeats"]),
        seed_base=int(cfg["seed_base"]), output_dir=cfg["output_dir"],
        jobs=int(cfg["jobs"]),
    )
