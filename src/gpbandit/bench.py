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
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .kernels import KernelSpec
from .optimizers import (
    ALG_GP_EI,
    ALG_IMPROVED_GP_EI,
    ALG_PI_UCB,
    OMEGA_FIXED,
    OMEGA_POLYLOG_T,
    OMEGA_THEORY_EI,
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

# the run with seed s draws its observation noise from a generator seeded
# NOISE_SEED_OFFSET + s, apart from its own search stream
NOISE_SEED_OFFSET = 10_000


@dataclass
class ObjectiveSpec:
    """Testbed selection: a named standard function or a saved kernel target."""

    name: str = "hartmann3"  # standard-function name, or "rkhs"
    rkhs_file: str | None = None
    noise_stddev: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.noise_stddev) and self.noise_stddev >= 0):
            raise ValueError(f"noise stddev must be finite and >= 0, got {self.noise_stddev}")
        if self.name == "rkhs" and self.rkhs_file is None:
            raise ValueError("rkhs objective needs a target file")
        if self.name != "rkhs" and self.rkhs_file is not None:
            raise ValueError(f"rkhs_file needs objective rkhs, got {self.name!r}")

    def build(self):
        """Returns (target callable, dim, true optimum)."""
        if self.name == "rkhs":
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
    output_dir: str = "bench_out"
    jobs: int = 1

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.seed_base < 0:
            raise ValueError(f"seed_base must be >= 0, got {self.seed_base}")
        labels = [run_label(run_cfg) for run_cfg in self.runs]
        for label in labels:
            if labels.count(label) > 1:
                raise ValueError(f"two runs share the label {label!r}")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _log_distance(true_opt: float, f: float) -> float:
    """log10 of the distance to the optimum, floored at LOG_DISTANCE_FLOOR."""
    return math.log10(max(true_opt - f, LOG_DISTANCE_FLOOR))


def trace_csv_lines(trace: RunTrace, run_id: str, true_optimum: float) -> list[str]:
    lines = [CSV_HEADER]
    for row in trace.rows:
        coords = ";".join(_fmt(c) for c in row.x)
        lines.append(",".join([
            run_id,
            trace.algorithm,
            str(trace.seed),
            str(row.t),
            coords,
            _fmt(row.y),
            _fmt(row.f_at_x_plus),
            _fmt(_log_distance(true_optimum, row.f_at_x_plus)),
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
        if config.omega_mode == OMEGA_FIXED:
            return f"gp_ei_fixed{config.omega_c:g}"
        return f"gp_ei_{config.omega_mode}"
    if config.algorithm == ALG_IMPROVED_GP_EI and config.omega_mode == OMEGA_THEORY_EI:
        return "improved_gp_ei_theory_ei"
    return config.algorithm


def _manifest_entry(config: RunConfig) -> dict:
    """Every field of a run config as built, so that a new field enters the
    content hash, less the seed: each job's is seed_base + repeat."""
    entry = asdict(config)
    del entry["seed"]
    entry["label"] = run_label(config)
    return entry


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
    An earlier run's outputs are removed first (remove_outputs), so a
    manifest lists every trace beside it.  Any failure once the output
    directory exists leaves FAILED and no manifest.
    """
    _, _, true_opt = config.objective.build()  # a bad objective writes nothing
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    jobs = []
    for run_cfg in config.runs:
        label = run_label(run_cfg)
        for rep in range(config.repeats):
            seed = config.seed_base + rep
            jobs.append((label, replace(run_cfg, seed=seed), config.objective,
                         NOISE_SEED_OFFSET + seed))

    manifest_path = out / "manifest.json"
    try:
        remove_outputs(out)
        if config.jobs > 1:
            with ProcessPoolExecutor(max_workers=config.jobs) as pool:
                results = list(pool.map(_execute_one, jobs))
        else:
            results = [_execute_one(j) for j in jobs]

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
            "objective": dict(asdict(objective), rkhs_sha256=rkhs_sha256,
                              true_optimum=true_opt),
            "repeats": config.repeats,
            "seed_base": config.seed_base,
            "noise_seed_offset": NOISE_SEED_OFFSET,
            "runs": [_manifest_entry(c) for c in config.runs],
            "clamped_log_rows": clamped_rows,
            "trace_sha256": trace_sha256,
        }
        manifest["content_hash"] = hashlib.sha256(
            json.dumps(manifest, sort_keys=True).encode()
        ).hexdigest()
        tmp = out / "manifest.json.tmp"
        tmp.write_text(json.dumps(manifest, indent=2) + "\n")
        tmp.rename(manifest_path)
    except Exception:
        (out / "FAILED").write_text("benchmark run failed; partial outputs kept\n")
        raise

    return {
        "traces": trace_paths,
        "aggregates": aggregates,
        "manifest": str(manifest_path),
        "by_label": by_label,
        "true_optimum": true_opt,
    }


def remove_outputs(out: Path) -> None:
    """Remove what run_benchmark writes into the directory out: its
    manifest, traces, aggregates and FAILED marker; other files stay."""
    for stale in (out / "manifest.json", out / "FAILED", *out.glob("trace_*.csv"),
                  *out.glob("aggregate_*.csv")):
        stale.unlink(missing_ok=True)


def write_aggregate(traces: list[RunTrace], true_opt: float, path: Path) -> str:
    """Per-t median / mean +- stddev of the log-distance metric and the
    cumulative regret across repeats."""
    T = traces[0].horizon
    lines = [
        "t,log10_distance_median,log10_distance_mean,log10_distance_std,"
        "cum_regret_median,cum_regret_mean,cum_regret_std"
    ]
    for i in range(T):
        logs = sorted(_log_distance(true_opt, tr.rows[i].f_at_x_plus) for tr in traces)
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
class Growth:
    """One run label's regret growth across horizons."""

    slope: float
    degenerate: bool
    mean_final_regret: dict[int, float]
    mean_wallclock_ms: float


@dataclass
class Diagnostics:
    horizons: list[int]
    growth: dict[str, Growth]  # by run label
    sigma_sum_margins: list[float]
    max_cell_info_gain: float
    cover_cardinality_ratio: float

    def as_text(self) -> str:
        lines = ["growth-rate diagnostics", "======================="]
        for label, g in self.growth.items():
            if g.degenerate:
                lines.append(f"[{label}] regret identically zero at some horizon; "
                             "slope degenerate")
            else:
                lines.append(f"[{label}] fitted slope of log R_T vs log T: {g.slope:.4f}")
            for T, regret in g.mean_final_regret.items():
                lines.append(f"  T={T}: mean final cumulative regret {regret:.6g}")
        if self.sigma_sum_margins:
            lines.append(
                "stddev-sum bound margins (bound - sum, >= 0 expected): "
                + ", ".join(f"{m:.4g}" for m in self.sigma_sum_margins)
            )
        lines.append(f"max per-cell info gain: {self.max_cell_info_gain:.6g}")
        lines.append(
            f"cover cardinality / T^q ratio (max over runs): {self.cover_cardinality_ratio:.4g}"
        )
        for label, g in self.growth.items():
            lines.append(f"mean per-iteration wallclock [{label}]: "
                         f"{g.mean_wallclock_ms:.3f} ms")
        return "\n".join(lines) + "\n"


def _growth(traces: list[RunTrace]) -> Growth:
    horizons = sorted({tr.horizon for tr in traces})
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
    wallclock = statistics.fmean(row.wallclock_ms for tr in traces for row in tr.rows)
    return Growth(slope, degenerate, mean_final, wallclock)


def diagnostics_report(by_label: dict[str, list[RunTrace]]) -> Diagnostics:
    """Empirical growth-rate check across horizons plus bound margins.

    Regret growth and wallclock are fitted per run label, each from that
    label's traces alone; every label needs at least two distinct
    horizons."""
    for label, traces in by_label.items():
        if len({tr.horizon for tr in traces}) < 2:
            raise ValueError(
                f"diagnostics need at least two distinct horizons; {label} has fewer")
    traces = [tr for trs in by_label.values() for tr in trs]
    if not traces:
        raise ValueError("diagnostics need at least two distinct horizons")
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
    return Diagnostics(
        horizons=sorted({tr.horizon for tr in traces}),
        growth={label: _growth(trs) for label, trs in by_label.items()},
        sigma_sum_margins=margins,
        max_cell_info_gain=max_cell_gain,
        cover_cardinality_ratio=ratio,
    )


# ---------------------------------------------------------------------------
# flat key=value config files
# ---------------------------------------------------------------------------

# the keys no field default covers: the run list, the horizon, the kernel
# and GP-EI's omega mode
_DEFAULTS = {
    "algorithms": "gp_ei",
    "T": "100",
    "kernel_family": "matern",
    "nu": "2.5",
    "lengthscale": "0.2",
    "omega_mode": OMEGA_FIXED,
}

# every other key: the field it sets, and its type; an unset key leaves
# that field's own default
_FIELDS = {
    "delta": (RunConfig, "delta", float),
    "lambda": (RunConfig, "lam", float),
    "omega_c": (RunConfig, "omega_c", float),
    "acq_candidates": (RunConfig, "acq_candidates", int),
    "acq_refinements": (RunConfig, "acq_refinements", int),
    "B": (RunConfig, "B", float),
    "R": (RunConfig, "R", float),
    "objective": (ObjectiveSpec, "name", str),
    "rkhs_file": (ObjectiveSpec, "rkhs_file", str),
    "noise_stddev": (ObjectiveSpec, "noise_stddev", float),
    "seed_base": (BenchConfig, "seed_base", int),
    "repeats": (BenchConfig, "repeats", int),
    "output_dir": (BenchConfig, "output_dir", str),
    "jobs": (BenchConfig, "jobs", int),
}

# every key a config file or a flag may set, in --help's order
CONFIG_KEYS = tuple(sorted([*_DEFAULTS, *_FIELDS]))


def _convert(key: str, value: str, kind):
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"config key {key!r} needs {kind.__name__}, got {value!r}") from None


def load_config_file(path) -> dict[str, str]:
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key: {key!r}")
        if key in values:  # a later line would win silently
            raise ValueError(f"config key {key!r} is given more than once")
        values[key] = value
    return values


def build_bench_config(values: dict[str, str]) -> BenchConfig:
    cfg = dict(_DEFAULTS)
    for key, value in values.items():
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key: {key!r}")
        if value is None:  # not given
            continue
        if not value.strip():  # the default would stand in for it unseen
            raise ValueError(f"config key {key!r} has an empty value")
        cfg[key] = value
    fields = {RunConfig: {}, ObjectiveSpec: {}, BenchConfig: {}}
    for key, (cls, name, kind) in _FIELDS.items():
        if key in cfg:
            fields[cls][name] = _convert(key, cfg[key], kind)
    family = cfg["kernel_family"]
    kernel = KernelSpec(family, _convert("lengthscale", cfg["lengthscale"], float),
                        _convert("nu", cfg["nu"], float) if family == "matern" else None)
    horizon = _convert("T", cfg["T"], int)
    runs = []
    for alg in (a.strip() for a in cfg["algorithms"].split(",")):
        if alg == ALG_GP_EI:
            mode = cfg["omega_mode"]
        elif alg == "gp_ei_theory":  # convenience alias
            alg, mode = ALG_GP_EI, OMEGA_THEORY_EI
        elif alg == "improved_gp_ei_theory":  # the same for Improved GP-EI
            alg, mode = ALG_IMPROVED_GP_EI, OMEGA_THEORY_EI
        elif alg in (ALG_IMPROVED_GP_EI, ALG_PI_UCB):
            mode = OMEGA_POLYLOG_T
        else:
            raise ValueError(f"unknown algorithm: {alg!r}")
        runs.append(RunConfig(algorithm=alg, horizon_T=horizon, omega_mode=mode,
                              kernel=kernel, **fields[RunConfig]))
    return BenchConfig(runs=runs, objective=ObjectiveSpec(**fields[ObjectiveSpec]),
                       **fields[BenchConfig])
