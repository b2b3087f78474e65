"""The benchmark's workloads, their inputs, and the checks on their outputs.

Each workload is a flat `gpbandit run` config (the same key=value strings the
CLI accepts) that `gpbandit.bench.build_bench_config` turns into the config
`run_benchmark` executes, so the benchmark runs the shipped path.  Runs are
closed-loop: one caller, one single-seed run at a time.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gpbandit import bench, optimizers, partition, testbed
from gpbandit.kernels import KernelSpec

# rkhs targets, as `gpbandit gen-rkhs --dim 2 --centers 30 --seed <seed>`
RKHS_DIM = 2
RKHS_CENTERS = 30
RKHS_KERNEL = ("matern", 0.2, 2.5)
RKHS_OPTIMUM_BUDGET = 50_000

REGRET_FLOOR = -1e-9  # instantaneous regret against the certified optimum
INFO_GAIN_TOL = 1e-6  # |running gain - log-det gain| per cell, as criterion 4


@dataclass(frozen=True)
class Workload:
    name: str
    values: dict[str, str]
    rkhs: bool = False

    @property
    def horizon(self) -> int:
        return int(self.values["T"])


# Horizons are the shortest that keep each workload's character, so that a
# run of --seconds holds many runs and their median rides out machine noise.
WORKLOADS = {
    w.name: w for w in (
        # One global GP grows to n=T and each posterior call scores ~128
        # points, so bulk kernel evaluation dominates; a per-cell search cache
        # cannot help because the one cell changes every step.
        Workload("gp_ei_h3", {"algorithms": "gp_ei", "omega_mode": "fixed",
                              "omega_c": "1", "objective": "hartmann3", "T": "100"}),
        # Improved GP-EI (polylog_t omega) ends with ~36 cells and scores ~11
        # points per posterior call: per-call overhead and re-searching
        # unchanged cells dominate.
        Workload("cover_ei_h3", {"algorithms": "improved_gp_ei",
                                 "objective": "hartmann3", "T": "20"}),
        # pi-GP-UCB: UCB scoring instead of EI, fewer and larger cells, and a
        # target, generated from each run's seed, whose generation and
        # certification are set-up work.
        Workload("cover_ucb_rkhs2", {"algorithms": "pi_ucb", "objective": "rkhs",
                                     "T": "50"}, rkhs=True),
    )
}


def make_target(workload: Workload, seed: int, out_dir: Path) -> dict[str, str]:
    """Generate and load the workload's target; returns the objective flags.

    The rkhs target is generated the way `gpbandit gen-rkhs` makes it, saved,
    and loaded back, so its file is what `gpbandit run` reads."""
    if not workload.rkhs:
        bench.ObjectiveSpec(workload.values["objective"]).build()
        return {}
    kernel = KernelSpec(*RKHS_KERNEL)
    f = testbed.make_rkhs_function(
        kernel, RKHS_DIM, RKHS_CENTERS, np.random.default_rng(seed),
        optimum_budget=RKHS_OPTIMUM_BUDGET,
    )
    path = target_path(out_dir, seed)
    f.save(path)
    testbed.RkhsFunction.load(path)
    return {"rkhs_file": str(path)}


def target_path(out_dir: Path, seed: int) -> Path:
    return out_dir / f"rkhs_s{seed}.json"


def bench_config(workload: Workload, objective: dict[str, str], run_seed: int,
                 out_dir: Path, horizon: int | None = None):
    values = dict(workload.values, **objective)
    values.update(seed_base=str(run_seed), output_dir=str(out_dir))
    if horizon is not None:
        values["T"] = str(horizon)
    return bench.build_bench_config(values)


@dataclass
class Captured:
    """What a run leaves behind besides its trace: the models it built, and
    how many cells it constructed."""

    covers: list = field(default_factory=list)
    models: list = field(default_factory=list)
    cells_constructed: int = 0


@contextmanager
def capture_models():
    """Record the cover (cover loops) or global GP (GP-EI) a run creates,
    and count the cells `partition` constructs.

    Patches the two constructors `optimizers` calls for its loop state, each
    called once per run, and `partition.Cell`, called once per cell created,
    a few dozen times per run; the hooks cost nothing measurable."""
    cover_fn, model_cls, cap = optimizers.initial_cover, optimizers.GpModel, Captured()
    cell_cls = partition.Cell

    def initial_cover(*args, **kwargs):
        cap.covers.append(cover_fn(*args, **kwargs))
        return cap.covers[-1]

    def gp_model(*args, **kwargs):
        cap.models.append(model_cls(*args, **kwargs))
        return cap.models[-1]

    def cell(*args, **kwargs):
        cap.cells_constructed += 1
        return cell_cls(*args, **kwargs)

    optimizers.initial_cover, optimizers.GpModel = initial_cover, gp_model
    partition.Cell = cell
    try:
        yield cap
    finally:
        optimizers.initial_cover, optimizers.GpModel = cover_fn, model_cls
        partition.Cell = cell_cls


def parse_trace(csv_text: str) -> list[list[float]]:
    """Numeric fields of each trace row: x coords, then y .. wallclock_ms."""
    rows = []
    for line in csv_text.splitlines()[1:]:
        fields = line.split(",")
        rows.append([float(c) for c in fields[4].split(";")]
                    + [float(v) for v in fields[5:]])
    return rows


def check_run(csv_text: str, captured: Captured, horizon: int, dim: int,
              total_cells_created: int) -> list[str]:
    """Correctness checks on one finished run; returns the failures found."""
    failures = []
    rows = parse_trace(csv_text)
    if len(rows) != horizon:
        failures.append(f"trace has {len(rows)} rows, expected {horizon}")
    if not all(math.isfinite(v) for row in rows for v in row):
        failures.append("trace holds a non-finite value")
    # columns after the x coords: y, f_best, log10_distance, instant_regret,
    # cum_regret, omega_t, info_gain, cell_count, wallclock_ms
    worst = min((row[dim + 3] for row in rows), default=0.0)
    if worst < REGRET_FLOOR:
        failures.append(f"instantaneous regret {worst:.3g} below {REGRET_FLOOR}")
    if captured.covers:
        cells = [c.model for c in captured.covers[-1].cells]
        created = captured.cells_constructed
    else:  # GP-EI: one global GP, counted as one cell
        cells = captured.models
        created = len(cells)
    if rows and int(rows[-1][dim + 7]) != len(cells):
        failures.append(
            f"trace ends with {int(rows[-1][dim + 7])} cells, cover has {len(cells)}")
    if total_cells_created != created:
        failures.append(
            f"trace counts {total_cells_created} cells created, {created} were constructed")
    for i, model in enumerate(cells):
        gap = abs(model.accumulated_info_gain() - model.log_det_info_gain())
        if not gap <= INFO_GAIN_TOL:
            failures.append(f"cell {i}: running info gain off log-det by {gap:.3g}")
    return failures
