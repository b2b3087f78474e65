"""The benchmark workloads' seed-0 runs, held to their stripped-trace hashes.

Each workload of perfbench/workloads.py is built as the benchmark builds it
(its values through bench.build_bench_config, its rkhs target generated from
the run's seed) and run once through bench.run_benchmark; the sha256 of its
trace with the wallclock column removed must not move.  A change that is
meant to keep every trajectory keeps these; one that moves them re-pins them
with its reasons."""

import hashlib
import sys
from pathlib import Path

import pytest

from gpbandit import bench

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS, bench_config, make_target  # noqa: E402

SEED0_TRACE_SHA256 = {
    "gp_ei_h3": "b2bb4eb5f1c291d5e20da7696d5ef0d9ca329fbd153d155665065f7d894b58e3",
    "cover_ei_h3": "4c8f37bedb7729b81fa0cc927db3339430677a3107fea3f2023fa100388de3f9",
    "cover_ucb_rkhs2": "66c4003818d9c3cab5e7549b71ceade16477d27ac9a86670c60469cd6f675aac",
}


def test_every_workload_is_pinned():
    assert sorted(SEED0_TRACE_SHA256) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(SEED0_TRACE_SHA256))
def test_seed0_stripped_trace_hash(name, tmp_path):
    workload = WORKLOADS[name]
    cfg = bench_config(workload, make_target(workload, 0, tmp_path), 0, tmp_path / "run")
    summary = bench.run_benchmark(cfg)
    [path] = summary["traces"]
    stripped = bench.strip_wallclock(Path(path).read_text())
    assert hashlib.sha256(stripped.encode()).hexdigest() == SEED0_TRACE_SHA256[name]
