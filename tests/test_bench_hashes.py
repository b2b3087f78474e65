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
    "gp_ei_h3": "5e252e9157d833c18baa03d52e9e646e9d572cac671db72928210e8450205b18",
    "cover_ei_h3": "4c8f37bedb7729b81fa0cc927db3339430677a3107fea3f2023fa100388de3f9",
    "cover_ucb_rkhs2": "54083271b9fec2e531eda04854bc3354e6dd7ee9901da947aeebd10171991363",
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
