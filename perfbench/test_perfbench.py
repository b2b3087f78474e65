"""Tests of the benchmark's own helpers: self time, percentiles, the tracer's
wrapping, and that the benchmark writes the traces `gpbandit run` writes."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import gpbandit
from gpbandit import bench, cli, gp, optimizers
from gpbandit.kernels import KernelSpec
import run
from tracer import Tracer, percentile, self_times, summarize
from workloads import WORKLOADS, bench_config, capture_models, check_run, make_target


def _spans(rows):
    func, parent, start, end, work = (np.array(c) for c in zip(*rows))
    return {"func": func, "parent": parent, "start": start.astype(float),
            "end": end.astype(float), "work": work}


# a.run [0,10] -> b.outer [1,4] -> b.inner [2,3]; a.run -> b.inner [5,9]
SYNTHETIC = _spans([
    (0, -1, 0, 10, 0),
    (1, 0, 1, 4, 0),
    (2, 1, 2, 3, 5),
    (2, 0, 5, 9, 7),
])
NAMES = ["a.run", "b.outer", "b.inner"]


def test_self_time_subtracts_direct_children_only():
    s = SYNTHETIC
    assert self_times(s["parent"], s["start"], s["end"]).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_summarize_counts_work_and_layer_self_time():
    out = summarize(NAMES, SYNTHETIC)
    assert out["b.inner"] == {"calls": 2, "work": 12, "self_s": 5.0, "incl_s": 5.0}
    assert out["a.run"]["self_s"] == 3.0 and out["a.run"]["incl_s"] == 10.0
    assert out["layer:a"]["self_s"] == 3.0
    assert out["layer:b"]["self_s"] == 7.0
    # self times partition the root span
    assert sum(v["self_s"] for k, v in out.items() if k.startswith("layer:")) == 10.0


@pytest.mark.parametrize("q, expected", [(0, 1.0), (50, 2.5), (90, 3.7), (100, 4.0)])
def test_percentile_interpolates_between_ranks(q, expected):
    assert percentile([4.0, 1.0, 3.0, 2.0], q) == pytest.approx(expected)
    assert percentile([4.0, 1.0, 3.0, 2.0], q) == pytest.approx(
        np.percentile([1, 2, 3, 4], q))


def test_percentile_rejects_empty_and_out_of_range():
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_tracer_wraps_at_call_sites_and_restores():
    originals = (gp.cross_matrix, optimizers.ei_scores, optimizers.split_pass,
                 bench.run, gp.GpModel.update, gpbandit.GpModel.fit)
    tracer = Tracer()
    tracer.install()
    try:
        assert gp.cross_matrix is not originals[0]
        assert optimizers.ei_scores is not originals[1]
        assert optimizers.split_pass is not originals[2]
        assert bench.run is not originals[3]
        model = gp.GpModel(KernelSpec("matern", 0.2, 2.5), 0.01)
        model.update(np.array([0.2, 0.4]), 1.0)
        model.update(np.array([0.6, 0.1]), 0.5)
    finally:
        tracer.uninstall()
    assert (gp.cross_matrix, optimizers.ei_scores, optimizers.split_pass,
            bench.run, gp.GpModel.update, gpbandit.GpModel.fit) == originals

    spans = tracer.spans()
    names = [tracer.names[f] for f in spans["func"]]
    # update -> posterior -> posterior_many -> cross_matrix, by parent links
    chain = []
    i = names.index("kernels.cross_matrix")
    while i >= 0:
        chain.append(names[i])
        i = spans["parent"][i]
    assert chain == ["kernels.cross_matrix", "gp.GpModel.posterior_many",
                     "gp.GpModel.posterior", "gp.GpModel.update"]
    out = summarize(tracer.names, spans)
    assert out["gp.GpModel.update"]["calls"] == 2
    # each update reads the posterior at its one new point
    assert out["gp.GpModel.posterior_many"]["work"] == 2
    assert np.all(self_times(spans["parent"], spans["start"], spans["end"]) >= 0)


@pytest.mark.parametrize("name, horizon", [("gp_ei_h3", 3), ("cover_ucb_rkhs2", 16)])
def test_benchmark_writes_the_traces_gpbandit_run_writes(tmp_path, name, horizon):
    w = WORKLOADS[name]
    objective = make_target(w, 5, tmp_path)
    cfg = bench_config(w, objective, 5000, tmp_path / "bench", horizon)
    ours = bench.run_benchmark(cfg)["traces"]

    argv = ["run", "--seed-base", "5000", "--T", str(horizon),
            "--output-dir", str(tmp_path / "cli")]
    for key, value in dict(w.values, **objective).items():
        if key != "T":
            argv += [f"--{key.replace('_', '-')}", value]
    if w.rkhs:
        target = tmp_path / "gen.json"
        assert cli.main(["gen-rkhs", "--dim", "2", "--centers", "30", "--seed", "5",
                         "--out", str(target)]) == 0
        assert target.read_bytes() == (tmp_path / "rkhs_s5.json").read_bytes()
    assert cli.main(argv) == 0
    theirs = sorted((tmp_path / "cli").glob("trace_*.csv"))
    assert [p.name for p in theirs] == [p.rsplit("/", 1)[-1] for p in ours]
    for a, b in zip(ours, theirs):
        with open(a) as fa:
            assert bench.strip_wallclock(fa.read()) == bench.strip_wallclock(b.read_text())


def test_check_run_counts_cells_independently_of_the_cover(tmp_path):
    w = WORKLOADS["cover_ei_h3"]
    cfg = bench_config(w, make_target(w, 1, tmp_path), 1000, tmp_path / "run", 16)
    with capture_models() as captured:
        summary = bench.run_benchmark(cfg)
    (trace,) = summary["by_label"]["improved_gp_ei"]
    csv_text = Path(summary["traces"][0]).read_text()
    args = (csv_text, captured, 16, trace.dim)
    assert captured.cells_constructed == trace.total_cells_created > 1
    assert check_run(*args, trace.total_cells_created) == []
    assert any("cells created" in f for f in check_run(*args, trace.total_cells_created + 1))


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    record = {"steps": 1, "cells_final": 1, "cells_created": 1, "bytes_written": 1}
    metrics = run.layer_metrics({}, record, 1.0, 1.0, 0.0)
    assert [(k, u) for k, (_, u) in metrics.items()] == [
        (m["name"], m["unit"]) for m in spec["per_layer"]]
