import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from gpbandit import bench
from gpbandit.acquisition import OMEGA_FIXED, OMEGA_POLYLOG_T, OmegaSchedule
from gpbandit.bench import (
    CSV_HEADER,
    BenchConfig,
    ObjectiveSpec,
    build_bench_config,
    diagnostics_report,
    load_config_file,
    run_benchmark,
    strip_wallclock,
)
from gpbandit.cli import main
from gpbandit.kernels import MATERN, KernelSpec
from gpbandit.optimizers import ALG_GP_EI, ALG_IMPROVED_GP_EI, RunConfig
from gpbandit.testbed import make_rkhs_function


KERNEL = KernelSpec(MATERN, 0.2, 2.5)


def tiny_bench(tmp_path, T=1, repeats=1, algorithms=None, seed_base=0):
    runs = algorithms or [RunConfig(
        algorithm=ALG_GP_EI, horizon_T=T, omega=OmegaSchedule(OMEGA_FIXED, c=1.0),
        kernel=KERNEL, lam=0.01, acq_candidates=64, acq_refinements=2,
    )]
    return BenchConfig(
        runs=runs,
        objective=ObjectiveSpec(name="hartmann3", noise_stddev=0.1),
        repeats=repeats,
        seed_base=seed_base,
        output_dir=str(tmp_path / "out"),
    )


class TestRunBenchmark:
    def test_minimal_run_row_counts(self, tmp_path):
        summary = run_benchmark(tiny_bench(tmp_path, T=1))
        trace = Path(summary["traces"][0]).read_text().splitlines()
        assert trace[0] == CSV_HEADER
        assert len(trace) == 2
        agg = Path(list(summary["aggregates"].values())[0]).read_text().splitlines()
        assert len(agg) == 2

    def test_row_count_equals_horizon(self, tmp_path):
        summary = run_benchmark(tiny_bench(tmp_path, T=4, repeats=2))
        for path in summary["traces"]:
            assert len(Path(path).read_text().splitlines()) == 5

    def test_manifest_written_with_hash(self, tmp_path):
        summary = run_benchmark(tiny_bench(tmp_path))
        manifest = json.loads(Path(summary["manifest"]).read_text())
        assert "content_hash" in manifest
        assert manifest["repeats"] == 1

    def test_content_hash_covers_noise_seed_offset(self, tmp_path):
        # the offset moves every observation, so the traces and the hash
        hashes = []
        for offset in (10_000, 20_000):
            config = tiny_bench(tmp_path / str(offset), T=5)
            config.noise_seed_offset = offset
            manifest = json.loads(Path(run_benchmark(config)["manifest"]).read_text())
            assert manifest["noise_seed_offset"] == offset
            hashes.append(manifest["content_hash"])
        assert hashes[0] != hashes[1]

    def test_content_hash_covers_rkhs_file_bytes(self, tmp_path):
        # the same file name with other contents is another objective
        path = tmp_path / "target.json"
        hashes = []
        for seed in (1, 2):
            make_rkhs_function(KERNEL, 3, 5, np.random.default_rng(seed),
                               optimum_budget=1000).save(path)
            config = tiny_bench(tmp_path / str(seed), T=2)
            config.objective = ObjectiveSpec(name="rkhs", rkhs_file=str(path))
            manifest = json.loads(Path(run_benchmark(config)["manifest"]).read_text())
            expected = hashlib.sha256(path.read_bytes()).hexdigest()
            assert manifest["objective"]["rkhs_sha256"] == expected
            hashes.append(manifest["content_hash"])
        assert hashes[0] != hashes[1]

    def test_rerun_reproduces_traces_modulo_wallclock(self, tmp_path):
        s1 = run_benchmark(tiny_bench(tmp_path / "a", T=3, repeats=2))
        s2 = run_benchmark(tiny_bench(tmp_path / "b", T=3, repeats=2))
        for p1, p2 in zip(sorted(s1["traces"]), sorted(s2["traces"])):
            t1 = strip_wallclock(Path(p1).read_text())
            t2 = strip_wallclock(Path(p2).read_text())
            assert t1 == t2

    def test_parallel_jobs_reproduce_serial_traces(self, tmp_path):
        runs = [
            RunConfig(
                algorithm=ALG_GP_EI, horizon_T=4,
                omega=OmegaSchedule(OMEGA_FIXED, c=1.0), kernel=KERNEL,
                lam=0.01, acq_candidates=64, acq_refinements=2,
            ),
            RunConfig(
                algorithm=ALG_IMPROVED_GP_EI, horizon_T=20,
                omega=OmegaSchedule(OMEGA_POLYLOG_T, horizon_T=20), kernel=KERNEL,
                lam=0.01, acq_candidates=64, acq_refinements=2,
            ),
        ]
        serial = tiny_bench(tmp_path / "serial", repeats=2, algorithms=runs)
        parallel = tiny_bench(tmp_path / "parallel", repeats=2, algorithms=runs)
        parallel.jobs = 2
        s1, s2 = run_benchmark(serial), run_benchmark(parallel)
        names = [Path(p).name for p in s1["traces"]]
        assert names == [Path(p).name for p in s2["traces"]]
        assert len(names) == 4
        for p1, p2 in zip(s1["traces"], s2["traces"]):
            assert strip_wallclock(Path(p1).read_text()) == strip_wallclock(
                Path(p2).read_text()
            )

    def test_successful_rerun_clears_failed_marker(self, tmp_path, monkeypatch):
        config = tiny_bench(tmp_path)

        def broken_run(*args):
            raise RuntimeError("run failed")

        with monkeypatch.context() as m:
            m.setattr(bench, "run", broken_run)
            with pytest.raises(RuntimeError):
                run_benchmark(config)
        marker = Path(config.output_dir) / "FAILED"
        assert marker.exists()
        run_benchmark(config)
        assert not marker.exists()

    def test_aggregate_median_permutation_invariant(self, tmp_path):
        summary = run_benchmark(tiny_bench(tmp_path, T=3, repeats=3))
        from gpbandit.bench import write_aggregate

        traces = list(summary["by_label"].values())[0]
        p1 = tmp_path / "agg1.csv"
        p2 = tmp_path / "agg2.csv"
        write_aggregate(traces, summary["true_optimum"], p1)
        write_aggregate(traces[::-1], summary["true_optimum"], p2)
        assert p1.read_text() == p2.read_text()

    def test_log_distance_clamped_when_gap_nonpositive(self, tmp_path):
        # flat objective at its own optimum: gap is exactly 0 every step
        config = tiny_bench(tmp_path, T=2)
        config.objective = ObjectiveSpec(name="ackley10", noise_stddev=0.0)
        summary = run_benchmark(config)
        manifest = json.loads(Path(summary["manifest"]).read_text())
        rows = Path(summary["traces"][0]).read_text().splitlines()[1:]
        log_cols = [float(r.split(",")[7]) for r in rows]
        assert all(c >= math.log10(1e-12) - 1e-9 for c in log_cols)
        assert manifest["clamped_log_rows"] >= 0


class TestDiagnostics:
    def _traces(self, tmp_path, horizons):
        traces = []
        for T in horizons:
            summary = run_benchmark(tiny_bench(tmp_path / f"T{T}", T=T))
            for trs in summary["by_label"].values():
                traces.extend(trs)
        return traces

    def test_requires_two_horizons(self, tmp_path):
        traces = self._traces(tmp_path, [3])
        with pytest.raises(ValueError):
            diagnostics_report(traces)

    def test_report_fields(self, tmp_path):
        traces = self._traces(tmp_path, [3, 6])
        report = diagnostics_report(traces)
        assert report.horizons == [3, 6]
        assert len(report.sigma_sum_margins) == 2
        assert "diagnostics" in report.as_text()

    def test_flat_objective_degenerate(self, tmp_path):
        from gpbandit.optimizers import RunTrace, TraceRow

        def flat_trace(T):
            tr = RunTrace(ALG_GP_EI, 0, 2)
            for t in range(1, T + 1):
                tr.rows.append(TraceRow(
                    t=t, x=np.zeros(2), y=0.0, x_plus=np.zeros(2),
                    f_at_x_plus=0.0, instantaneous_regret=0.0,
                    cumulative_regret=0.0, omega=1.0, info_gain=0.0,
                    cell_count=1, wallclock_ms=0.0,
                ))
            return tr

        report = diagnostics_report([flat_trace(3), flat_trace(6)])
        assert report.degenerate
        assert "degenerate" in report.as_text()


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg_file = tmp_path / "bench.cfg"
        cfg_file.write_text(
            "# benchmark settings\n"
            "algorithms = gp_ei, improved_gp_ei\n"
            "T = 20\n"
            "objective = hartmann3\n"
            "repeats = 2\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        values = load_config_file(cfg_file)
        config = build_bench_config(values)
        assert config.repeats == 2
        assert len(config.runs) == 2
        assert config.runs[1].omega.mode == "polylog_t"

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("warp_factor = 9\n")
        with pytest.raises(ValueError):
            load_config_file(cfg_file)


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        rc = main([
            "run", "--objective", "hartmann3", "--T", "2",
            "--acq-candidates", "64", "--acq-refinements", "2",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "manifest" in out
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GPBANDIT_OUTPUT_DIR", str(tmp_path / "env_out"))
        rc = main([
            "run", "--objective", "hartmann3", "--T", "1",
            "--acq-candidates", "64", "--acq-refinements", "1",
        ])
        assert rc == 0
        assert (tmp_path / "env_out" / "manifest.json").exists()

    def test_env_var_overrides_diag_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GPBANDIT_OUTPUT_DIR", str(tmp_path / "env_out"))
        monkeypatch.chdir(tmp_path)
        rc = main([
            "diag", "--horizons", "1,2", "--objective", "hartmann3",
            "--acq-candidates", "64", "--acq-refinements", "1",
            "--output-dir", str(tmp_path / "flag_out"),
        ])
        assert rc == 0
        for T in (1, 2):
            assert (tmp_path / "env_out" / f"T{T}" / "manifest.json").exists()
        assert not (tmp_path / "flag_out").exists()
        assert not (tmp_path / "bench_out").exists()

    def test_gen_rkhs_and_optimum(self, tmp_path, capsys):
        target = tmp_path / "target.json"
        rc = main([
            "gen-rkhs", "--out", str(target), "--dim", "2",
            "--centers", "20", "--budget", "2000",
        ])
        assert rc == 0
        assert target.exists()
        capsys.readouterr()
        rc = main([
            "optimum", "--objective", "rkhs", "--rkhs-file", str(target),
            "--budget", "2000",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective"] == "rkhs"
        rc = main(["optimum", "--objective", "hartmann3", "--budget", "2000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert json.loads(out)["value"] <= 3.862780

    def test_bad_config_returns_error(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "missing.cfg")])
        assert rc == 1
        assert "error" in capsys.readouterr().err
