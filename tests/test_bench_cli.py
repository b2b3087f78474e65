import hashlib
import json
import math
import statistics
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from gpbandit import bench
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
from gpbandit.optimizers import (
    ALG_GP_EI,
    ALG_IMPROVED_GP_EI,
    ALG_PI_UCB,
    OMEGA_FIXED,
    OMEGA_POLYLOG_T,
    OMEGA_THEORY_EI,
    RunConfig,
)
from gpbandit.testbed import make_rkhs_function


KERNEL = KernelSpec(MATERN, 0.2, 2.5)


def tiny_bench(tmp_path, T=1, repeats=1, algorithms=None, seed_base=0):
    runs = algorithms or [RunConfig(
        algorithm=ALG_GP_EI, horizon_T=T, omega_mode=OMEGA_FIXED,
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

    def test_content_hash_covers_noise_seed_offset(self, tmp_path, monkeypatch):
        # the offset moves every observation, so the traces and the hash
        hashes = []
        for offset in (10_000, 20_000):
            config = tiny_bench(tmp_path / str(offset), T=5)
            monkeypatch.setattr(bench, "NOISE_SEED_OFFSET", offset)
            manifest = json.loads(Path(run_benchmark(config)["manifest"]).read_text())
            assert manifest["noise_seed_offset"] == offset
            hashes.append(manifest["content_hash"])
        assert hashes[0] != hashes[1]

    def test_manifest_records_each_run_config_as_built(self, tmp_path):
        # every RunConfig field but the per-job seed, so a new field enters
        # the content hash without an edit to the manifest code
        runs = [
            RunConfig(algorithm=ALG_GP_EI, horizon_T=3, omega_mode=OMEGA_THEORY_EI,
                      kernel=KERNEL, acq_candidates=64, acq_refinements=2, seed=9),
            RunConfig(algorithm=ALG_IMPROVED_GP_EI, horizon_T=16,
                      omega_mode=OMEGA_POLYLOG_T, kernel=KERNEL, omega_c=7.0,
                      acq_candidates=64, acq_refinements=2),
        ]
        config = tiny_bench(tmp_path, algorithms=runs)
        manifest = json.loads(Path(run_benchmark(config)["manifest"]).read_text())
        expected = {f.name for f in fields(RunConfig)} - {"seed"} | {"label"}
        assert [set(entry) for entry in manifest["runs"]] == [expected, expected]
        first, second = manifest["runs"]
        assert first["label"] == "gp_ei_theory_ei"
        assert first["kernel"] == {"family": MATERN, "lengthscale": 0.2, "nu": 2.5}
        assert second["omega_c"] == 7.0  # recorded although polylog_t ignores it
        assert set(manifest["objective"]) == {
            "name", "rkhs_file", "noise_stddev", "rkhs_sha256", "true_optimum"}

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
                omega_mode=OMEGA_FIXED, kernel=KERNEL,
                lam=0.01, acq_candidates=64, acq_refinements=2,
            ),
            RunConfig(
                algorithm=ALG_IMPROVED_GP_EI, horizon_T=20,
                omega_mode=OMEGA_POLYLOG_T, kernel=KERNEL,
                lam=0.01, acq_candidates=64, acq_refinements=2,
            ),
            # real sizes: 4096 candidates take the pruned multi-block pass,
            # and from n = 32 its n x 512 kernel blocks reuse scratch memory
            RunConfig(
                algorithm=ALG_GP_EI, horizon_T=40,
                omega_mode=OMEGA_THEORY_EI, kernel=KERNEL, lam=0.01,
            ),
        ]
        serial = tiny_bench(tmp_path / "serial", repeats=2, algorithms=runs)
        parallel = tiny_bench(tmp_path / "parallel", repeats=2, algorithms=runs)
        parallel.jobs = 2
        s1, s2 = run_benchmark(serial), run_benchmark(parallel)
        names = [Path(p).name for p in s1["traces"]]
        assert names == [Path(p).name for p in s2["traces"]]
        assert len(names) == 6
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

    def test_rerun_removes_the_outputs_its_manifest_does_not_list(self, tmp_path):
        # two runs of two repeats, then one of one: trace _s1 and the second
        # run's traces and aggregate stayed beside a manifest of _s0
        [fixed] = tiny_bench(tmp_path).runs
        theory = replace(fixed, omega_mode=OMEGA_THEORY_EI)
        run_benchmark(tiny_bench(tmp_path, repeats=2, algorithms=[fixed, theory]))
        summary = run_benchmark(tiny_bench(tmp_path, repeats=1))
        out = Path(summary["manifest"]).parent
        manifest = json.loads(Path(summary["manifest"]).read_text())
        assert sorted(p.name for p in out.glob("trace_*.csv")) == [
            f"trace_{run_id}.csv" for run_id in manifest["trace_sha256"]] == [
            "trace_gp_ei_fixed1_s0.csv"]
        assert sorted(p.name for p in out.iterdir()) == [
            "aggregate_gp_ei_fixed1.csv", "manifest.json", "trace_gp_ei_fixed1_s0.csv"]

    def test_failed_write_leaves_marker_and_no_manifest(self, tmp_path):
        # a rerun whose trace path is a directory used to exit with no
        # marker, and the first run's manifest (horizon_T 3) still in place
        run_benchmark(tiny_bench(tmp_path, T=3))
        out = Path(tiny_bench(tmp_path).output_dir)
        (out / "trace_gp_ei_fixed1_s0.csv").unlink()
        (out / "trace_gp_ei_fixed1_s0.csv").mkdir()
        with pytest.raises(OSError):
            run_benchmark(tiny_bench(tmp_path, T=4))
        assert (out / "FAILED").exists()
        assert not (out / "manifest.json").exists()

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
    def _traces(self, tmp_path, horizons, algorithms=None):
        by_label = {}
        for T in horizons:
            runs = algorithms and [replace(c, horizon_T=T) for c in algorithms]
            summary = run_benchmark(tiny_bench(tmp_path / f"T{T}", T=T, algorithms=runs))
            for label, trs in summary["by_label"].items():
                by_label.setdefault(label, []).extend(trs)
        return by_label

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

        report = diagnostics_report({"gp_ei_fixed1": [flat_trace(3), flat_trace(6)]})
        assert report.growth["gp_ei_fixed1"].degenerate
        assert "degenerate" in report.as_text()

    def test_figures_are_kept_per_run_label(self, tmp_path):
        # two GP-EI runs that differ only in the omega schedule share an
        # algorithm, not a label; each label's growth figures come from its
        # own traces alone
        runs = [RunConfig(algorithm=ALG_GP_EI, horizon_T=1, omega_mode=mode,
                          kernel=KERNEL, lam=0.01, acq_candidates=64, acq_refinements=2)
                for mode in (OMEGA_FIXED, OMEGA_THEORY_EI)]
        by_label = self._traces(tmp_path, [3, 6], runs)
        assert list(by_label) == ["gp_ei_fixed1", "gp_ei_theory_ei"]
        report = diagnostics_report(by_label)
        for label, traces in by_label.items():
            alone = diagnostics_report({label: traces}).growth[label]
            assert report.growth[label] == alone
            assert alone.mean_final_regret == {
                tr.horizon: tr.final_cumulative_regret for tr in traces}
            assert alone.mean_wallclock_ms == statistics.fmean(
                row.wallclock_ms for tr in traces for row in tr.rows)
        fixed, theory = report.growth.values()
        assert fixed.mean_final_regret != theory.mean_final_regret
        text = report.as_text()
        for label in by_label:
            assert text.count(f"[{label}]") == 2  # its slope and wallclock lines
        assert "[gp_ei]" not in text

    def test_cli_reports_each_label(self, tmp_path, capsys):
        rc = main([
            "diag", "--horizons", "2,3", "--objective", "hartmann3",
            "--algorithms", "gp_ei,gp_ei_theory",
            "--acq-candidates", "64", "--acq-refinements", "1",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        for label in ("gp_ei_fixed1", "gp_ei_theory_ei"):
            assert f"[{label}] fitted slope" in text
            assert f"mean per-iteration wallclock [{label}]" in text
        assert text.count("mean final cumulative regret") == 4


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
        assert config.runs[1].omega_mode == "polylog_t"

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("warp_factor = 9\n")
        with pytest.raises(ValueError):
            load_config_file(cfg_file)

    def test_unknown_key_in_values_rejected(self):
        with pytest.raises(ValueError, match="unknown config key: 'warp_factor'"):
            build_bench_config({"T": "5", "warp_factor": "9"})

    def test_unset_keys_take_the_field_defaults(self):
        # only the six keys no field default covers have their own defaults
        config = build_bench_config({})
        [run] = config.runs
        assert set(bench._DEFAULTS) == {"algorithms", "T", "kernel_family", "nu",
                                        "lengthscale", "omega_mode"}
        assert run == RunConfig(algorithm=ALG_GP_EI, horizon_T=100, omega_mode=OMEGA_FIXED,
                                kernel=KERNEL)
        assert config.objective == ObjectiveSpec()
        assert (config.repeats, config.seed_base, config.output_dir, config.jobs) == (
            1, 0, "bench_out", 1)

    def test_theory_aliases_take_their_own_labels(self):
        # each alias is its algorithm under theory_ei, with a label of its
        # own beside the labels the other names keep
        config = build_bench_config({"T": "16", "algorithms": ",".join(
            ["gp_ei", "gp_ei_theory", "improved_gp_ei", "improved_gp_ei_theory", "pi_ucb"])})
        got = [(run.algorithm, run.omega_mode, bench.run_label(run)) for run in config.runs]
        assert got == [
            (ALG_GP_EI, OMEGA_FIXED, "gp_ei_fixed1"),
            (ALG_GP_EI, OMEGA_THEORY_EI, "gp_ei_theory_ei"),
            (ALG_IMPROVED_GP_EI, OMEGA_POLYLOG_T, "improved_gp_ei"),
            (ALG_IMPROVED_GP_EI, OMEGA_THEORY_EI, "improved_gp_ei_theory_ei"),
            (ALG_PI_UCB, OMEGA_POLYLOG_T, "pi_ucb"),
        ]

    def test_repeated_key_rejected(self, tmp_path):
        # the last line would otherwise win silently and run T = 7
        cfg_file = tmp_path / "twice.cfg"
        cfg_file.write_text("T = 5\nrepeats = 2\nT = 7\n")
        with pytest.raises(ValueError, match="config key 'T' is given more than once"):
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

    def test_output_dir_flag_ignores_env_var(self, tmp_path, monkeypatch, capsys):
        # the output directory has no environment override
        monkeypatch.setenv("GPBANDIT_OUTPUT_DIR", str(tmp_path / "env_out"))
        rc = main([
            "run", "--objective", "hartmann3", "--T", "1",
            "--acq-candidates", "64", "--acq-refinements", "1",
            "--output-dir", str(tmp_path / "flag_out"),
        ])
        assert rc == 0
        assert (tmp_path / "flag_out" / "manifest.json").exists()
        assert not (tmp_path / "env_out").exists()

    def test_diag_output_dir_flag_ignores_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GPBANDIT_OUTPUT_DIR", str(tmp_path / "env_out"))
        monkeypatch.chdir(tmp_path)
        rc = main([
            "diag", "--horizons", "1,2", "--objective", "hartmann3",
            "--acq-candidates", "64", "--acq-refinements", "1",
            "--output-dir", str(tmp_path / "flag_out"),
        ])
        assert rc == 0
        for T in (1, 2):
            assert (tmp_path / "flag_out" / f"T{T}" / "manifest.json").exists()
        assert not (tmp_path / "env_out").exists()
        assert not (tmp_path / "bench_out").exists()

    def test_diag_rerun_clears_the_horizons_it_does_not_run(self, tmp_path, capsys):
        # horizons 2,3 then 2,4 into one directory left T3/, its manifest
        # and its traces beside T2/ and T4/; the files gpbandit did not
        # write stay, and so does their directory
        out = tmp_path / "out"

        def diag(horizons):
            assert main(["diag", "--horizons", horizons, "--objective", "hartmann3",
                         "--acq-candidates", "64", "--acq-refinements", "1",
                         "--output-dir", str(out)]) == 0

        diag("2,3,4")
        (out / "T3" / "FAILED").write_text("benchmark run failed\n")
        (out / "T4" / "notes.txt").write_text("kept\n")
        (out / "Tx").mkdir()
        (out / "Tx" / "manifest.json").write_text("{}\n")
        diag("2,5")
        assert sorted(p.name for p in out.iterdir()) == ["T2", "T4", "T5", "Tx"]
        assert [p.name for p in (out / "T4").iterdir()] == ["notes.txt"]
        assert [p.name for p in (out / "Tx").iterdir()] == ["manifest.json"]
        assert sorted(p.name for p in out.glob("T*/manifest.json")) == ["manifest.json"] * 3

    def test_diag_bad_horizon_writes_nothing(self, tmp_path, capsys):
        # the good horizon comes first: it must not run before the bad one
        # is rejected
        rc = main([
            "diag", "--horizons", "3,0", "--objective", "hartmann3",
            "--acq-candidates", "64", "--acq-refinements", "1",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "horizon must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_diag_repeated_horizon_writes_nothing(self, tmp_path, capsys):
        # a repeated horizon would run twice into one T2/ directory and count
        # twice in the growth fit
        rc = main([
            "diag", "--horizons", "2,3,2", "--objective", "hartmann3",
            "--acq-candidates", "64", "--acq-refinements", "1",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "horizon 2 is given more than once" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_diag_single_horizon_writes_nothing(self, tmp_path, capsys):
        rc = main([
            "diag", "--horizons", "5", "--objective", "hartmann3",
            "--acq-candidates", "64", "--acq-refinements", "1",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert ("error: diag needs at least two distinct horizons"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_diag_horizon_not_a_number_names_the_flag(self, tmp_path, capsys):
        # int()'s own message named no flag: invalid literal for int() ...
        rc = main([
            "diag", "--horizons", "3,abc", "--objective", "hartmann3",
            "--acq-candidates", "64", "--acq-refinements", "1",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --horizons takes comma-separated integers, got '3,abc'\n")
        assert not (tmp_path / "out").exists()

    def test_repeated_config_key_writes_nothing(self, tmp_path, capsys):
        cfg_file = tmp_path / "twice.cfg"
        cfg_file.write_text("T = 5\nT = 7\n")
        rc = main(["run", "--config", str(cfg_file), "--acq-candidates", "64",
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "config key 'T' is given more than once" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("route", ["file", "flag"])
    def test_empty_value_writes_nothing(self, tmp_path, capsys, route):
        # the default used to stand in for an empty value: `T =` ran T = 100
        out = tmp_path / "out"
        if route == "file":
            cfg_file = tmp_path / "empty.cfg"
            cfg_file.write_text(f"T =\nrepeats = 2\noutput_dir = {out}\n")
            argv = ["run", "--config", str(cfg_file)]
        else:
            argv = ["run", "--T", "", "--output-dir", str(out)]
        rc = main(argv + ["--acq-candidates", "64"])
        assert rc == 1
        assert "config key 'T' has an empty value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--T", "abc"], "config key 'T' needs int, got 'abc'"),
        (["--repeats", "2.5"], "config key 'repeats' needs int, got '2.5'"),
        (["--lambda", "small"], "config key 'lambda' needs float, got 'small'"),
        (["--nu", "x"], "config key 'nu' needs float, got 'x'"),
        # log1p(var / lambda) would make every row's info gain infinite
        (["--lambda", "1e-320", "--T", "3"], "lambda needs 1/lambda finite, got lam=1e-320"),
    ])
    def test_bad_value_names_its_key(self, tmp_path, capsys, flags, message):
        rc = main(["run", *flags, "--acq-candidates", "64",
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_gen_rkhs_kernel_keys_default_as_in_run(self, tmp_path, capsys):
        # gen-rkhs reads kernel_family, nu and lengthscale as run does
        paths = [tmp_path / "default.json", tmp_path / "explicit.json"]
        flags = ["--kernel-family", "matern", "--nu", "2.5", "--lengthscale", "0.2"]
        for path, extra in zip(paths, ([], flags)):
            rc = main(["gen-rkhs", "--out", str(path), "--dim", "2", "--centers", "5",
                       "--budget", "1000", *extra])
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert json.loads(paths[0].read_text())["kernel"] == {
            "family": "matern", "lengthscale": 0.2, "nu": 2.5}
        rc = main(["gen-rkhs", "--out", str(tmp_path / "bad.json"), "--nu", ""])
        assert rc == 1
        assert "config key 'nu' has an empty value" in capsys.readouterr().err

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

    def test_optimum_rkhs_without_file_returns_error(self, capsys):
        rc = main(["optimum", "--objective", "rkhs", "--budget", "2000"])
        assert rc == 1
        assert capsys.readouterr().err == "error: rkhs objective needs a target file\n"

    def test_optimum_file_without_rkhs_returns_error(self, capsys):
        rc = main(["optimum", "--rkhs-file", "t.json", "--budget", "2000"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: rkhs_file needs objective rkhs, got 'hartmann3'\n")

    @pytest.mark.parametrize("objective, message", [
        (["--objective", "nope"], "unknown test function: 'nope'; the test functions are "
                                  "hartmann3, shekel, hartmann6, ackley10"),
        (["--objective", ""], "config key 'objective' has an empty value"),
    ])
    def test_optimum_bad_objective_exits_1(self, capsys, objective, message):
        # the name goes through ObjectiveSpec, as run's does; argparse
        # choices rejected it with exit 2 and a usage message
        rc = main(["optimum", *objective, "--budget", "1000"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_optimum_defaults_to_the_run_objective(self, capsys):
        assert main(["optimum", "--budget", "1000"]) == 0
        assert json.loads(capsys.readouterr().out)["objective"] == ObjectiveSpec().name

    @pytest.mark.parametrize("objective, message", [
        (["--objective", "nope"], "unknown test function: 'nope'"),
        (["--objective", "rkhs"], "rkhs objective needs a target file"),
        (["--lambda", "0"], "lam must be finite and > 0, got 0.0"),
        (["--lambda", "nan"], "lam must be finite and > 0, got nan"),
        (["--noise-stddev", "-1"], "noise stddev must be finite and >= 0, got -1.0"),
        (["--noise-stddev", "nan"], "noise stddev must be finite and >= 0, got nan"),
        (["--algorithms", "gp_ei,gp_ei"], "two runs share the label 'gp_ei_fixed1'"),
        # an infinite scale makes every score infinite, so a step would take
        # its search's first draw; a negative UCB width makes the score
        # decrease in the stddev
        (["--omega-c", "inf"], "fixed omega needs c > 0 and finite, got inf"),
        (["--omega-c", "nan"], "fixed omega needs c > 0 and finite, got nan"),
        (["--omega-mode", "theory_ei", "--delta", "1e-320"],
         "theory_ei omega needs 1/delta finite"),
        (["--algorithms", "pi_ucb", "--delta", "1e-320"], "pi_ucb needs 1/delta finite"),
        (["--algorithms", "pi_ucb", "--B", "inf"], "pi_ucb needs B finite and >= 0, got inf"),
        (["--algorithms", "pi_ucb", "--R", "inf"], "pi_ucb needs R finite and >= 0, got inf"),
        (["--algorithms", "pi_ucb", "--B", "nan"], "pi_ucb needs B finite and >= 0, got nan"),
        (["--algorithms", "pi_ucb", "--B", "-1"], "pi_ucb needs B finite and >= 0, got -1.0"),
        (["--algorithms", "pi_ucb", "--R", "-0.5"],
         "pi_ucb needs R finite and >= 0, got -0.5"),
        (["--seed-base", "-1"], "seed_base must be >= 0, got -1"),
        # a target file read only with objective rkhs, not ignored
        (["--rkhs-file", "t.json"], "rkhs_file needs objective rkhs, got 'hartmann3'"),
        (["--objective", "shekel", "--rkhs-file", "t.json"],
         "rkhs_file needs objective rkhs, got 'shekel'"),
        # improved_gp_ei takes polylog_t omega without the user setting it
        (["--algorithms", "improved_gp_ei"],
         "improved_gp_ei with polylog_t omega needs horizon_T >= 16 (ln ln T must be "
         "positive), got T = 2"),
    ])
    def test_bad_objective_writes_nothing(self, tmp_path, capsys, objective, message):
        rc = main([
            "run", *objective, "--T", "2",
            "--acq-candidates", "64", "--acq-refinements", "1",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "optimum"])
    @pytest.mark.parametrize("edit, message", [
        (lambda good: [1], "must hold a JSON object"),
        (lambda good: {"centers": [[0.1]]}, "lacks field 'kernel'"),
        (lambda good: dict(good, kernel={"family": "matern", "nu": 2.5}),
         "field 'kernel'"),
        (lambda good: {k: v for k, v in good.items() if k != "optimum_value"},
         "lacks field 'optimum_value'"),
        (lambda good: {k: v for k, v in good.items() if k != "weights"},
         "lacks field 'weights'"),
        (lambda good: dict(good, centers=good["centers"][0]), "field 'centers'"),
        (lambda good: dict(good, weights=good["weights"][1:]), "field 'weights'"),
        (lambda good: dict(good, optimum_point=[0.5]), "field 'optimum_point'"),
        (lambda good: dict(good, rkhs_norm_sq=True), "field 'rkhs_norm_sq'"),
        (lambda good: dict(good, kernel=dict(good["kernel"], lengthscale=True)),
         "field 'kernel': 'lengthscale' must be a finite number"),
        (lambda good: dict(good, kernel=dict(good["kernel"], nu=True)),
         "field 'kernel': 'nu' must be a finite number"),
        (lambda good: dict(good, kernel=dict(good["kernel"], nu=None)),
         "field 'kernel': 'nu' must be a finite number"),
    ], ids=["not_object", "no_kernel", "no_lengthscale", "no_optimum_value",
            "no_weights", "centers_1d", "short_weights", "short_optimum_point",
            "bool_norm", "bool_lengthscale", "bool_nu", "null_matern_nu"])
    def test_malformed_rkhs_file_returns_error(self, tmp_path, capsys, command,
                                               edit, message):
        # valid JSON of the wrong shape fails in the loader with the field
        # named, before any output exists
        path = tmp_path / "target.json"
        make_rkhs_function(KERNEL, 2, 5, np.random.default_rng(3),
                           optimum_budget=1000).save(path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        extra = (["--T", "2", "--output-dir", str(tmp_path / "out")] if command == "run"
                 else ["--budget", "1000"])
        rc = main([command, "--objective", "rkhs", "--rkhs-file", str(path), *extra])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rkhs target") and message in err
        assert not (tmp_path / "out").exists()

    def test_ucb_delta_outside_unit_interval_writes_nothing(self, tmp_path, capsys):
        rc = main([
            "run", "--objective", "hartmann3", "--algorithms", "pi_ucb",
            "--delta", "1.5", "--T", "3",
            "--acq-candidates", "64", "--acq-refinements", "1",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "pi_ucb needs delta in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_refinements_return_error(self, tmp_path, capsys):
        rc = main([
            "run", "--objective", "hartmann3", "--T", "2",
            "--acq-candidates", "64", "--acq-refinements", "-3",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "refinements" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ucb_runs_below_the_polylog_horizon(self, tmp_path):
        # pi-GP-UCB reads no omega, so the polylog_t bound T >= 16 is not its
        rc = main([
            "run", "--objective", "hartmann3", "--algorithms", "pi_ucb", "--T", "10",
            "--acq-candidates", "64", "--acq-refinements", "1",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 0
        rows = (tmp_path / "out" / "trace_pi_ucb_s0.csv").read_text().splitlines()
        assert rows[0] == CSV_HEADER and len(rows) == 1 + 10

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_return_error(self, tmp_path, capsys, jobs):
        rc = main([
            "run", "--objective", "hartmann3", "--T", "2", "--jobs", jobs,
            "--acq-candidates", "64", "--acq-refinements", "1",
            "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_config_returns_error(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "missing.cfg")])
        assert rc == 1
        assert "error" in capsys.readouterr().err
