"""scripts/bench_record.py: the perf record written from paired results."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def result(workload, seed, run_s, rss, hashes, sha="aaaa", failed=0):
    """A perfbench result file's fields that the record reads."""
    prov = {k: k for k in bench_record.MACHINE_KEYS}
    prov.update(git_commit=None, src_sha256=sha, loadavg_start=[0.5, 0.4, 0.3])
    return {
        "workload": workload, "seed": seed, "seconds": 8.0, "trace": 0,
        "provenance": prov,
        "runs": [{"run_seed": 1000 * seed + i, "run_s_measured": 2 * run_s + i,
                  "trace_sha256": h} for i, h in enumerate(hashes)],
        "result": {"failed": failed, "metrics": {
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"}}},
    }


def write(tmp_path, side, name, data):
    d = tmp_path / side
    d.mkdir(exist_ok=True)
    (d / name).write_text(json.dumps(data))
    return d


@pytest.fixture
def sides(tmp_path):
    parent_s, change_s = (0.50, 0.54, 0.52, 0.56), (0.40, 0.41, 0.60, 0.42)
    for k, (p, c) in enumerate(zip(parent_s, change_s)):
        write(tmp_path, "parent", f"gp_{k}.json", result("gp", 7, p, 100.0, ["x", "y"]))
        write(tmp_path, "change", f"gp_{k}.json",
              result("gp", 7, c, 100.0 + k, ["x", "y" if k else "z"], sha="bbbb"))
    write(tmp_path, "parent", "cover_0.json", result("cover", 3, 0.1, 50.0, ["h"]))
    write(tmp_path, "change", "cover_0.json", result("cover", 3, 0.1, 50.0, ["h"], sha="bbbb", failed=1))
    return tmp_path / "parent", tmp_path / "change"


def test_record_keeps_spreads_wins_seeds_and_provenance(sides, tmp_path):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"end_to_end": [
        {"name": "run_s", "better": "lower"}, {"name": "peak_rss_mb", "better": "lower"}]}))
    rec = bench_record.record(*sides, benchmark)
    gp = rec["workloads"]["gp"]
    assert gp["pairs"] == 4 and gp["seeds"] == [7] and gp["seconds"] == [8.0]
    run_s = gp["metrics"]["run_s"]
    assert run_s["parent"]["median"] == pytest.approx(0.53)
    assert run_s["parent"]["q1"] == pytest.approx(0.515)
    assert run_s["parent"]["q3"] == pytest.approx(0.545)
    assert run_s["change"]["median"] == pytest.approx(0.415)
    assert run_s["wins"] == 3
    assert run_s["median_change"] == pytest.approx(0.415 / 0.53 - 1)
    assert run_s["gain_exceeds_parent_iqr"] is True
    # equal values are no win; the RSS grew in every pair but the first
    assert gp["metrics"]["peak_rss_mb"]["wins"] == 0
    # medians of each run's measured seconds, per pair
    assert gp["run_s_measured_medians"]["parent"] == pytest.approx([1.5, 1.58, 1.54, 1.62])
    assert gp["traces"] == {"compared": 8, "equal": 7}
    assert rec["workloads"]["cover"]["failed"] == {"parent": 0, "change": 1}
    assert rec["workloads"]["cover"]["metrics"]["run_s"]["parent"]["q1"] == 0.1
    assert rec["provenance"]["parent"]["src_sha256"] == ["aaaa"]
    assert rec["provenance"]["change"]["src_sha256"] == ["bbbb"]
    assert rec["provenance"]["change"]["numpy"] == "numpy"


def test_main_writes_the_record(sides, tmp_path, capsys):
    out = tmp_path / "BENCH_test.json"
    assert bench_record.main(["--parent", str(sides[0]), "--change", str(sides[1]),
                              "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())["workloads"]) == {"gp", "cover"}
    assert "wins 3/4" in capsys.readouterr().out


def test_unpaired_or_mixed_files_are_refused(sides, tmp_path, capsys):
    write(tmp_path, "parent", "lonely.json", result("gp", 7, 0.5, 1.0, []))
    out = tmp_path / "BENCH_bad.json"
    assert bench_record.main(["--parent", str(sides[0]), "--change", str(sides[1]),
                              "--out", str(out)]) == 1
    assert "lonely.json" in capsys.readouterr().err and not out.exists()
    write(tmp_path, "change", "lonely.json", result("cover", 7, 0.5, 1.0, []))
    with pytest.raises(ValueError, match="one workload"):
        bench_record.record(*sides)
