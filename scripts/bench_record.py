"""Write a perf record (BENCH_<sha>.json) from paired benchmark results.

    python3 scripts/bench_record.py --parent DIR --change DIR --out BENCH_<sha>.json

<sha> is the short hash of the parent commit the change was measured
against, as the change's own commit does not exist yet when it is measured.

Each DIR holds copies of `perfbench/out/result_<workload>_s<seed>_trace0.json`
files, one per `perfbench/run.py` invocation.  A file of the parent and the
file of the same name in the change's DIR are one pair; run the two sides in
alternation and copy each result out before the next run overwrites it.  For
every workload and end-to-end metric the record keeps both sides' medians and
quartiles over the pairs, the pairs the change won, the workload seeds, each
side's provenance and the raw per-pair medians of the measured run seconds
(`run_s` is corrected for the machine's speed; `run_s_measured` is not).
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# provenance fields that are the same for every run of one side on one machine
MACHINE_KEYS = ("nproc", "cpus_usable", "blas_threads_pinned", "python", "numpy", "scipy",
                "numpy_blas", "scipy_blas", "machine")


def _spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _directions(benchmark: Path) -> dict[str, str]:
    """'lower' or 'higher' for each end-to-end metric BENCHMARK.json names."""
    if not benchmark.exists():
        return {}
    return {m["name"]: m["better"] for m in json.loads(benchmark.read_text())["end_to_end"]}


def _provenance(records: list[dict]) -> dict:
    first = records[0]["provenance"]
    return {
        **{k: first.get(k) for k in MACHINE_KEYS},
        "git_commits": sorted({str(r["provenance"].get("git_commit")) for r in records}),
        "src_sha256": sorted({r["provenance"]["src_sha256"] for r in records}),
        "loadavg_start_1min": [r["provenance"]["loadavg_start"][0] for r in records],
    }


def _traces(parent: dict, change: dict) -> tuple[int, int]:
    """(runs compared, runs whose trace hashes are equal) over the run seeds
    both sides of one pair ran."""
    a = {r["run_seed"]: r["trace_sha256"] for r in parent["runs"]}
    b = {r["run_seed"]: r["trace_sha256"] for r in change["runs"]}
    both = a.keys() & b.keys()
    return len(both), sum(a[s] == b[s] for s in both)


def record(parent_dir: Path, change_dir: Path, benchmark: Path = ROOT / "BENCHMARK.json") -> dict:
    names = sorted(p.name for p in parent_dir.glob("*.json"))
    missing = [n for n in names if not (change_dir / n).exists()]
    if not names or missing:
        raise ValueError(f"need the same result files on both sides; unpaired: {missing or 'all'}")
    better = _directions(benchmark)
    pairs: dict[str, list[tuple[dict, dict]]] = {}
    for name in names:
        a, b = (json.loads((d / name).read_text()) for d in (parent_dir, change_dir))
        if a["workload"] != b["workload"] or a["trace"] or b["trace"]:
            raise ValueError(f"{name}: a pair must be two untraced runs of one workload")
        pairs.setdefault(a["workload"], []).append((a, b))
    workloads = {}
    for workload, runs in sorted(pairs.items()):
        metrics = {}
        for metric in runs[0][0]["result"]["metrics"]:
            values = [[side["result"]["metrics"][metric]["value"] for side in pair]
                      for pair in runs]
            direction = better.get(metric, "lower")
            wins = sum((c < p) if direction == "lower" else (c > p) for p, c in values)
            parent, change = (_spread([v[i] for v in values]) for i in (0, 1))
            metrics[metric] = {
                "unit": runs[0][0]["result"]["metrics"][metric]["unit"],
                "better": direction,
                "parent": parent,
                "change": change,
                "wins": wins,
                "median_change": change["median"] / parent["median"] - 1.0,
                "gain_exceeds_parent_iqr": (
                    abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"]),
            }
        compared, equal = map(sum, zip(*(_traces(a, b) for a, b in runs)))
        workloads[workload] = {
            "pairs": len(runs),
            "seeds": sorted({a["seed"] for a, _ in runs}),
            "seconds": sorted({a["seconds"] for a, _ in runs}),
            "metrics": metrics,
            "run_s_measured_medians": {
                side: [statistics.median(r["run_s_measured"] for r in pair[i]["runs"])
                       for pair in runs]
                for i, side in enumerate(("parent", "change"))},
            "failed": {side: sum(pair[i]["result"]["failed"] for pair in runs)
                       for i, side in enumerate(("parent", "change"))},
            "traces": {"compared": compared, "equal": equal},
        }
    return {
        "provenance": {
            side: _provenance([pair[i] for runs in pairs.values() for pair in runs])
            for i, side in enumerate(("parent", "change"))},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    try:
        out = record(args.parent, args.change)
    except (OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    for workload, w in out["workloads"].items():
        for metric, m in w["metrics"].items():
            print(f"{workload:16s} {metric:12s} {m['parent']['median']:.6g} -> "
                  f"{m['change']['median']:.6g} {m['unit']}  "
                  f"({100 * m['median_change']:+.1f}%, wins {m['wins']}/{w['pairs']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
