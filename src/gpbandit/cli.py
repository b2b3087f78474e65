"""Command-line benchmark harness.

Subcommands:
  run       execute a benchmark (config file + flag overrides), write CSVs
  diag      growth-rate diagnostics across horizons
  gen-rkhs  emit a reproducible kernel-expansion target file
  optimum   estimate a target's optimum by dense random search

Every config-file key is also a flag; flags win.  `optimum` builds its
target the way `run` does, from the objective name and the target file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bench
from .bench import CONFIG_KEYS, build_bench_config, load_config_file
from .testbed import estimate_optimum, make_rkhs_function

_KERNEL_KEYS = ("kernel_family", "nu", "lengthscale")
_OBJECTIVE_KEYS = ("objective", "rkhs_file")


def _add_config_flags(p: argparse.ArgumentParser, keys=CONFIG_KEYS) -> None:
    for key in keys:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)


def _config_values(args) -> dict[str, str]:
    """Config-file values, overridden by flags."""
    values = load_config_file(args.config) if args.config else {}
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _cmd_run(args) -> int:
    config = build_bench_config(_config_values(args))
    summary = bench.run_benchmark(config)
    print(f"manifest: {summary['manifest']}")
    for label, path in summary["aggregates"].items():
        print(f"aggregate[{label}]: {path}")
    return 0


def _cmd_diag(args) -> int:
    values = _config_values(args)
    try:
        horizons = [int(h) for h in args.horizons.split(",")]
    except ValueError:
        raise ValueError("--horizons takes comma-separated integers, "
                         f"got {args.horizons!r}") from None
    for i, T in enumerate(horizons):  # each runs into its own T<horizon>/
        if T in horizons[:i]:
            raise ValueError(f"horizon {T} is given more than once")
    if len(horizons) < 2:
        raise ValueError("diag needs at least two distinct horizons")
    configs = [build_bench_config(dict(values, T=str(T))) for T in horizons]
    # an earlier diag's other horizons, which a T*/manifest.json glob would mix in
    for stale in Path(configs[0].output_dir).glob("T*"):
        if stale.name[1:].isdigit() and int(stale.name[1:]) not in horizons and stale.is_dir():
            bench.remove_outputs(stale)
            if not any(stale.iterdir()):
                stale.rmdir()
    by_label = {}
    for T, config in zip(horizons, configs):  # all built: a bad one runs none
        config.output_dir = os.path.join(config.output_dir, f"T{T}")
        summary = bench.run_benchmark(config)
        for label, trs in summary["by_label"].items():
            by_label.setdefault(label, []).extend(trs)
    report = bench.diagnostics_report(by_label)
    text = report.as_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def _cmd_gen_rkhs(args) -> int:
    # the kernel a run given these keys would use
    kernel = build_bench_config({key: getattr(args, key) for key in _KERNEL_KEYS}).runs[0].kernel
    rng = np.random.default_rng(args.seed)
    f = make_rkhs_function(kernel, args.dim, args.centers, rng,
                           optimum_budget=args.budget)
    f.save(args.out)
    print(json.dumps({
        "file": args.out,
        "dim": f.dim,
        "centers": len(f.weights),
        "rkhs_norm": float(np.sqrt(f.rkhs_norm_sq)),
        "optimum_value": f.optimum_value,
    }, indent=2))
    return 0


def _cmd_optimum(args) -> int:
    # the objective a run given these keys would use
    spec = build_bench_config({key: getattr(args, key) for key in _OBJECTIVE_KEYS}).objective
    target, d, _ = spec.build()
    rng = np.random.default_rng(args.seed)
    value, point = estimate_optimum(target, d, args.budget, rng)
    print(json.dumps({
        "objective": spec.name,
        "budget": args.budget,
        "value": value,
        "point": [float(c) for c in point],
    }, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpbandit",
        description="GP bandit optimization benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a benchmark")
    p_run.add_argument("--config", help="flat key=value config file")
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_diag = sub.add_parser("diag", help="growth-rate diagnostics")
    p_diag.add_argument("--config", help="flat key=value config file")
    p_diag.add_argument("--horizons", default="50,100,200",
                        help="comma-separated horizons")
    p_diag.add_argument("--out", help="write the report to this file")
    _add_config_flags(p_diag)
    p_diag.set_defaults(func=_cmd_diag)

    p_gen = sub.add_parser("gen-rkhs", help="emit a kernel-expansion target")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--dim", type=int, default=5)
    p_gen.add_argument("--centers", type=int, default=500)
    _add_config_flags(p_gen, _KERNEL_KEYS)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--budget", type=int, default=50_000)
    p_gen.set_defaults(func=_cmd_gen_rkhs)

    p_opt = sub.add_parser("optimum", help="estimate a target's optimum")
    _add_config_flags(p_opt, _OBJECTIVE_KEYS)
    p_opt.add_argument("--budget", type=int, default=100_000)
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.set_defaults(func=_cmd_optimum)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
