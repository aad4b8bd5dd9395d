"""Command line harness.

Subcommands:
  gen         generate a schedule file (plus JSON metadata sidecar)
  validate    structurally validate a schedule, optionally against the
              infrastructure and path systems of a `gen` .paths.json file
  run         run the (n, seed) grid of a JSON experiment config
  sweep       run a grid and fit the log-log scaling slope
  separation  blocker-line holding-difference statistic from a trace
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import NetworkSnapshot
from .dgs1 import default_metadata_path, export_schedule, import_schedule, save_metadata
from .harness import (
    ExperimentConfig,
    build_schedule,
    load_trace,
    measure_blocker_separation,
    run_experiment,
    sweep,
)
from .paths import PathSystem, ring_infrastructure, ring_path_systems, validate_paths_respecting
from .paths import center_terminal_infrastructure, center_terminal_path_systems


def _cmd_gen(args) -> int:
    spec = {"name": args.adversary, "seed": args.seed, "horizon": args.horizon}
    for key in ("policy", "r", "extra_edge_prob", "epsilon"):
        if getattr(args, key) is not None:
            spec[key] = getattr(args, key)
    if args.adversary == "center-terminal" and args.r is None:
        print("center-terminal requires --r", file=sys.stderr)
        return 2
    schedule = build_schedule(spec, args.n, args.seed)
    export_schedule(schedule, args.out)
    save_metadata(schedule, default_metadata_path(args.out))
    if args.adversary == "ring-failure":
        _write_paths(args.out, ring_infrastructure(args.n), ring_path_systems(args.n))
    elif args.adversary == "center-terminal":
        _write_paths(
            args.out,
            center_terminal_infrastructure(args.n, args.r),
            center_terminal_path_systems(args.n, args.r),
        )
    print(f"wrote {args.out} (n={schedule.n}, horizon={schedule.horizon}, mode={schedule.mode})")
    return 0


def _write_paths(out: str, infra: NetworkSnapshot, systems) -> None:
    """Write `<out>.paths.json`, holding one path system at a time."""
    infra_json = json.dumps({"n": infra.n, "edges": sorted(map(list, infra.edges))})
    with open(out + ".paths.json", "w", encoding="utf-8") as fh:
        fh.write(f'{{"infrastructure": {infra_json}, "systems": [')
        for i, s in enumerate(systems):
            entry = {"source": s.source, "dest": s.dest, "paths": [list(p) for p in s.paths]}
            fh.write((", " if i else "") + json.dumps(entry))
        fh.write("]}\n")


def _cmd_validate(args) -> int:
    try:
        schedule = import_schedule(args.schedule)
    except ValueError as exc:
        print(f"REJECT: {exc}")
        return 1
    problems = schedule.validate()
    if problems:
        print(f"REJECT: {problems[0]}")
        return 1
    if args.paths:
        payload = json.loads(Path(args.paths).read_text(encoding="utf-8"))
        infra = NetworkSnapshot(
            payload["infrastructure"]["n"],
            [tuple(e) for e in payload["infrastructure"]["edges"]],
        )
        systems = (
            PathSystem(s["source"], s["dest"], tuple(tuple(p) for p in s["paths"]))
            for s in payload["systems"]
        )
        report = validate_paths_respecting(schedule, infra, systems)
        if not report.ok:
            print(f"REJECT: {report.reason} {report.violation}")
            return 1
    print(f"OK: {schedule.horizon} rounds, n={schedule.n}, mode={schedule.mode}")
    return 0


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    try:
        rows = run_experiment(config)
    except (KeyError, ValueError) as exc:
        # timeouts are data; config or schedule problems are errors
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1
    for row in rows:
        print(
            f"n={row['n']} seed={row['seed']} completion={row['completion_round']}"
            + (f" sentinel={row['sentinel_round']}" if row["sentinel_round"] != "" else "")
        )
    return 0


def _cmd_sweep(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    summary = sweep(config)
    for n in sorted(summary.per_n):
        entry = summary.per_n[n]
        print(
            f"n={n} median={entry.get('median')} mean={entry.get('mean')} "
            f"timeouts={entry['timeout_fraction']:.2%}"
        )
    print(f"log-log slope ({summary.measure}): {summary.slope:.3f}")
    return 0


def _cmd_separation(args) -> int:
    arrivals = load_trace(args.trace)
    metadata = json.loads(Path(args.meta).read_text(encoding="utf-8"))
    stats = measure_blocker_separation(arrivals, metadata)
    print(
        f"fraction_small={stats['fraction_small']:.6f} "
        f"pairs={stats['pairs_measured']} threshold={stats['threshold']:.3f}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gossipsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a schedule file")
    gen.add_argument("--adversary", required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--horizon", type=int, default=1)
    gen.add_argument("--policy", default=None)
    gen.add_argument("--r", type=int, default=None)
    gen.add_argument("--extra-edge-prob", type=float, default=None)
    gen.add_argument("--epsilon", type=float, default=None)
    gen.set_defaults(func=_cmd_gen)

    val = sub.add_parser("validate", help="validate a schedule file")
    val.add_argument("schedule")
    val.add_argument("--paths", default=None)
    val.set_defaults(func=_cmd_validate)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("--config", required=True)
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a scaling sweep")
    sweep_p.add_argument("--config", required=True)
    sweep_p.set_defaults(func=_cmd_sweep)

    sep = sub.add_parser("separation", help="blocker separation statistic")
    sep.add_argument("--trace", required=True)
    sep.add_argument("--meta", required=True)
    sep.set_defaults(func=_cmd_separation)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
