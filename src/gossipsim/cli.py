"""Command line harness.

Subcommands:
  gen         generate a schedule file (plus JSON metadata sidecar)
  validate    structurally validate a schedule; with --paths, also against
              the path family its metadata sidecar names
  run         run the (n, seed) grid of a JSON experiment config
  sweep       run a grid and fit the log-log scaling slope
  separation  blocker-line holding-difference statistic from a trace
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .dgs1 import default_metadata_path, export_schedule, import_schedule, save_metadata
from .harness import (
    ExperimentConfig,
    build_schedule,
    load_trace,
    measure_blocker_separation,
    run_experiment,
    sweep,
)
from .paths import path_family, validate_paths_respecting


def _cmd_gen(args) -> int:
    spec = {"name": args.adversary, "seed": args.seed}
    for key in ("horizon", "policy", "r", "extra_edge_prob", "epsilon"):
        if getattr(args, key) is not None:
            spec[key] = getattr(args, key)
    try:
        schedule = build_schedule(spec, args.n, args.seed)
        export_schedule(schedule, args.out)
        save_metadata(schedule, default_metadata_path(args.out))
    except _CONFIG_ERRORS as exc:
        return _config_error(exc)
    print(f"wrote {args.out} (n={schedule.n}, horizon={schedule.horizon}, mode={schedule.mode})")
    return 0


def _cmd_validate(args) -> int:
    try:
        schedule = import_schedule(args.schedule)
    except ValueError as exc:
        print(f"REJECT: {exc}")
        return 1
    except OSError as exc:
        return _config_error(exc)
    # The reader has checked every round; only the path family is left.
    problems = _paths_problems(schedule, default_metadata_path(args.schedule)) if args.paths else []
    if problems:
        print(f"REJECT: {problems[0]}")
        return 1
    print(f"OK: {schedule.horizon} rounds, n={schedule.n}, mode={schedule.mode}")
    return 0


def _paths_problems(schedule, sidecar: Path) -> list[str]:
    """Check `schedule` against the path family its sidecar names."""
    if not sidecar.exists():
        return [f"--paths needs the metadata sidecar {sidecar}"]
    try:
        family = path_family(schedule.metadata)
    except ValueError as exc:
        return [f"sidecar {sidecar}: {exc}"]
    if family is None:
        return [f"sidecar generator {schedule.metadata.get('generator')!r} names no path family"]
    infra, systems = family
    if infra.n != schedule.n:
        return [f"sidecar n={infra.n} differs from the schedule's n={schedule.n}"]
    report = validate_paths_respecting(schedule, infra, systems)
    return [] if report.ok else [f"{report.reason} {report.witness}"]


# Config, file and schedule problems are errors; timeouts are data.  A JSON
# decode error is a ValueError.
_CONFIG_ERRORS = (KeyError, ValueError, OSError)


def _config_error(exc: Exception) -> int:
    # A KeyError's str() quotes its argument: print a message as it is, and
    # name a bare key (a config field, say) as missing.
    if isinstance(exc, KeyError):
        arg = str(exc.args[0]) if exc.args else ""
        exc = arg if " " in arg else f"missing key {arg!r}"
    print(f"ERROR: {exc}", file=sys.stderr)
    return 1


def _cmd_run(args) -> int:
    try:
        rows = run_experiment(ExperimentConfig.from_json(args.config))
    except _CONFIG_ERRORS as exc:
        return _config_error(exc)
    for row in rows:
        print(
            f"n={row['n']} seed={row['seed']} completion={row['completion_round']}"
            + (f" sentinel={row['sentinel_round']}" if row["sentinel_round"] != "" else "")
        )
    return 0


def _cmd_sweep(args) -> int:
    try:
        summary = sweep(ExperimentConfig.from_json(args.config))
    except _CONFIG_ERRORS as exc:
        return _config_error(exc)
    for n in sorted(summary.per_n):
        entry = summary.per_n[n]
        print(
            f"n={n} median={entry.get('median')} mean={entry.get('mean')} "
            f"timeouts={entry['timeout_fraction']:.2%}"
        )
    print(f"log-log slope ({summary.measure}): {summary.slope:.3f}")
    return 0


def _cmd_separation(args) -> int:
    try:
        arrivals = load_trace(args.trace)
        metadata = json.loads(Path(args.meta).read_text(encoding="utf-8"))
        stats = measure_blocker_separation(arrivals, metadata)
    except _CONFIG_ERRORS as exc:
        return _config_error(exc)
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
    gen.add_argument("--horizon", type=int, default=None, help="required by random, ring-failure, center-terminal")
    gen.add_argument("--policy", default=None)
    gen.add_argument("--r", type=int, default=None)
    gen.add_argument("--extra-edge-prob", type=float, default=None)
    gen.add_argument("--epsilon", type=float, default=None)
    gen.set_defaults(func=_cmd_gen)

    val = sub.add_parser("validate", help="validate a schedule file")
    val.add_argument("schedule")
    val.add_argument("--paths", action="store_true", help="check the sidecar's path family")
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
