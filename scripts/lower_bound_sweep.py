#!/usr/bin/env python3
"""Sentinel-arrival sweep against the oblivious blocker-line adversary.

For each n, builds per-seed oblivious blocker schedules, runs the
difference-based protocol from the generator's start distribution (every
token at the source, the scatter holders' blocker groups at their nodes), and
records the first round a designated sentinel token reaches a designated
right-line target.  The same cells are run for two controls: flooding one
sentinel token, and rand-diff from the source alone (no scatter).  Prints,
per n, the schedule horizon, the three sentinel medians, and whether the
cells meet acceptance criterion 6 (every rand-diff cell clears the horizon,
and its median exceeds both controls'), and each arm's median milliseconds
per executed round (the round loop's time over the rounds it ran), then the
fitted log-log slope, and writes the rand-diff rows as CSV.

Usage: python scripts/lower_bound_sweep.py [--n 64 144 256 400] [--seeds 5]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gossipsim.blocker_line import BlockerLineParams  # noqa: E402
from gossipsim.harness import (  # noqa: E402
    ExperimentConfig,
    fit_loglog_slope,
    median,
    run_experiment,
)

SINGLE_SOURCE = {"kind": "single-source"}


def sentinel_rounds(n_list, seeds, protocol, initial, out=None):
    config = ExperimentConfig(
        adversary={"name": "blocker-oblivious"},
        protocol={"name": protocol},
        initial=initial,
        n_list=n_list,
        seeds=seeds,
        max_rounds=12 * max(n_list),
        out=out,
        stop_at_sentinel=True,
        measure="sentinel",
    )
    # Per (n, seed): the first sentinel round, with censored cells (no
    # sentinel within max_rounds) counting as max_rounds, which is also the
    # number of rounds the cell executed; and the round loop's milliseconds
    # per executed round.
    cells = {}
    for row in run_experiment(config):
        rounds = row["sentinel_round"] or config.max_rounds
        cells[row["n"], row["seed"]] = (rounds, float(row["wall_time_ms"]) / rounds)
    return cells


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[64, 144, 256, 400])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--out", default="lower_bound_sweep.csv")
    args = parser.parse_args()

    seeds = list(range(1, args.seeds + 1))
    rand_diff = sentinel_rounds(args.n, seeds, "rand-diff", SINGLE_SOURCE, args.out)
    no_scatter = sentinel_rounds(
        args.n, seeds, "rand-diff", dict(SINGLE_SOURCE, start_holdings=False)
    )
    points = []
    for n in sorted(args.n):
        horizon = BlockerLineParams(n, seeds[0]).invasive_horizon()  # seed-independent
        # the highest token id is always a sentinel
        flood = sentinel_rounds([n], seeds, f"flood:{n - 1}", SINGLE_SOURCE)
        arms = {"rand-diff": rand_diff, "flood": flood, "no-scatter": no_scatter}
        med, *controls = (median([cells[n, s][0] for s in seeds]) for cells in arms.values())
        early = sum(1 for s in seeds if rand_diff[n, s][0] < horizon)
        cleared = "every cell cleared it" if early == 0 else f"{early} cells crossed before it"
        diluted = "above both controls" if med > max(controls) else "NOT above the controls"
        print(
            f"n={n:5d}  horizon={horizon}  sentinel median={med} ({cleared}; {diluted})  "
            f"flood={controls[0]}  no-scatter={controls[1]}  runs={len(seeds)}"
        )
        per_round = "  ".join(
            f"{name}={median([cells[n, s][1] for s in seeds]):.3f}" for name, cells in arms.items()
        )
        print(f"         median ms per executed round: {per_round}")
        points.append((n, med))
    if len(points) >= 2:
        print(f"log-log slope: {fit_loglog_slope(points):.3f}")
    print(f"rand-diff rows written to {args.out}")


if __name__ == "__main__":
    main()
