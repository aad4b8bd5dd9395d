#!/usr/bin/env python3
"""Sentinel-arrival sweep against the blocker-line adversary.

For each (n, epsilon), builds per-seed blocker schedules of the chosen
variant, runs the difference-based protocol from the generator's start
distribution (every token at the source; on the oblivious line also the
scatter holders' blocker groups at their nodes), and records the first round
a designated sentinel token reaches a designated right-line target.  The
same cells are run for the controls: flooding one sentinel token, and, on
the oblivious line, rand-diff from the source alone (no scatter).  The
invasive line's scatter is inserted by the schedule itself, so it has no
no-scatter control.

Prints, per (n, epsilon): the schedule horizon; the three sentinel medians;
the ratio of rand-diff's median to the larger control median; rand-diff's
median crossing as a fraction of the horizon; the witness (round, node,
token) of the earliest rand-diff crossing among the seeds; whether the cells
meet acceptance criterion 6 (every rand-diff cell clears the horizon, and
its median exceeds the controls'); and each arm's median milliseconds per
executed round (the round loop's time over the rounds it ran).  Then the
fitted log-log slope per epsilon, and writes the rand-diff rows as CSV (one
file per epsilon when several are given, named `<stem>-eps<epsilon><suffix>`).

Usage: python scripts/lower_bound_sweep.py [--n 64 144 256 400] [--seeds 5]
           [--epsilon 0.5 0.375] [--variant oblivious|invasive]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gossipsim.blocker_line import DEFAULT_EPSILON, BlockerLineParams  # noqa: E402
from gossipsim.harness import (  # noqa: E402
    ExperimentConfig,
    build_schedule,
    first_sentinel_crossing,
    fit_loglog_slope,
    median,
    run_cell,
    run_experiment,
)

SINGLE_SOURCE = {"kind": "single-source"}


def sentinel_rounds(adversary, n_list, seeds, protocol, initial, out=None):
    config = ExperimentConfig(
        adversary=adversary,
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
    return config, cells


def earliest_witness(config, n, seed):
    """(round, node, token) of the cell's first crossing, from a rerun that
    keeps the final state; None if no sentinel crossed."""
    cell = run_cell(config, n, seed, keep_result=True)
    metadata = build_schedule(config.adversary, n, seed).metadata
    return first_sentinel_crossing(cell.result.final_state, metadata)


def out_path(out, epsilon, several):
    if not several:
        return out
    path = Path(out)
    return str(path.with_name(f"{path.stem}-eps{epsilon:g}{path.suffix}"))


def sweep_epsilon(args, epsilon, seeds, out):
    adversary = {"name": f"blocker-{args.variant}", "epsilon": epsilon}
    config, rand_diff = sentinel_rounds(adversary, args.n, seeds, "rand-diff", SINGLE_SOURCE, out)
    arms = {"rand-diff": rand_diff}
    if args.variant == "oblivious":
        arms["no-scatter"] = sentinel_rounds(
            adversary, args.n, seeds, "rand-diff", dict(SINGLE_SOURCE, start_holdings=False)
        )[1]
    points = []
    for n in sorted(args.n):
        horizon = BlockerLineParams(n, seeds[0], epsilon).invasive_horizon()  # seed-independent
        # the highest token id is always a sentinel
        arms["flood"] = sentinel_rounds(adversary, [n], seeds, f"flood:{n - 1}", SINGLE_SOURCE)[1]
        medians = {name: median([cells[n, s][0] for s in seeds]) for name, cells in arms.items()}
        med = medians["rand-diff"]
        control = max(v for name, v in medians.items() if name != "rand-diff")
        early = sum(1 for s in seeds if rand_diff[n, s][0] < horizon)
        cleared = "every cell cleared it" if early == 0 else f"{early} cells crossed before it"
        diluted = "above the controls" if med > control else "NOT above the controls"
        first_seed = min(seeds, key=lambda s: rand_diff[n, s][0])
        witness = earliest_witness(config, n, first_seed)
        seen = (
            "no crossing"
            if witness is None
            else f"round {witness[0]}, node {witness[1]}, token {witness[2]} (seed {first_seed})"
        )
        controls = "  ".join(
            f"{name}={medians.get(name, '-')}" for name in ("flood", "no-scatter")
        )
        print(
            f"n={n:5d}  eps={epsilon:g}  horizon={horizon}  rand-diff={med}  {controls}  "
            f"ratio={med / control:.1f}  crossing/horizon={med / horizon:.2f}  runs={len(seeds)}"
        )
        print(f"         earliest crossing: {seen}; {cleared}; {diluted}")
        per_round = "  ".join(
            f"{name}={median([cells[n, s][1] for s in seeds]):.3f}" for name, cells in arms.items()
        )
        print(f"         median ms per executed round: {per_round}")
        points.append((n, med))
    if len(points) >= 2:
        print(f"eps={epsilon:g} log-log slope: {fit_loglog_slope(points):.3f}")
    print(f"rand-diff rows written to {out}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[64, 144, 256, 400])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--epsilon", type=float, nargs="+", default=[DEFAULT_EPSILON])
    parser.add_argument("--variant", choices=["oblivious", "invasive"], default="oblivious")
    parser.add_argument("--out", default="lower_bound_sweep.csv")
    args = parser.parse_args()

    seeds = list(range(1, args.seeds + 1))
    several = len(args.epsilon) > 1
    for epsilon in args.epsilon:
        sweep_epsilon(args, epsilon, seeds, out_path(args.out, epsilon, several))


if __name__ == "__main__":
    main()
