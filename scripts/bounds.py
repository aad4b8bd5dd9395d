#!/usr/bin/env python3
"""The paper's bounds, one subcommand each; every cell runs through the harness.

  line     Rand-Diff against the blocker line (the n^{3/2} lower bound)
  skb      skb-uniform against the blocker-set line (the n^{4/3} lower bound)
  central  centralized k-gossip on random connected schedules (the staged
           scheduler's n^{3/2} upper bound beside naive per-token flooding)

Usage: python scripts/bounds.py {line,skb,central} [flags]; each subcommand's
--help lists its flags and defaults.
"""

import argparse
import math
import sys
import time
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


def sentinel_cells(adversary, n_list, seeds, protocol, initial, out=None):
    """The sentinel cells' config, and per (n, seed): the first sentinel
    round, with a censored cell (no sentinel within max_rounds) counting as
    max_rounds, the rounds it executed; and the round loop's milliseconds
    per executed round."""
    config = ExperimentConfig(
        adversary, {"name": protocol}, initial, n_list, seeds, 12 * max(n_list), out,
        stop_at_sentinel=True, measure="sentinel",
    )
    cells = {}
    for row in run_experiment(config):
        rounds = row["sentinel_round"] or config.max_rounds
        cells[row["n"], row["seed"]] = (rounds, float(row["wall_time_ms"]) / rounds)
    return config, cells


def line_epsilon(args, epsilon, seeds, out):
    adversary = {"name": f"blocker-{args.variant}", "epsilon": epsilon}
    config, rand_diff = sentinel_cells(adversary, args.n, seeds, "rand-diff", SINGLE_SOURCE, out)
    arms = {"rand-diff": rand_diff}
    if args.variant == "oblivious":
        no_scatter = dict(SINGLE_SOURCE, start_holdings=False)
        arms["no-scatter"] = sentinel_cells(adversary, args.n, seeds, "rand-diff", no_scatter)[1]
    points = []
    for n in sorted(args.n):
        horizon = BlockerLineParams(n, seeds[0], epsilon).invasive_horizon()  # seed-independent
        # the highest token id is always a sentinel
        arms["flood"] = sentinel_cells(adversary, [n], seeds, f"flood:{n - 1}", SINGLE_SOURCE)[1]
        medians = {name: median([cells[n, s][0] for s in seeds]) for name, cells in arms.items()}
        med = medians["rand-diff"]
        control = max(v for name, v in medians.items() if name != "rand-diff")
        early = sum(1 for s in seeds if rand_diff[n, s][0] < horizon)
        cleared = "every cell cleared it" if early == 0 else f"{early} cells crossed before it"
        diluted = "above the controls" if med > control else "NOT above the controls"
        # The earliest cell's witness, from a rerun that keeps the final state.
        first_seed = min(seeds, key=lambda s: rand_diff[n, s][0])
        final = run_cell(config, n, first_seed, keep_result=True).result.final_state
        witness = first_sentinel_crossing(final, build_schedule(adversary, n, first_seed).metadata)
        seen = (
            "no crossing"
            if witness is None
            else f"round {witness[0]}, node {witness[1]}, token {witness[2]} (seed {first_seed})"
        )
        controls = "  ".join(f"{name}={medians.get(name, '-')}" for name in ("flood", "no-scatter"))
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


def line(args):
    """Sentinel arrival against the blocker line: per (n, epsilon), Rand-Diff
    from the generator's start distribution, beside two controls on the same
    schedules (flooding one sentinel; on the oblivious line, Rand-Diff from
    the source alone).  Prints the horizon, the medians, the earliest
    crossing's witness, whether criterion 6 holds, each arm's median ms per
    executed round and the log-log slope; writes the Rand-Diff rows as CSV,
    one file per epsilon (`<stem>-eps<epsilon><suffix>`) when several."""
    seeds = list(range(1, args.seeds + 1))
    for epsilon in args.epsilon:
        out = args.out
        if len(args.epsilon) > 1:
            path = Path(out)
            out = str(path.with_name(f"{path.stem}-eps{epsilon:g}{path.suffix}"))
        line_epsilon(args, epsilon, seeds, out)


def skb(args):
    """skb-uniform from the single source against the blocker-set line, to
    its horizon; counts the segments in which a non-blocker token reached a
    watched outer node within the segment's rounds."""
    t0 = time.time()
    adversary = {"name": "skb-blocker", "seed": args.seed}
    schedule = build_schedule(adversary, args.n, 1)  # for its horizon and segments
    config = ExperimentConfig(
        adversary, {"name": "skb-uniform"}, SINGLE_SOURCE, [args.n], [1], schedule.horizon
    )
    arrivals = run_cell(config, args.n, 1, keep_result=True).result.final_state.arrivals
    non_blockers = range(*schedule.metadata["non_blocker_tokens"])
    segments = schedule.metadata["segments"]
    crossed = 0
    for seg in segments:
        a, b = seg["rounds"]
        if any(
            a <= rnd <= b and tok in non_blockers
            for v in seg["outer"]
            for tok, rnd in arrivals[v].items()
        ):
            crossed += 1
    print(
        f"n={args.n} horizon={schedule.horizon} segments={len(segments)} "
        f"crossed={crossed} fraction={crossed / len(segments):.4f} "
        f"wall={time.time() - t0:.1f}s"
    )


def central(args):
    """Centralized k-gossip from one source over an (n, k) grid, k in
    {n/2, n, 2n}, on random connected schedules (p = 0.1): completion rounds
    against the min(nk, 64(n+k)sqrt(n)log^2 n) budget, for naive per-token
    flooding and, with --staged, the staged pipeline."""
    seeds = list(range(1, args.seeds + 1))
    for mode in ("naive", "staged") if args.staged else ("naive",):
        print(f"--- strategy: {mode} ---")
        for n in args.n:
            for k in (n // 2, n, 2 * n):
                budget = min(n * k, math.ceil(64 * (n + k) * math.sqrt(n) * math.log2(n) ** 2))
                adversary = {"name": "random", "extra_edge_prob": 0.1, "horizon": min(budget, 4096)}
                config = ExperimentConfig(
                    adversary, {"name": "central-kgossip", "mode": mode},
                    {"kind": "single-source", "tokens": k}, [n], seeds, 8 * budget,
                )
                completions = [row["completion_round"] for row in run_experiment(config)]
                print(f"n={n:3d} k={k:4d} budget={budget:7d} completions={completions}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(run):
        sub = commands.add_parser(run.__name__, description=run.__doc__)
        sub.set_defaults(run=run)
        return sub.add_argument

    arg = command(line)
    arg("--n", type=int, nargs="+", default=[64, 144, 256, 400])
    arg("--seeds", type=int, default=5)
    arg("--epsilon", type=float, nargs="+", default=[DEFAULT_EPSILON])
    arg("--variant", choices=["oblivious", "invasive"], default="oblivious")
    arg("--out", default="lower_bound_sweep.csv")
    arg = command(skb)
    arg("--n", type=int, default=4096)
    arg("--seed", type=int, default=7)
    arg = command(central)
    arg("--n", type=int, nargs="+", default=[16, 32, 64])
    arg("--seeds", type=int, default=3)
    arg("--staged", action="store_true", help="also run the staged pipeline")
    args = parser.parse_args()
    args.run(args)


if __name__ == "__main__":
    main()
