#!/usr/bin/env python3
"""Centralized k-gossip across an (n, k) grid on random connected schedules.

Reports completion rounds against the min(nk, 64(n+k)sqrt(n)log^2 n) budget
for sequential per-token flooding (mode naive) and, with --staged, the
staged pipeline.

Usage: python scripts/kgossip_budget_sweep.py [--n 16 32 64] [--seeds 3]
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gossipsim.central import k_gossip_centralized, pad_state_for_kgossip  # noqa: E402
from gossipsim.core import EngineRun, TokenState, TokenUniverse  # noqa: E402
from gossipsim.random_schedules import build_random_interval_connected  # noqa: E402


def run_grid(n_values, seeds, mode):
    print(f"--- strategy: {mode} ---")
    for n in n_values:
        for k in (n // 2, n, 2 * n):
            budget = min(n * k, math.ceil(64 * (n + k) * math.sqrt(n) * math.log2(n) ** 2))
            completions = []
            for seed in range(1, seeds + 1):
                schedule = build_random_interval_connected(
                    n, 0.1, seed=seed, horizon=min(budget, 4096)
                )
                state = pad_state_for_kgossip(TokenState(n, TokenUniverse(k, k), {0: range(k)}))
                run = EngineRun(schedule, state, seed, max_rounds=8 * budget)
                outcome = k_gossip_centralized(run, mode)
                completions.append(outcome.result.completion_round)
            print(
                f"n={n:3d} k={k:4d} budget={budget:7d} completions={completions}"
            )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[16, 32, 64])
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--staged", action="store_true", help="also run the staged pipeline")
    args = parser.parse_args()
    run_grid(args.n, args.seeds, "naive")
    if args.staged:
        run_grid(args.n, args.seeds, "staged")


if __name__ == "__main__":
    main()
