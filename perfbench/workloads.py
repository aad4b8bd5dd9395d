"""The benchmark's four workloads, each one kind of harness cell.

Each cell kind turns (n, seed) into one harness cell: an `ExperimentConfig`
for `gossipsim.harness.run_cell`, its own measurement call (timed with the
cell) and an output check (not timed).  The program under test only ever
receives the generated config; everything the checks need is derived here,
before the timed region starts.

Checks read the final state only through the public `TokenState.holds`, so a
rewrite of the token-state representation keeps them valid.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable

from gossipsim import harness


@dataclass
class Cell:
    """One generated harness cell plus what is needed to judge its output."""

    config: harness.ExperimentConfig
    n: int
    seed: int
    # The cell's own measurement call, timed together with run_cell.
    measure: Callable[[harness.CellResult], object] | None
    # Returns the list of failed output checks; empty means correct.
    check: Callable[[harness.CellResult, object], list[str]]


@dataclass(frozen=True)
class CellKind:
    name: str
    n: int
    tiny_n: int  # size used by the smoke tests
    make: Callable[[int, int], Cell]


def _config(adversary, protocol, initial, n, seed, max_rounds, stop_at_sentinel=False):
    return harness.ExperimentConfig(
        adversary=adversary,
        protocol=protocol,
        initial=initial,
        n_list=[n],
        seeds=[seed],
        max_rounds=max_rounds,
        stop_at_sentinel=stop_at_sentinel,
    )


def _missing_tokens(state, tokens) -> int:
    return sum(
        1 for v in range(state.n) for tok in range(tokens) if not state.holds(v, tok)
    )


def _check_completion(cell: harness.CellResult, budget: int, tokens: int) -> list[str]:
    problems = []
    result = cell.result
    if result.completion_round is None or result.completion_round > budget:
        problems.append(f"completion {result.completion_round} not within {budget}")
    missing = _missing_tokens(result.final_state, tokens)
    if missing:
        problems.append(f"{missing} (node, token) pairs missing at the end")
    return problems


def randdiff_ring(n: int, seed: int) -> Cell:
    """rand-diff from one source holding all n tokens, ring minus one edge
    per round (round-robin), horizon = max_rounds = 4n."""
    rounds = 4 * n
    config = _config(
        {"name": "ring-failure", "policy": "round-robin", "horizon": rounds},
        {"name": "rand-diff"},
        {"kind": "single-source"},
        n, seed, rounds,
    )
    return Cell(config, n, seed, None, lambda cell, _: _check_completion(cell, rounds, n))


def kgossip_budget(n: int, k: int) -> int:
    """The centralized k-gossip completion budget of acceptance criterion 5."""
    return min(n * k, math.ceil(64 * (n + k) * math.sqrt(n) * math.log2(n) ** 2))


def kgossip_random(n: int, seed: int) -> Cell:
    """The staged centralized pipeline, k = 2n tokens at one source, on
    random 1-interval-connected graphs (tree plus p = 0.1 extra edges)."""
    k = 2 * n
    budget = kgossip_budget(n, k)
    config = _config(
        {"name": "random", "extra_edge_prob": 0.1, "horizon": min(budget, 4096)},
        {"name": "central-kgossip", "mode": "staged"},
        {"kind": "single-source", "tokens": k},
        n, seed, budget,
    )
    return Cell(config, n, seed, None, lambda cell, _: _check_completion(cell, budget, k))


def skb_blocker(n: int, seed: int) -> Cell:
    """skb-uniform against the blocker-set line for the schedule's whole
    horizon, then the blocker separation statistic on the final arrivals."""
    spec = {"name": "skb-blocker"}
    # Built here, outside the timed region, for the horizon, the segment
    # metadata and the insertions the check needs; only compact copies are
    # kept so the check data adds little to the cell's peak memory.
    schedule = harness.build_schedule(spec, n, seed)
    horizon = schedule.horizon
    metadata = schedule.metadata
    insertions = array("q")
    for ev in schedule.insertions:
        insertions.extend((ev.round, ev.node, ev.token))
    del schedule
    config = _config(spec, {"name": "skb-uniform"}, {"kind": "single-source"}, n, seed, horizon)

    def measure(cell: harness.CellResult) -> dict:
        return harness.measure_blocker_separation(cell.result.final_state.arrivals, metadata)

    def check(cell: harness.CellResult, separation: dict) -> list[str]:
        problems = []
        result = cell.result
        if result.rounds_executed != horizon:
            problems.append(f"rounds executed {result.rounds_executed} != horizon {horizon}")
        state = result.final_state
        lost = sum(
            1
            for i in range(0, len(insertions), 3)
            if insertions[i] <= result.rounds_executed
            and not state.holds(insertions[i + 1], insertions[i + 2])
        )
        if lost:
            problems.append(f"{lost} executed insertions not held at their node")
        if not separation or separation.get("pairs_measured", 0) <= 0:
            problems.append(f"separation measured no pairs: {separation}")
        return problems

    return Cell(config, n, seed, measure, check)


def blocker_sentinel(n: int, seed: int) -> Cell:
    """rand-diff against the invasive blocker line, single source holding
    all n tokens, stopped when a sentinel token first reaches a target."""
    config = _config(
        {"name": "blocker-invasive"},
        {"name": "rand-diff"},
        {"kind": "single-source"},
        n, seed, 12 * n,
        stop_at_sentinel=True,
    )

    def check(cell: harness.CellResult, _) -> list[str]:
        executed = cell.result.rounds_executed
        if cell.sentinel_round is None or cell.sentinel_round != executed:
            return [f"sentinel round {cell.sentinel_round} != rounds executed {executed}"]
        return []

    return Cell(config, n, seed, None, check)


RANDDIFF_RING = CellKind("randdiff-ring", 384, 16, randdiff_ring)
KGOSSIP_RANDOM = CellKind("kgossip-random", 64, 8, kgossip_random)
SKB_BLOCKER = CellKind("skb-blocker", 2048, 64, skb_blocker)
BLOCKER_SENTINEL = CellKind("blocker-sentinel", 4096, 144, blocker_sentinel)

WORKLOADS = {kind.name: kind for kind in (RANDDIFF_RING, KGOSSIP_RANDOM, SKB_BLOCKER, BLOCKER_SENTINEL)}
