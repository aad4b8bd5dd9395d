"""Paths-respecting adversaries and their constraint validator.

A paths-respecting schedule keeps every round's graph inside a fixed
infrastructure graph and declares, per node pair, a set of vertex-disjoint
paths of which at most (path count - 1) edges may be inactive in any round.

Two generator families:

* ring-failure: the n-cycle with one edge removed per round,
* center-terminal: r hub nodes adjacent to every other node; per round a
  fixed-size group of hubs loses all its terminal edges (a constant fraction
  of the infrastructure).

`path_family` rebuilds either from a schedule's generator metadata.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping

from .core import (
    AdversarySchedule,
    Check,
    Edge,
    NetworkSnapshot,
    RoundSource,
    canonical_edge,
    derive_rng,
    node_array,
)


def validate_paths_respecting(
    schedule: AdversarySchedule,
    infrastructure: NetworkSnapshot,
    systems: PairPathSystems,
) -> Check:
    """Check every round's inactive edges against the family's budgets.

    Rejects outright if some snapshot uses an edge outside the
    infrastructure; otherwise reports the budget violation of the earliest
    round (lowest pair index within it), with witness (pair index, round,
    inactive count, budget).  Each distinct inactive-edge set is checked
    once, at its first round, by `systems.first_violation`.
    """
    first_round: dict[frozenset[Edge], int] = {}
    last = None
    for t in range(1, schedule.horizon + 1):
        snap = schedule.snapshot_at(t)
        if snap is last:
            continue
        last = snap
        extra = snap.edges - infrastructure.edges
        if extra:
            return Check(False, "edge-outside-infrastructure", (t, sorted(extra)[0]))
        inactive = infrastructure.edges - snap.edges
        if inactive:
            first_round.setdefault(inactive, t)
    for inactive, t in first_round.items():  # in round order
        found = systems.first_violation(inactive)
        if found is not None:
            idx, count, budget = found
            return Check(False, "budget-exceeded", (idx, t, count, budget))
    return Check(True)


@dataclass(frozen=True)
class PairPathSystems:
    """The vertex-disjoint path systems of every pair s < d of n nodes, in
    (s, d) order; pair (s, d) has index s(2n - s - 1)/2 + d - s - 1.

    A pair may lose at most (path count - 1) of its paths' edges in a round.
    No path is built or stored: `first_violation(inactive)` counts each
    pair's inactive path edges from the inactive set alone and returns
    (pair index, count, budget) for the first pair over its budget, or None.
    """

    n: int
    first_violation: Callable[[frozenset[Edge]], tuple[int, int, int] | None]

    def __len__(self) -> int:
        return self.n * (self.n - 1) // 2


def path_family(metadata: Mapping) -> tuple[NetworkSnapshot, PairPathSystems] | None:
    """The infrastructure and pair path systems of the generator `metadata`
    names, from its params n and r; None if that generator has no family.

    Metadata may come from a file's sidecar, so this raises ValueError
    unless n is an integer >= 3 and, for center-terminal, r one in [3, n-1].
    """
    generator = metadata.get("generator")
    if generator not in ("ring-failure", "center-terminal"):
        return None
    params = metadata.get("params")
    if not isinstance(params, Mapping):
        params = {}
    n, r = params.get("n"), params.get("r")
    if type(n) is not int or n < 3:
        raise ValueError(f"need an integer n >= 3, got {n!r}")
    if generator == "ring-failure":
        return ring_infrastructure(n), ring_path_systems(n)
    if type(r) is not int or not 3 <= r <= n - 1:
        raise ValueError(f"need an integer r in [3, n-1], got {r!r}")
    return center_terminal_infrastructure(n, r), center_terminal_path_systems(n, r)


# ---------------------------------------------------------------------------
# Ring with one failing edge


def ring_infrastructure(n: int) -> NetworkSnapshot:
    return NetworkSnapshot(n, {canonical_edge(i, (i + 1) % n) for i in range(n)})


def _ring_violation(inactive: frozenset[Edge]) -> tuple[int, int, int] | None:
    # A pair's two arcs cover every ring edge once, so every pair counts
    # them all against a budget of 1, and pair (0, 1) is the first over it.
    return (0, len(inactive), 1) if len(inactive) > 1 else None


def ring_path_systems(n: int) -> PairPathSystems:
    """For every pair s < d, the two arcs of the cycle: s, s+1, ..., d and
    s, s-1, ..., 0, n-1, ..., d."""
    return PairPathSystems(n, _ring_violation)


def build_ring_failure(
    n: int, policy: str, seed: int, horizon: int
) -> tuple[AdversarySchedule, NetworkSnapshot, PairPathSystems]:
    """n-cycle minus exactly one edge per round; emits the pair path systems.

    Policies: `round-robin` removes edge (t-1 mod n, t mod n) in round t,
    `random` removes a seeded uniform edge, `fixed-edge` always removes
    edge (0, 1).
    """
    metadata = {
        "generator": "ring-failure",
        "params": {"n": n, "policy": policy, "horizon": horizon},
        "seed": seed,
    }
    infra, systems = path_family(metadata)
    rng = derive_rng(seed, "ring-failure", n, horizon)
    policies = {
        "round-robin": lambda t: t % n,
        "random": lambda t: rng.randrange(n),
        "fixed-edge": lambda t: 0,
    }
    if policy not in policies:
        raise ValueError(f"unknown policy {policy!r}")
    # Round t removes ring edge (k, k+1 mod n) for its stored k.
    removed = node_array(n, map(policies[policy], range(horizon)))

    def build(k: int) -> NetworkSnapshot:
        infra.directed_edges  # sorted in the first round; every round's graph splices it
        return infra.edited([(k, k + 1) if k + 1 < n else (0, k)])

    schedule = AdversarySchedule(
        n=n,
        horizon=horizon,
        rounds=RoundSource(lambda t: removed[t - 1], build),
        mode="oblivious",
        metadata=metadata,
        cyclic_extendable=True,
    )
    return schedule, infra, systems


# ---------------------------------------------------------------------------
# Center-terminal infrastructure


def center_terminal_infrastructure(n: int, r: int) -> NetworkSnapshot:
    """r centers adjacent to every other vertex; terminals only meet centers."""
    edges = set()
    for c in range(r):
        for v in range(n):
            if v != c:
                edges.add(canonical_edge(c, v))
    return NetworkSnapshot(n, edges)


def _center_terminal_violation(
    n: int, r: int, inactive: frozenset[Edge]
) -> tuple[int, int, int] | None:
    deg = [0] * n  # inactive edges at each terminal (0 at centers)
    center_edges = 0  # inactive center-center edges
    for u, v in inactive:
        if v < r:
            center_edges += 1
        else:
            deg[v] += 1
    budget = r - 1
    top = heapq.nlargest(2, deg[r:]) + [0]
    if not center_edges and top[0] + top[1] <= budget:
        return None
    # Scan to name the first pair over its budget.  A center row's pairs
    # with centers come before its terminals, and every inactive edge counted
    # in cc(s) is some center pair over its budget of 0, in this row or an
    # earlier one; so the scan reaches a center's terminals only with
    # cc(s) = 0, where a pair counts deg(s) + deg(d) = deg(d).
    for s in range(n):
        row = s * (2 * n - s - 1) // 2 - s - 1  # pair (s, d) has index row + d
        for d in range(s + 1, n):
            if d < r:
                if (s, d) in inactive:
                    return row + d, 1, 0
            elif deg[s] + deg[d] > budget:
                return row + d, deg[s] + deg[d], budget
    return None


def center_terminal_path_systems(n: int, r: int) -> PairPathSystems:
    """Center pairs s < d < r use their direct edge alone.  A center s and
    a terminal d use the direct edge and s, c, d for every other center c;
    they count cc(s) + deg(d), the inactive center-center edges at s plus
    the inactive edges at d.  Two terminals use s, c, d for every center c
    and count deg(s) + deg(d).  Pairs with a terminal have budget r - 1."""
    return PairPathSystems(n, partial(_center_terminal_violation, n, r))


def build_center_terminal(
    n: int, r: int, seed: int, horizon: int
) -> tuple[AdversarySchedule, NetworkSnapshot, PairPathSystems]:
    """Per round, floor((r-2)/2) centers lose every terminal edge.

    The disabled group advances by a seeded rotation (committed up front, so
    the adversary stays oblivious).  Center-center edges survive, keeping
    each round connected.
    """
    fail_count = (r - 2) // 2
    metadata = {
        "generator": "center-terminal",
        "params": {"n": n, "r": r, "horizon": horizon, "fail_count": fail_count},
        "seed": seed,
    }
    infra, systems = path_family(metadata)
    rng = derive_rng(seed, "center-terminal", n, r, horizon)
    offset = rng.randrange(r)
    # Round t disables centers first, first + 1, ... (mod r) for its stored first.
    firsts = node_array(r, ((offset + t) % r for t in range(horizon)))

    def build(first: int) -> NetworkSnapshot:
        disabled = [(first + i) % r for i in range(fail_count)]
        infra.directed_edges  # sorted in the first round; every round's graph splices it
        return infra.edited([(c, v) for c in disabled for v in range(r, n)])

    schedule = AdversarySchedule(
        n=n,
        horizon=horizon,
        rounds=RoundSource(lambda t: firsts[t - 1], build),
        mode="oblivious",
        metadata=metadata,
        cyclic_extendable=True,
    )
    return schedule, infra, systems

