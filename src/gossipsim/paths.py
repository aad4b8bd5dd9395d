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

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Mapping

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


@dataclass(frozen=True)
class PathSystem:
    """Vertex-disjoint simple paths between one source/destination pair.

    A precondition, not checked here: each path joins source to dest, is
    simple, runs along infrastructure edges, and shares no interior node
    with another path.  `path_family` builds its systems that way, and the
    tests check them.
    """

    source: int
    dest: int
    paths: tuple[tuple[int, ...], ...]


def validate_paths_respecting(
    schedule: AdversarySchedule,
    infrastructure: NetworkSnapshot,
    systems: Iterable[PathSystem],
) -> Check:
    """Check every (system, round) pair against the inactive-edge budget.

    Rejects outright if some snapshot uses an edge outside the
    infrastructure; otherwise reports the budget violation of the earliest
    round (lowest system index within it), with witness (system index,
    round, inactive count, budget).  Makes one pass over `systems`;
    rounds with the same inactive-edge set are checked once, at the first.
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
    largest = max(map(len, first_round), default=0)
    witness = None
    for idx, system in enumerate(systems):
        paths = system.paths
        budget = len(paths) - 1
        # Disjoint paths share an edge only if the direct edge is listed
        # twice; otherwise no set of at most `budget` edges can break them.
        if budget >= largest and sum(len(p) == 2 for p in paths) <= 1:
            continue
        edges = [(a, b) if a < b else (b, a) for p in paths for a, b in zip(p, p[1:])]
        for inactive, t in first_round.items():  # in round order
            if witness is not None and t >= witness[1]:
                break
            count = sum(map(inactive.__contains__, edges))
            if count > budget:
                witness = (idx, t, count, budget)
                break
    if witness is not None:
        return Check(False, "budget-exceeded", witness)
    return Check(True)


@dataclass(frozen=True)
class PairPathSystems:
    """The path systems of every pair s < d of n nodes, in (s, d) order.

    Sized and re-iterable.  There are n(n-1)/2 systems of up to n nodes
    each, so each is built from `route(s, d)` only when the iteration
    reaches it; nothing per pair is stored.
    """

    n: int
    route: Callable[[int, int], tuple[tuple[int, ...], ...]]

    def __len__(self) -> int:
        return self.n * (self.n - 1) // 2

    def __iter__(self):
        for s in range(self.n):
            for d in range(s + 1, self.n):
                yield PathSystem(s, d, self.route(s, d))


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


def _ring_arcs(n: int, s: int, d: int) -> tuple[tuple[int, ...], ...]:
    clockwise = tuple(range(s, d + 1))
    counter = (s, *range(s - 1, -1, -1), *range(n - 1, d - 1, -1))
    return (clockwise, counter)


def ring_path_systems(n: int) -> PairPathSystems:
    """For every pair, the two arcs of the cycle (vertex-disjoint)."""
    return PairPathSystems(n, partial(_ring_arcs, n))


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


def _center_routes(r: int, s: int, d: int) -> tuple[tuple[int, ...], ...]:
    if d < r:  # center pair
        return ((s, d),)
    via = tuple((s, c, d) for c in range(r) if c != s)
    if s < r:  # center-terminal pair
        return ((s, d), *via)
    return via  # terminal-terminal pair


def center_terminal_path_systems(n: int, r: int) -> PairPathSystems:
    """Disjoint path families: center pairs use their direct edge (never
    failed); any pair involving a terminal routes through distinct centers."""
    return PairPathSystems(n, partial(_center_routes, r))


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

