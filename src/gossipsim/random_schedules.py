"""Baseline oblivious adversary: random connected graph per round.

Each round is a uniformly random labeled spanning tree (Wilson's algorithm on
the complete graph) plus every non-tree edge independently with a given
probability.  Connectivity per round holds by construction.

Draw contract: one `random.Random` stream per (seed, n), consumed round by
round; the horizon is not part of the key, so a schedule is a prefix of any
longer one with the same (seed, n, p).  A round draws its tree first, then its
extra edges by geometric skipping over the u < v pairs in row-major order
(Batagelj & Brandes, Phys. Rev. E 71, 036113, 2005): O(n + p n^2) draws per
round instead of one Bernoulli draw per pair.  At p = 1 every round is the
complete graph and nothing is drawn.

Every round is drawn when the schedule is built, so drawing costs nothing
inside a run; the rounds are stored as endpoint arrays and a round's graph
is built only when a run or a consumer asks for it.
"""

from __future__ import annotations

import math
import random
from array import array

from .core import AdversarySchedule, Edge, NetworkSnapshot, RoundSource, derive_rng, node_array


def random_spanning_tree(n: int, rng: random.Random) -> list[Edge]:
    """Uniform labeled spanning tree via loop-erased random walks.

    On the complete graph Wilson's walk from each unattached vertex hits the
    tree quickly, so the expected cost is near-linear.  Edges are canonical.
    """
    if n == 1:
        return []
    randbelow = rng._randbelow  # the stream of rng.randrange(n - 1)
    last = n - 1
    in_tree = [False] * n
    parent = [-1] * n
    in_tree[0] = True
    for start in range(1, n):
        if in_tree[start]:
            continue
        u = start
        # Random walk recording successors; loops are erased implicitly
        # because parent[u] is overwritten on revisits.
        while not in_tree[u]:
            nxt = randbelow(last)
            if nxt >= u:
                nxt += 1
            parent[u] = nxt
            u = nxt
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            u = parent[u]
    return [(v, p) if v < p else (p, v) for v, p in enumerate(parent) if p >= 0]


def _extra_edges(n: int, log_q: float, rng: random.Random, us, vs) -> None:
    """Append each u < v pair independently with probability p to the
    endpoint arrays `us`, `vs`; log_q = log(1 - p).

    The gap to the next chosen pair in row-major order is geometric,
    int(log(1 - U) / log(1 - p)) + 1, so only chosen pairs cost a draw.
    """
    rand = rng.random
    log = math.log
    add_u, add_v = us.append, vs.append
    u, v = 0, 0  # (0, 0) sits just before the first pair (0, 1)
    last_row = n - 2
    while True:
        v += int(log(1.0 - rand()) / log_q) + 1
        # Carry the overshoot into the following rows; row u holds n - u - 1 pairs.
        while v >= n:
            if u == last_row:
                return
            u += 1
            v -= n - u - 1
        add_u(u)
        add_v(v)


def build_random_interval_connected(
    n: int, extra_edge_prob: float, seed: int, horizon: int
) -> AdversarySchedule:
    """Random 1-interval-connected schedule: tree plus random extra edges."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not (0.0 <= extra_edge_prob <= 1.0):
        raise ValueError("extra_edge_prob must be in [0, 1]")
    rng = derive_rng(seed, "random-interval", n)
    if extra_edge_prob >= 1.0:
        rounds = RoundSource.static(
            NetworkSnapshot(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        )
    else:
        # Every round is drawn now; round t's edges are us/vs[ends[t-1]:ends[t]],
        # the tree's first, then the extra pairs (a pair may appear twice).
        us, vs = node_array(n), node_array(n)
        ends = array("Q", [0])
        log_q = math.log1p(-extra_edge_prob) if extra_edge_prob > 0.0 else 0.0
        for _ in range(horizon):
            for u, v in random_spanning_tree(n, rng):
                us.append(u)
                vs.append(v)
            if log_q:
                _extra_edges(n, log_q, rng, us, vs)
            ends.append(len(us))
        rounds = RoundSource.edge_arrays(n, us, vs, ends)
    return AdversarySchedule(
        n=n,
        horizon=horizon,
        rounds=rounds,
        mode="oblivious",
        metadata={
            "generator": "random-interval-connected",
            "params": {"n": n, "extra_edge_prob": extra_edge_prob, "horizon": horizon},
            "seed": seed,
        },
        cyclic_extendable=True,
    )
