"""Baseline oblivious adversary: random connected graph per round.

Each round is a uniformly random labeled spanning tree (Wilson's algorithm on
the complete graph) plus every non-tree edge independently with a given
probability.  Connectivity per round holds by construction.

Draw contract: one `random.Random` stream per (seed, n), consumed round by
round; the horizon is not part of the key, so a schedule is a prefix of any
longer one with the same (seed, n, p).  A round draws its tree first, one
`_randbelow(n - 1)` per walk step, then its extra edges by geometric skipping
over the u < v pairs in row-major order (Batagelj & Brandes, Phys. Rev. E 71,
036113, 2005): O(n + p n^2) draws per round instead of one Bernoulli draw per
pair.  At p = 1 every round is the complete graph and nothing is drawn.

Every round is drawn when the schedule is built, so drawing costs nothing
inside a run.  A round is kept as its tree's n - 1 parents and its extra
pairs' row-major indices.  Its graph, tree edges first, is built when a run
or a consumer asks for it, from the schedule's n(n-1)/2 edge tuples (about
75 bytes a pair: 145 KB at n = 64).
"""

from __future__ import annotations

import math
import random
from array import array
from itertools import chain

from .core import AdversarySchedule, Edge, NetworkSnapshot, RoundSource, derive_rng, node_array


def _tree_parents(n: int, rng: random.Random) -> list[int]:
    """Node v's parent in a uniform labeled spanning tree rooted at 0
    (parent[0] = -1), by Wilson's loop-erased random walks.

    A walk step is `rng._randbelow(n - 1)`, inlined as its getrandbits
    rejection loop so the stream stays the same.
    """
    getrandbits = rng.getrandbits
    last = n - 1
    bits = last.bit_length()
    in_tree, parent = [True] + [False] * last, [-1] * n
    for start in range(1, n):
        u = start
        # Random walk recording successors; loops are erased implicitly
        # because parent[u] is overwritten on revisits.
        while not in_tree[u]:
            nxt = getrandbits(bits)
            while nxt >= last:
                nxt = getrandbits(bits)
            if nxt >= u:
                nxt += 1
            parent[u] = nxt
            u = nxt
        u = start
        while not in_tree[u]:
            in_tree[u], u = True, parent[u]
    return parent


def random_spanning_tree(n: int, rng: random.Random) -> list[Edge]:
    """Uniform labeled spanning tree via loop-erased random walks.

    On the complete graph Wilson's walk from each unattached vertex hits the
    tree quickly, so the expected cost is near-linear.  Edges are canonical.
    """
    parent = _tree_parents(n, rng)
    return [(v, p) if v < p else (p, v) for v, p in enumerate(parent) if p >= 0]


def _extra_edges(pairs: int, log_q: float, rng: random.Random, out: array) -> None:
    """Append the index of each of the `pairs` u < v pairs, chosen
    independently with probability p, to `out`; log_q = log(1 - p).

    The gap to the next chosen pair in row-major order is geometric,
    int(log(1 - U) / log(1 - p)) + 1, so only chosen pairs cost a draw.  The
    quotient is never negative, so `floor` truncates it as `int` would.
    """
    rand, add = rng.random, out.append
    log, floor = math.log, math.floor
    k = -1  # just before the first pair (0, 1)
    while True:
        k += floor(log(1.0 - rand()) / log_q) + 1
        if k >= pairs:
            return
        add(k)


def build_random_interval_connected(
    n: int, extra_edge_prob: float, seed: int, horizon: int
) -> AdversarySchedule:
    """Random 1-interval-connected schedule: tree plus random extra edges."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not (0.0 <= extra_edge_prob <= 1.0):
        raise ValueError("extra_edge_prob must be in [0, 1]")
    rng = derive_rng(seed, "random-interval", n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]  # row-major
    if extra_edge_prob >= 1.0:
        rounds = RoundSource.static(NetworkSnapshot.from_canonical(n, pairs))
    else:
        # Round t's tree is parents[(t-1)(n-1):t(n-1)], the parents of nodes
        # 1..n-1, and its extra pairs' indices are extra[ends[t-1]:ends[t]].
        parents, extra, ends = node_array(n), node_array(len(pairs)), array("Q", [0])
        log_q = math.log1p(-extra_edge_prob) if extra_edge_prob > 0.0 else 0.0
        for _ in range(horizon):
            parents.extend(_tree_parents(n, rng)[1:])
            if log_q:
                _extra_edges(len(pairs), log_q, rng, extra)
            ends.append(len(extra))
        edge = [[None] * n for _ in range(n)]  # [v][w]: pairs' tuple, shared by the trees
        for e in pairs:
            edge[e[0]][e[1]] = edge[e[1]][e[0]] = e
        tree_rows, row_item, pair_of = edge[1:], list.__getitem__, pairs.__getitem__

        def build(t: int) -> NetworkSnapshot:
            a = (t - 1) * (n - 1)
            tree = map(row_item, tree_rows, parents[a : a + n - 1])
            extras = map(pair_of, extra[ends[t - 1] : ends[t]])
            return NetworkSnapshot.from_canonical(n, chain(tree, extras))

        rounds = RoundSource(lambda t: t, build)
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
