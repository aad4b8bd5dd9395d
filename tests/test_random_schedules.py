"""Random connected schedule generator: tree shapes, the law, the draw contract."""

import hashlib
import json
import math
import tracemalloc
from itertools import combinations

import pytest
from scipy import stats

from gossipsim.core import NetworkSnapshot, derive_rng, validate_snapshot
from gossipsim.harness import build_schedule
from gossipsim.random_schedules import build_random_interval_connected, random_spanning_tree


def snapshots(schedule):
    """Every round's graph, through `snapshot_at`."""
    return [schedule.snapshot_at(t) for t in range(1, schedule.horizon + 1)]


def spanning_trees_of_k4():
    """All 16 labeled spanning trees of K4 (Cayley: 4^2)."""
    all_edges = list(combinations(range(4), 2))
    trees = []
    for edges in combinations(all_edges, 3):
        parent = list(range(4))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for u, v in edges:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            trees.append(frozenset(edges))
    return trees


def reference_spanning_tree(n, rng):
    """Wilson's walks drawing each step with `rng._randbelow(n - 1)`."""
    in_tree, parent = [True] + [False] * (n - 1), [-1] * n
    for start in range(1, n):
        u = start
        while not in_tree[u]:
            nxt = rng._randbelow(n - 1)
            nxt += nxt >= u
            parent[u], u = nxt, nxt
        u = start
        while not in_tree[u]:
            in_tree[u], u = True, parent[u]
    return [(v, p) if v < p else (p, v) for v, p in enumerate(parent) if p >= 0]


def reference_extra_edges(n, log_q, rng):
    """The extra pairs by geometric skipping, walked row by row with the
    overshoot carried into the following rows."""
    edges, u, v = [], 0, 0  # (0, 0) sits just before the first pair (0, 1)
    while True:
        v += int(math.log(1.0 - rng.random()) / log_q) + 1
        while v >= n:  # row u holds n - u - 1 pairs
            if u == n - 2:
                return edges
            u += 1
            v -= n - u - 1
        edges.append((u, v))


class TestSpanningTree:
    @pytest.mark.parametrize("n", [2, 3, 16, 65])
    def test_tree_draw_is_randbelow(self, n):
        """The inlined walk step consumes the stream of `_randbelow(n - 1)`:
        the same trees, and the next draw agrees."""
        rng, ref = derive_rng("tree-stream", n), derive_rng("tree-stream", n)
        for _ in range(20):
            assert random_spanning_tree(n, rng) == reference_spanning_tree(n, ref)
        assert rng.random() == ref.random()

    def test_cayley_count(self):
        assert len(spanning_trees_of_k4()) == 16

    def test_tree_shape(self):
        rng = derive_rng("tree-shape")
        for n in (2, 3, 5, 9):
            for _ in range(20):
                edges = random_spanning_tree(n, rng)
                assert len(edges) == n - 1

    def test_uniform_over_labeled_trees(self):
        trees = spanning_trees_of_k4()
        index = {t: i for i, t in enumerate(trees)}
        counts = [0] * 16
        rng = derive_rng("tree-uniformity")
        draws = 16000
        for _ in range(draws):
            counts[index[frozenset(random_spanning_tree(4, rng))]] += 1
        result = stats.chisquare(counts)
        assert result.pvalue > 0.001


class TestSchedule:
    def test_prob_zero_gives_trees(self):
        for p in (0.0, 1e-9):
            schedule = build_random_interval_connected(8, p, seed=1, horizon=50)
            for snap in snapshots(schedule):
                assert len(snap.edges) == 7
                assert validate_snapshot(snap).ok

    def test_prob_one_gives_complete_graphs(self):
        schedule = build_random_interval_connected(6, 1.0, seed=1, horizon=5)
        for snap in snapshots(schedule):
            assert len(snap.edges) == 15

    def test_all_rounds_connected(self):
        schedule = build_random_interval_connected(10, 0.2, seed=2, horizon=40)
        for snap in snapshots(schedule):
            assert validate_snapshot(snap).ok

    def test_deterministic(self):
        a = build_random_interval_connected(9, 0.3, seed=5, horizon=10)
        b = build_random_interval_connected(9, 0.3, seed=5, horizon=10)
        assert [s.edges for s in snapshots(a)] == [s.edges for s in snapshots(b)]

    def test_metadata_and_cyclic_tail(self):
        schedule = build_random_interval_connected(7, 0.2, seed=4, horizon=12)
        assert schedule.horizon == len(snapshots(schedule)) == 12
        assert schedule.cyclic_extendable
        assert schedule.mode == "oblivious"
        assert schedule.metadata == {
            "generator": "random-interval-connected",
            "params": {"n": 7, "extra_edge_prob": 0.2, "horizon": 12},
            "seed": 4,
        }


    def test_rounds_are_stored_compactly(self):
        """Every round is drawn at build time but kept as endpoint arrays; a
        snapshot per round traced 89.6 MB here."""
        tracemalloc.start()
        try:
            schedule = build_schedule({"name": "random", "horizon": 4096}, 64, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert schedule.horizon == 4096
        assert peak < 8 * 2**20


class TestLaw:
    def test_trees_uniform_over_cayley_trees(self):
        """At p = 0 every round is one of the 16 labeled trees of K4, each
        equally likely."""
        trees = spanning_trees_of_k4()
        index = {t: i for i, t in enumerate(trees)}
        counts = [0] * 16
        for snap in snapshots(build_random_interval_connected(4, 0.0, seed=11, horizon=16000)):
            counts[index[snap.edges]] += 1
        assert stats.chisquare(counts).pvalue > 0.001

    def test_extra_edges_independent_with_prob_p(self):
        """At n = 6, p = 0.3: a round has n - 1 tree edges plus
        Binomial(C(n, 2) - (n - 1), p) extra ones, and each pair is present
        with probability 2/n + (1 - 2/n) p (a uniform tree holds a given pair
        with probability (n - 1) / C(n, 2) = 2/n)."""
        n, p, rounds = 6, 0.3, 6000
        pairs = list(combinations(range(n), 2))
        non_tree = len(pairs) - (n - 1)
        graphs = snapshots(build_random_interval_connected(n, p, seed=12, horizon=rounds))

        extras = [len(s.edges) - (n - 1) for s in graphs]
        assert min(extras) >= 0
        # Bins 0..7 and one bin for 8..10, so every expected count is above 5.
        law = stats.binom(non_tree, p)
        observed = [extras.count(j) for j in range(8)] + [sum(e >= 8 for e in extras)]
        expected = [rounds * law.pmf(j) for j in range(8)] + [rounds * law.sf(7)]
        assert stats.chisquare(observed, expected).pvalue > 0.001
        assert abs(sum(extras) / (rounds * non_tree) - p) < 0.01

        q = 2 / n + (1 - 2 / n) * p
        for pair in pairs:
            hits = sum(pair in s.edges for s in graphs)
            assert stats.binomtest(hits, rounds, q).pvalue > 0.001 / len(pairs), pair

    def test_prefix_stable(self):
        """The horizon is not part of the draw key: a shorter schedule is a
        prefix of a longer one with the same (seed, n, p)."""
        for p in (0.0, 0.2):
            short = build_random_interval_connected(10, p, seed=7, horizon=50)
            long = build_random_interval_connected(10, p, seed=7, horizon=200)
            assert [s.edges for s in snapshots(short)] == [s.edges for s in snapshots(long)[:50]]

    def test_draw_contract_pinned(self):
        """Any change to the random-draw stream of the generator must update
        this digest on purpose (and be declared, since generated graphs and
        every outcome on them change)."""
        schedule = build_random_interval_connected(9, 0.3, seed=5, horizon=10)
        payload = json.dumps([sorted(s.edges) for s in snapshots(schedule)]).encode()
        assert hashlib.sha256(payload).hexdigest() == (
            "14d9da11e7f9e6299e41c6503e9ec0adb7efd25300d352b3138f12437005f66e"
        )

    def test_draw_contract_pinned_at_benchmark_size(self):
        """The same pin at the kgossip-random benchmark's n and p, where the
        extra-edge pair indices need two bytes."""
        schedule = build_random_interval_connected(64, 0.1, seed=1, horizon=64)
        payload = json.dumps([sorted(s.edges) for s in snapshots(schedule)]).encode()
        assert hashlib.sha256(payload).hexdigest() == (
            "4cda94f6e55e65f785fd47611baa0b595ebae18a1e86680ec65b3020fe846354"
        )

    @pytest.mark.parametrize("n", [2, 3, 24, 64])
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
    def test_rounds_equal_the_flipping_constructor(self, n, p):
        """Rounds are frozen from their canonical pairs as given; the
        constructor that flips each pair builds the same graphs from the
        reversed pairs."""
        for snap in snapshots(build_random_interval_connected(n, p, seed=4, horizon=30)):
            assert snap == NetworkSnapshot(n, [(v, u) for u, v in snap.edges])
            assert all(u < v for u, v in snap.edges)

    @pytest.mark.parametrize("n", [2, 3, 23, 24, 64])
    @pytest.mark.parametrize("p", [1e-9, 0.1, 0.5, 0.999])
    def test_rounds_match_row_walk(self, n, p):
        """Every round is its tree and then the extra pairs of the row-by-row
        walk, in that order, on the same stream.  n = 23 and 24 sit on both
        sides of one-byte pair indices (253 and 276 pairs)."""
        schedule = build_random_interval_connected(n, p, seed=3, horizon=40)
        rng, log_q = derive_rng(3, "random-interval", n), math.log1p(-p)
        for snap in snapshots(schedule):
            tree = random_spanning_tree(n, rng)
            expected = NetworkSnapshot(n, tree + reference_extra_edges(n, log_q, rng))
            assert list(snap.edges) == list(expected.edges)
