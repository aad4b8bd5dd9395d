"""Matching correctness against exhaustive search."""

import hashlib

from gossipsim.core import NetworkSnapshot, TokenState, TokenUniverse, derive_rng, validate_plan
from gossipsim.matching import exchange_instance, greedy_exchange_round, max_bipartite_matching


def brute_force_max_matching(senders_of: dict[int, list[int]]) -> int:
    """Exhaustive assignment search; exponential, for small oracles only."""
    tokens = list(senders_of)

    def best(idx, used):
        if idx == len(tokens):
            return 0
        score = best(idx + 1, used)  # skip this token
        for u in senders_of[tokens[idx]]:
            if u not in used:
                used.add(u)
                score = max(score, 1 + best(idx + 1, used))
                used.remove(u)
        return score

    return best(0, set())


def random_instance(rng, max_side=8):
    """A random sender map: tokens 100.. to ascending senders 0.. ."""
    left = range(rng.randint(1, max_side))
    right = [100 + t for t in range(rng.randint(1, max_side))]
    senders_of = {tok: [] for tok in right}
    for u in left:
        for tok in right:
            if rng.random() < rng.choice([0.15, 0.35, 0.7]):
                senders_of[tok].append(u)
    return senders_of


class TestMaxBipartiteMatching:
    def test_perfect_matching(self):
        assert len(max_bipartite_matching({10: [0], 11: [1]})) == 2

    def test_single_left_vertex(self):
        assert len(max_bipartite_matching({10: [0], 11: [0]})) == 1

    def test_matches_brute_force_on_random_instances(self):
        rng = derive_rng("matching-oracle")
        for _ in range(150):
            inst = random_instance(rng)
            matching = max_bipartite_matching(inst)
            # structural: no endpoint reused, edges exist
            senders = [u for u, _ in matching]
            tokens = [tok for _, tok in matching]
            assert len(set(senders)) == len(senders)
            assert len(set(tokens)) == len(tokens)
            assert all(u in inst[tok] for u, tok in matching)
            assert len(matching) == brute_force_max_matching(inst)

    def test_deterministic(self):
        rng = derive_rng("matching-det")
        for _ in range(25):
            inst = random_instance(rng)
            assert max_bipartite_matching(inst) == max_bipartite_matching(inst)


def random_connected_state(rng, n_max=8, tokens_max=8):
    n = rng.randint(2, n_max)
    size = rng.randint(1, tokens_max)
    edges = {(i, i + 1) for i in range(n - 1)}
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add(tuple(sorted((u, v))))
    snap = NetworkSnapshot(n, edges)
    holdings = {v: [t for t in range(size) if rng.random() < 0.5] for v in range(n)}
    state = TokenState(n, TokenUniverse(size, size), holdings)
    return state, snap


class TestGreedyExchange:
    def test_star_gains_two(self):
        snap = NetworkSnapshot(3, [(0, 1), (0, 2)])
        state = TokenState(3, TokenUniverse(3, 3), {0: [2], 1: [0, 2], 2: [1, 2]})
        plan = greedy_exchange_round(state, snap)
        gains = [tok for _, v, tok in plan if v == 0]
        assert sorted(gains) == [0, 1]

    def test_identical_holdings_empty_plan(self):
        snap = NetworkSnapshot(3, [(0, 1), (1, 2)])
        state = TokenState(3, TokenUniverse(2, 2), {v: [0, 1] for v in range(3)})
        assert greedy_exchange_round(state, snap) == []

    def test_per_node_optimality_matches_brute_force(self):
        rng = derive_rng("exchange-oracle")
        for _ in range(120):
            state, snap = random_connected_state(rng)
            plan = greedy_exchange_round(state, snap)
            validate_plan(plan, snap, state)
            received: dict[int, set] = {}
            for _, v, tok in plan:
                received.setdefault(v, set()).add(tok)
            for v in range(state.n):
                inst = exchange_instance(state, snap, v)
                optimum = brute_force_max_matching(inst)
                assert len(received.get(v, ())) == optimum

    def test_new_tokens_only(self):
        rng = derive_rng("exchange-new")
        for _ in range(40):
            state, snap = random_connected_state(rng)
            for u, v, tok in greedy_exchange_round(state, snap):
                assert state.holds(u, tok)
                assert not state.holds(v, tok)

    def test_token_filter_respected(self):
        snap = NetworkSnapshot(2, [(0, 1)])
        state = TokenState(2, TokenUniverse(4, 4), {0: [0, 1, 2, 3], 1: []})
        plan = greedy_exchange_round(state, snap, token_filter={2})
        assert plan == [(0, 1, 2)]

    def test_plans_pinned(self):
        # Which maximum matching each receiver gets, not just its size: the
        # ascending-token, ascending-sender tie-breaks over 200 random states,
        # every other one restricted to a random token filter.
        rng = derive_rng("exchange-pin")
        digest = hashlib.sha256()
        for i in range(200):
            state, snap = random_connected_state(rng)
            token_filter = None
            if i % 2:
                token_filter = {t for t in range(state.universe.size) if rng.random() < 0.5}
            digest.update(repr(greedy_exchange_round(state, snap, token_filter)).encode())
        assert digest.hexdigest() == (
            "59e029e86d47d4bfcaed809af222ee7aeb6e5ab79f87746c8c6c3f9e7e2f25c2"
        )
