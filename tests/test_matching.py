"""Matching correctness against exhaustive search."""

from gossipsim.core import NetworkSnapshot, TokenState, TokenUniverse, derive_rng, validate_plan
from gossipsim.matching import (
    BipartiteInstance,
    exchange_instance,
    greedy_exchange_round,
    max_bipartite_matching,
)


def brute_force_max_matching(instance: BipartiteInstance) -> int:
    """Exhaustive assignment search; exponential, for small oracles only."""
    senders_of = {tok: [] for tok in instance.right}
    for u, tok in instance.adjacency:
        senders_of[tok].append(u)
    tokens = list(instance.right)

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
    left = tuple(range(rng.randint(1, max_side)))
    right = tuple(100 + t for t in range(rng.randint(1, max_side)))
    adjacency = frozenset(
        (u, tok) for u in left for tok in right if rng.random() < rng.choice([0.15, 0.35, 0.7])
    )
    return BipartiteInstance(left, right, adjacency)


class TestMaxBipartiteMatching:
    def test_perfect_matching(self):
        inst = BipartiteInstance((0, 1), (10, 11), frozenset([(0, 10), (1, 11)]))
        assert len(max_bipartite_matching(inst)) == 2

    def test_single_left_vertex(self):
        inst = BipartiteInstance((0,), (10, 11), frozenset([(0, 10), (0, 11)]))
        assert len(max_bipartite_matching(inst)) == 1

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
            assert all(pair in inst.adjacency for pair in matching)
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
