"""Protocol step semantics and empirical send distributions."""

import math
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim.core import (
    AdversarySchedule,
    NetworkSnapshot,
    TokenState,
    TokenUniverse,
    derive_rng,
    run_simulation,
    validate_plan,
)
from gossipsim.harness import initial_state
from gossipsim.protocols import (
    STEPPED_PROTOCOLS,
    Flood,
    RandDiff,
    UniformSkbPolicy,
    check_skb_policy,
    flood_step,
    get_protocol,
    rand_diff_step,
    sym_diff_step,
)
from gossipsim.skb_adversary import SkbAdversaryParams, build_skb_adversary


def two_node_state(u_tokens, v_tokens, size=None):
    size = size if size is not None else (max(list(u_tokens) + list(v_tokens), default=-1) + 1)
    universe = TokenUniverse(max(size, 1), max(size, 1))
    return TokenState(2, universe, {0: u_tokens, 1: v_tokens})


EDGE = NetworkSnapshot(2, [(0, 1)])


def three_sigma(p, trials):
    return 3 * math.sqrt(p * (1 - p) / trials)


class TestRandDiff:
    def test_singleton_difference_deterministic(self):
        state = two_node_state([0, 1], [0])
        plan = rand_diff_step(state, EDGE, derive_rng(0))
        assert (0, 1, 1) in plan

    def test_subset_no_send(self):
        state = two_node_state([0], [0, 1])
        plan = rand_diff_step(state, EDGE, derive_rng(0))
        assert all(send[0] != 0 for send in plan)

    def test_uniform_over_difference(self):
        trials = 30000
        counts = {0: 0, 1: 0, 2: 0}
        for trial in range(trials):
            state = two_node_state([0, 1, 2], [])
            plan = rand_diff_step(state, EDGE, derive_rng("u", trial))
            (send,) = plan
            counts[send[2]] += 1
        bound = three_sigma(1 / 3, trials)
        for tok in counts:
            assert abs(counts[tok] / trials - 1 / 3) <= bound

    def test_progress_on_every_possible_edge(self):
        # one send per directed edge whenever the difference is nonempty
        n = 5
        snap = NetworkSnapshot(n, [(i, i + 1) for i in range(n - 1)] + [(0, 4)])
        state = TokenState(n, TokenUniverse(n, n), {v: [v] for v in range(n)})
        plan = rand_diff_step(state, snap, derive_rng(1))
        expected = sum(
            1
            for u, v in snap.directed_edges
            if state.tokens(u) - state.tokens(v)
        )
        assert len(plan) == expected
        validate_plan(plan, snap, state)

    def test_static_line_single_token_exact_completion(self):
        # every frontier difference is a singleton, so completion is exact
        n = 6
        snap = NetworkSnapshot(n, [(i, i + 1) for i in range(n - 1)])
        schedule = AdversarySchedule(n, n, [snap] * n, cyclic_extendable=True)
        state = TokenState(n, TokenUniverse(1, 1), {0: [0]})
        result = run_simulation(schedule, RandDiff(), state, n, seed=11)
        assert result.completion_round == n - 1


class TestSymDiff:
    def test_each_side_half(self):
        trials = 30000
        u_sends = 0
        for trial in range(trials):
            state = two_node_state([0], [1])
            plan = sym_diff_step(state, EDGE, derive_rng("s", trial))
            assert len(plan) == 1
            if plan[0][0] == 0:
                u_sends += 1
        assert abs(u_sends / trials - 0.5) <= three_sigma(0.5, trials)

    def test_equal_sets_no_send(self):
        state = two_node_state([0, 1], [0, 1])
        assert sym_diff_step(state, EDGE, derive_rng(0)) == []

    def test_empty_holder_never_sends(self):
        for trial in range(200):
            state = two_node_state([0, 1], [])
            plan = sym_diff_step(state, EDGE, derive_rng("e", trial))
            assert len(plan) == 1
            assert plan[0][0] == 0

    def test_one_send_per_undirected_edge(self):
        n = 4
        snap = NetworkSnapshot(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        state = TokenState(n, TokenUniverse(n, n), {v: [v] for v in range(n)})
        plan = sym_diff_step(state, snap, derive_rng(3))
        used = {tuple(sorted((u, v))) for u, v, _ in plan}
        assert len(used) == len(plan)


class TestSkb:
    def test_single_token_broadcast(self):
        state = two_node_state([0], [])
        plan = UniformSkbPolicy().step(state, EDGE, derive_rng(0))
        assert plan == [(0, 1, 0)]

    def test_empty_node_never_sends(self):
        state = two_node_state([], [0])
        plan = UniformSkbPolicy().step(state, EDGE, derive_rng(0))
        assert all(send[0] != 0 for send in plan)

    def test_uniform_frequencies(self):
        trials = 30000
        counts = {t: 0 for t in range(4)}
        star = NetworkSnapshot(2, [(0, 1)])
        for trial in range(trials):
            state = two_node_state([0, 1, 2, 3], [])
            plan = UniformSkbPolicy().step(state, star, derive_rng("k", trial))
            sent = {send[2] for send in plan if send[0] == 0}
            assert len(sent) == 1
            counts[sent.pop()] += 1
        bound = three_sigma(0.25, trials)
        for tok in counts:
            assert abs(counts[tok] / trials - 0.25) <= bound

    def test_mutual_exclusivity_per_node(self):
        n = 6
        snap = NetworkSnapshot(n, [(i, (i + 1) % n) for i in range(n)])
        state = TokenState(n, TokenUniverse(n, n), {v: [v, (v + 1) % n] for v in range(n)})
        plan = UniformSkbPolicy().step(state, snap, derive_rng(9))
        per_node_tokens = {}
        for u, _, tok in plan:
            per_node_tokens.setdefault(u, set()).add(tok)
        assert all(len(toks) == 1 for toks in per_node_tokens.values())

    def test_broadcast_hits_all_lacking_neighbors(self):
        n = 4
        star = NetworkSnapshot(n, [(0, v) for v in range(1, n)])
        state = TokenState(n, TokenUniverse(1, 1), {0: [0]})
        plan = UniformSkbPolicy().step(state, star, derive_rng(2))
        assert sorted(plan) == [(0, v, 0) for v in range(1, n)]


    def test_uniform_round_draw_is_randbelow(self):
        # One node per list length m = 1..5000, each beside a sink that
        # holds nothing, so every pick shows as a send; each pick must be
        # the stream's `_randbelow(m)`, and the streams must end in step.
        lengths = range(1, 5001)
        sink = len(lengths)
        # skb-uniform reads only the arrival orders, membership rows and
        # adjacency
        state = SimpleNamespace(
            holdings_seq=[range(m) for m in lengths] + [()], member=[b""] * (sink + 1)
        )
        snap = SimpleNamespace(adjacency=[[sink]] * sink + [[]])
        for key in range(4):
            rng, ref = derive_rng("skb-draw", key), derive_rng("skb-draw", key)
            plan = UniformSkbPolicy().step(state, snap, rng)
            assert plan == [(i, sink, ref._randbelow(m)) for i, m in enumerate(lengths)]
            assert rng.random() == ref.random()

    def test_uniform_round_draw_skips_empty_nodes(self):
        rng, ref = derive_rng("skb-empty"), derive_rng("skb-empty")
        state = TokenState(4, TokenUniverse(8, 8))
        for node, tok in [(1, 7), (1, 3), (3, 5)]:  # node 1's arrival order: 7, 3
            state.add_mask(node, 1 << tok, 0)
        plan = UniformSkbPolicy().step(state, NetworkSnapshot(4, [(0, 1), (2, 3)]), rng)
        assert plan == [(1, 0, [7, 3][ref._randbelow(2)]), (3, 2, 5)]
        ref._randbelow(1)  # a single held token still costs a draw
        assert rng.random() == ref.random()


class TestCheckSkbPolicy:
    def test_uniform_passes(self):
        state = two_node_state([0, 1], [1])
        report = check_skb_policy(UniformSkbPolicy(), state, round_index=1)
        assert report.ok

    def test_asymmetric_same_arrival_fails(self):
        class Lopsided(UniformSkbPolicy):
            def masses(self, round_index, node, arrivals):
                masses = {}
                for tok in arrivals:
                    masses[tok] = 0.5 if tok == max(arrivals) else 0.25
                return masses

        state = two_node_state([0, 1], [])
        report = check_skb_policy(Lopsided(), state, round_index=3)
        assert not report.ok
        assert any("arrived at round 0" in v for v in report.witness)

    def test_excess_mass_fails(self):
        class Heavy(UniformSkbPolicy):
            def masses(self, round_index, node, arrivals):
                return {tok: 0.6 for tok in arrivals}

        state = two_node_state([0, 1], [])
        report = check_skb_policy(Heavy(), state, round_index=1)
        assert not report.ok
        assert any("exceeds 1" in v for v in report.witness)

    def test_unheld_mass_fails(self):
        class Phantom(UniformSkbPolicy):
            def masses(self, round_index, node, arrivals):
                return {99: 1.0}

        state = two_node_state([0], [], size=100)
        report = check_skb_policy(Phantom(), state, round_index=1)
        assert not report.ok
        assert any("unheld" in v for v in report.witness)


    def test_registered_policies_pass_on_a_blocker_run(self):
        schedule = build_skb_adversary(SkbAdversaryParams(512, 7))
        names = [name for name in STEPPED_PROTOCOLS if name.startswith("skb-")]
        assert names
        for name in names:
            protocol = get_protocol(name)
            state = initial_state({"kind": "single-source"}, 512, schedule)
            result = run_simulation(schedule, protocol, state, schedule.horizon, seed=7)
            assert result.rounds_executed == schedule.horizon
            report = check_skb_policy(protocol.policy, result.final_state, schedule.horizon + 1)
            assert report.ok, (name, report.reason)


class TestFlood:
    def test_path_depth(self):
        n = 3
        snap = NetworkSnapshot(n, [(0, 1), (1, 2)])
        schedule = AdversarySchedule(n, 2, [snap] * 2, cyclic_extendable=True)
        state = TokenState(n, TokenUniverse(1, 1), {0: [0]})
        result = run_simulation(schedule, Flood(0), state, 2, seed=0)
        assert result.completion_round == 2

    def test_saturated_region_silent(self):
        state = two_node_state([0], [0])
        assert flood_step(0, state, EDGE) == []

    def test_token_outside_universe_silent(self):
        state = two_node_state([0, 1], [], size=2)
        assert all(flood_step(tok, state, EDGE) == [] for tok in (-1, 2, 99))

    def test_star_one_round(self):
        n = 5
        star = NetworkSnapshot(n, [(0, v) for v in range(1, n)])
        state = TokenState(n, TokenUniverse(1, 1), {0: [0]})
        plan = flood_step(0, state, star)
        assert sorted(plan) == [(0, v, 0) for v in range(1, n)]


class TestRegistry:
    def test_names(self):
        assert get_protocol("rand-diff").name == "rand-diff"
        assert get_protocol("sym-diff").name == "sym-diff"
        assert get_protocol("skb-uniform").name == "skb-uniform"
        assert get_protocol("flood:3").token == 3

    def test_unknown_rejected(self):
        try:
            get_protocol("nope")
        except KeyError:
            return
        raise AssertionError


@given(
    st.integers(2, 7),
    st.integers(0, 2**16),
    st.sampled_from(["rand-diff", "sym-diff", "skb-uniform"]),
)
@settings(max_examples=60, deadline=None)
def test_plans_always_valid(n, seed, name):
    rng = derive_rng("state", seed)
    edges = {(i, i + 1) for i in range(n - 1)}
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add(tuple(sorted((u, v))))
    snap = NetworkSnapshot(n, edges)
    holdings = {v: [t for t in range(n) if rng.random() < 0.5] for v in range(n)}
    state = TokenState(n, TokenUniverse(n, n), holdings)
    protocol = get_protocol(name)
    plan = protocol.plan_round(state, snap, derive_rng("draw", seed))
    validate_plan(plan, snap, state)


def reference_rand_diff(state, snapshot, rng):
    """rand-diff from token sets: ascending directed edges, a uniform
    `rng.choice` over the sorted difference, no draw for a single token."""
    plan = []
    for u, v in sorted(pair for a, b in snapshot.edges for pair in ((a, b), (b, a))):
        diff = sorted(state.tokens(u) - state.tokens(v))
        if diff:
            plan.append((u, v, diff[0] if len(diff) == 1 else rng.choice(diff)))
    return plan


def shared_sets_case(n, distinct, seed, line):
    """A state whose nodes draw their holdings from a few shared sets, so
    many edges join equal sets, on a line or a path plus random chords."""
    rng = derive_rng("equal-rows", seed)
    size = rng.randrange(1, 3 * n)
    pool = [[t for t in range(size) if rng.random() < 0.6] for _ in range(distinct)]
    state = TokenState(n, TokenUniverse(size, size), {v: rng.choice(pool) for v in range(n)})
    order = list(range(n))
    rng.shuffle(order)
    if line:
        return state, NetworkSnapshot.line(n, order)
    extra = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n)}
    return state, NetworkSnapshot(n, set(zip(order, order[1:])) | extra)


@given(st.integers(2, 40), st.integers(1, 4), st.integers(0, 2**32), st.booleans())
@settings(max_examples=80, deadline=None)
def test_rand_diff_step_matches_choice_over_sorted_difference(n, distinct, seed, line):
    """The plan and the rng stream match the set-based reference."""
    state, snap = shared_sets_case(n, distinct, seed, line)
    ours, ref = derive_rng("draw", seed), derive_rng("draw", seed)
    assert rand_diff_step(state, snap, ours) == reference_rand_diff(state, snap, ref)
    assert ours.random() == ref.random()  # the streams stay in step


def reference_sym_diff(state, snapshot, rng):
    """sym-diff from token sets: ascending edges, a uniform `rng.choice`
    over the sorted symmetric difference, sent by the endpoint that holds
    the drawn token (by `state.holds`)."""
    plan = []
    for u, v in sorted(snapshot.edges):
        sym = sorted(state.tokens(u) ^ state.tokens(v))
        if sym:
            tok = sym[0] if len(sym) == 1 else rng.choice(sym)
            plan.append((u, v, tok) if state.holds(u, tok) else (v, u, tok))
    return plan


@given(st.integers(2, 40), st.integers(1, 4), st.integers(0, 2**32), st.booleans())
@settings(max_examples=80, deadline=None)
def test_sym_diff_step_matches_choice_over_sorted_symmetric_difference(
    n, distinct, seed, line
):
    """Sym-Diff's draw order: edges in `sorted(snap.edges)` order, one
    `rng.choice` over the sorted symmetric difference per edge that has
    more than one token; the plan and the rng stream match the reference."""
    state, snap = shared_sets_case(n, distinct, seed, line)
    ours, ref = derive_rng("draw", seed), derive_rng("draw", seed)
    assert sym_diff_step(state, snap, ours) == reference_sym_diff(state, snap, ref)
    assert ours.random() == ref.random()  # the streams stay in step


def reference_skb(state, snapshot, rng):
    """skb-uniform from arrival orders: in ascending node order, each node
    holding m > 0 tokens picks `holdings_seq[v][rng._randbelow(m)]` and
    sends it to each neighbour that does not hold it by `state.holds`."""
    plan = []
    for node, seq in enumerate(state.holdings_seq):
        if seq:
            tok = seq[rng._randbelow(len(seq))]
            plan += [(node, nb, tok) for nb in snapshot.adjacency[node] if not state.holds(nb, tok)]
    return plan


def reference_flood(token, state, snapshot):
    plan = []
    for u, v in snapshot.edges:
        if state.holds(u, token) != state.holds(v, token):
            plan.append((u, v, token) if state.holds(u, token) else (v, u, token))
    return plan


@given(st.integers(2, 30), st.integers(1, 3000), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_steps_on_short_rows_match_set_references(n, size, seed):
    """Holdings in narrow bands at random offsets, so rows end at 512, 1024,
    2048 or the universe size and some nodes hold nothing: sym-diff,
    skb-uniform and flood plan what references built on `holds` plan."""
    rng = derive_rng("short-rows", seed)
    holdings = {}
    for v in range(n):
        if rng.random() < 0.7:
            low = rng.randrange(size)
            band = range(low, min(size, low + rng.randrange(1, 80)))
            holdings[v] = [t for t in band if rng.random() < 0.5] or [low]
    state = TokenState(n, TokenUniverse(size, size), holdings)
    for v in range(n):
        assert max(holdings.get(v, [-1])) < len(state.member[v]) <= size
    order = list(range(n))
    rng.shuffle(order)
    extra = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n // 2)}
    snap = NetworkSnapshot(n, set(zip(order, order[1:])) | extra)
    ours, ref = derive_rng("draw", seed), derive_rng("draw", seed)
    assert sym_diff_step(state, snap, ours) == reference_sym_diff(state, snap, ref)
    assert UniformSkbPolicy().step(state, snap, ours) == reference_skb(state, snap, ref)
    assert ours.random() == ref.random()  # the streams stay in step
    held = sorted({t for tokens in holdings.values() for t in tokens})
    for token in [-1, 0, size - 1, size, *rng.sample(held, min(5, len(held)))]:
        assert flood_step(token, state, snap) == reference_flood(token, state, snap)


@given(st.integers(4, 30), st.integers(1, 3000), st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_uniform_step_matches_randbelow_reference(n, size, seed):
    """skb-uniform's one-pass plan equals `reference_skb`, and the streams
    end in step, on graphs with a node of degree above 2 and the cases a
    one-pass draw must not skip or misread: a node whose neighbours all hold
    every token it holds (it still draws), a node holding a single token
    (the highest id, past short rows), an empty node beside holders (an
    empty row), and banded short rows elsewhere."""
    rng = derive_rng("one-pass", seed)
    order = list(range(n))
    rng.shuffle(order)
    dead, _, empty, single = order[:4]
    apart = {frozenset((dead, empty)), frozenset((dead, single))}
    pairs = set(zip(order, order[1:]))  # dead - x - empty - single - ...
    pairs |= {(dead, v) for v in rng.sample(order[4:], min(3, n - 4))}
    pairs |= {tuple(rng.sample(range(n), 2)) for _ in range(n // 2)}
    snap = NetworkSnapshot(n, [p for p in pairs if frozenset(p) not in apart])
    holdings = {}
    for v in range(n):
        if rng.random() < 0.7:
            low = rng.randrange(size)
            band = range(low, min(size, low + rng.randrange(1, 80)))
            holdings[v] = [t for t in band if rng.random() < 0.5] or [low]
    holdings.pop(empty, None)
    holdings[single] = [size - 1]
    holdings.setdefault(dead, [rng.randrange(size)])
    for nb in snap.adjacency[dead]:
        holdings[nb] = sorted(set(holdings.get(nb, ())) | set(holdings[dead]))
    state = TokenState(n, TokenUniverse(size, size), holdings)
    assert len(snap.adjacency[dead]) > 2 or n < 6
    ours, ref = derive_rng("draw", seed), derive_rng("draw", seed)
    assert UniformSkbPolicy().step(state, snap, ours) == reference_skb(state, snap, ref)
    assert ours.random() == ref.random()  # the streams stay in step


class TestInformationDiscipline:
    def test_rand_diff_chi_square_uniform_at_fixed_state(self):
        # conditional on the difference set, each token wins equally often
        from scipy import stats as scipy_stats

        counts = {t: 0 for t in range(5)}
        trials = 20000
        for trial in range(trials):
            state = two_node_state(range(5), [])
            plan = rand_diff_step(state, EDGE, derive_rng("chi", trial))
            counts[plan[0][2]] += 1
        assert scipy_stats.chisquare(list(counts.values())).pvalue > 0.001

    def test_plan_recomputable_from_local_views(self):
        # the difference rule uses only view-visible data: recomputing the
        # plan from per-node views (same rng) reproduces the step exactly.
        # A node's view is its own token set and its neighbours' sets.
        n = 6
        snap = NetworkSnapshot(n, [(i, i + 1) for i in range(n - 1)] + [(0, 3), (2, 5)])
        rng_state = derive_rng("views")
        holdings = {
            v: [t for t in range(n) if rng_state.random() < 0.5] for v in range(n)
        }
        state = TokenState(n, TokenUniverse(n, n), holdings)
        plan = rand_diff_step(state, snap, derive_rng("draws", 1))

        views = {
            v: (state.tokens(v), {u: state.tokens(u) for u in snap.adjacency[v]})
            for v in range(n)
        }
        rng = derive_rng("draws", 1)
        replan = []
        for u, v in snap.directed_edges:
            own, neighbor_tokens = views[u]
            diff = set(own) - set(neighbor_tokens[v])
            if diff:
                tok = diff.pop() if len(diff) == 1 else rng.choice(sorted(diff))
                replan.append((u, v, tok))
        assert replan == plan
