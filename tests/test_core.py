"""Engine semantics: snapshot validation, round application, determinism."""

import hashlib
import json
import math
import sys
import tracemalloc
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gossipsim.core import (
    AdversarySchedule,
    EngineRun,
    InsertionEvent,
    NetworkSnapshot,
    PlanError,
    RoundSource,
    ScheduleError,
    TokenState,
    TokenUniverse,
    bfs_distances,
    derive_rng,
    line_phases,
    line_step,
    mask_tokens,
    node_array,
    run_simulation,
    select_token,
    token_mask,
    validate_plan,
    validate_snapshot,
)
from gossipsim.blocker_line import (
    BlockerLineParams,
    build_blocker_line_invasive,
    build_blocker_line_oblivious,
)
from gossipsim.dgs1 import schedule_to_text
from gossipsim.harness import build_schedule, initial_state, make_sentinel_stop
from gossipsim.protocols import RandDiff, get_protocol, rand_diff_step, sym_diff_step
from gossipsim.skb_adversary import SkbAdversaryParams, build_skb_adversary

from reference_sim import reference_rand_diff_completion


def line_schedule(n, horizon=1):
    snap = NetworkSnapshot(n, [(i, i + 1) for i in range(n - 1)])
    return AdversarySchedule(n, horizon, [snap] * horizon, cyclic_extendable=True)


def cycle_schedule(n, horizon=1):
    snap = NetworkSnapshot(n, [(i, (i + 1) % n) for i in range(n)])
    return AdversarySchedule(n, horizon, [snap] * horizon, cyclic_extendable=True)


class TestValidateSnapshot:
    def test_three_node_path_valid(self):
        assert validate_snapshot(NetworkSnapshot(3, [(0, 1), (1, 2)])).ok

    def test_two_isolated_nodes_invalid(self):
        check = validate_snapshot(NetworkSnapshot(2, []))
        assert not check.ok
        assert check.reason == "disconnected"
        assert check.witness == [1]

    def test_k4_valid(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        assert validate_snapshot(NetworkSnapshot(4, edges)).ok

    def test_self_loop_rejected(self):
        check = validate_snapshot(NetworkSnapshot(2, [(0, 1), (1, 1)]))
        assert not check.ok
        assert check.reason == "self-loop"

    def test_out_of_range_rejected(self):
        check = validate_snapshot(NetworkSnapshot(2, [(0, 5)]))
        assert not check.ok
        assert check.reason == "node-out-of-range"

    def test_single_node_valid(self):
        assert validate_snapshot(NetworkSnapshot(1, [])).ok


def masks_of(events):
    """Insertion masks of (round, node, token) events, duplicates merged."""
    masks = {}
    for t, node, tok in sorted(set(events)):
        pairs = masks.setdefault(t, [])
        if pairs and pairs[-1][0] == node:
            pairs[-1] = (node, pairs[-1][1] | 1 << tok)
        else:
            pairs.append((node, 1 << tok))
    return masks


def one_round(state, edges, insertions=()):
    """An engine run over one round of the graph `edges`."""
    snap = NetworkSnapshot(state.n, edges)
    mode = "invasive" if insertions else "oblivious"
    schedule = AdversarySchedule(state.n, 1, [snap], masks_of(insertions), mode)
    return EngineRun(schedule, state, seed=0, max_rounds=1)


class TestApplyRound:
    """Round application through `EngineRun.execute`."""

    def test_send_records_arrival(self):
        state = TokenState(2, TokenUniverse(1, 1), {0: [0]})
        one_round(state, [(0, 1)]).execute([(0, 1, 0)])
        assert state.holds(1, 0)
        assert state.arrivals[1][0] == 1
        assert state.current_round == 1

    def test_insertion_only(self):
        state = TokenState(2, TokenUniverse(2, 2), {0: [0]})
        one_round(state, [(0, 1)], [InsertionEvent(1, 1, 1)]).execute([])
        assert state.holds(1, 1)
        assert not state.holds(1, 0)

    def test_unheld_send_rejected(self):
        state = TokenState(2, TokenUniverse(1, 1), {0: [0]})
        run = one_round(state, [(0, 1)])
        with pytest.raises(PlanError):
            run.execute([(1, 0, 0)])
        for tok in (-1, 1):  # -1 would index token 0's membership byte
            with pytest.raises(PlanError):
                run.execute([(0, 1, tok)])

    def test_absent_edge_rejected(self):
        state = TokenState(3, TokenUniverse(1, 1), {0: [0]})
        run = one_round(state, [(0, 1), (1, 2)])
        with pytest.raises(PlanError):
            run.execute([(0, 2, 0)])

    def test_double_use_of_directed_edge_rejected(self):
        state = TokenState(2, TokenUniverse(2, 2), {0: [0, 1]})
        run = one_round(state, [(0, 1)])
        with pytest.raises(PlanError):
            run.execute([(0, 1, 0), (0, 1, 1)])

    def test_bidirectional_sends_allowed(self):
        state = TokenState(2, TokenUniverse(2, 2), {0: [0], 1: [1]})
        one_round(state, [(0, 1)]).execute([(0, 1, 0), (1, 0, 1)])
        assert state.holds(1, 0) and state.holds(0, 1)

    @pytest.mark.parametrize(
        "plan, message",
        [
            ([(1, 1, 0)], "self-send (1, 1, 0)"),
            ([(0, 2, 0)], "send (0, 2, 0) uses absent edge"),
            ([(0, 1, 0), (0, 1, 1)], "directed edge (0, 1) used twice"),
            ([(1, 0, 0)], "sender 1 does not hold token 0"),
            ([(0, 1, -1)], "sender 0 does not hold token -1"),
            ([(0, 1, 2)], "sender 0 does not hold token 2"),  # 2 is the universe size
        ],
        ids=["self-send", "absent-edge", "duplicate", "unheld", "token-minus-one", "token-size"],
    )
    def test_plan_error_messages(self, plan, message):
        state = TokenState(3, TokenUniverse(2, 2), {0: [0, 1]})
        run = one_round(state, [(0, 1), (1, 2)])
        with pytest.raises(PlanError) as err:
            run.execute(plan)
        assert str(err.value) == message
        assert state.current_round == 0 and not state.holds(1, 0)

    @pytest.mark.parametrize(
        "plan, message",
        [
            ([(1, 2, 0), (0, 2, 0)], "sender 1 does not hold token 0"),
            ([(0, 2, 0), (1, 2, 0)], "send (0, 2, 0) uses absent edge"),
            ([(0, 1, 0), (0, 1, 1), (2, 2, 0)], "directed edge (0, 1) used twice"),
            ([(0, 1, 0), (2, 2, 0), (0, 1, 1)], "self-send (2, 2, 0)"),
            ([(0, 1, 5), (0, 1, 0), (0, 1, 1)], "sender 0 does not hold token 5"),
        ],
    )
    def test_plan_with_two_faults_reports_the_earlier(self, plan, message):
        state = TokenState(3, TokenUniverse(2, 2), {0: [0, 1]})
        with pytest.raises(PlanError) as err:
            one_round(state, [(0, 1), (1, 2)]).execute(plan)
        assert str(err.value) == message

    def test_token_past_the_senders_row_is_not_held(self):
        """A token inside the universe but past the sender's 512-byte row is
        reported like any unheld token, and nothing lands."""
        state = TokenState(3, TokenUniverse(1100, 1100), {0: [5], 1: [900]})
        assert [len(row) for row in state.member] == [512, 1024, 0]
        for plan in ([(0, 1, 700)], [(1, 2, 900), (0, 1, 700)]):
            with pytest.raises(PlanError) as err:
                one_round(state, [(0, 1), (1, 2)]).execute(plan)
            assert str(err.value) == "sender 0 does not hold token 700"
            assert state.current_round == 0
            assert [len(row) for row in state.member] == [512, 1024, 0]
            assert [list(seq) for seq in state.holdings_seq] == [[5], [900], []]


def reference_plan_error(plan, snapshot, state):
    """The first fault of a plan, checked send by send with no fast path:
    its PlanError message, or None for a valid plan."""
    used = set()
    for send in plan:
        u, v, tok = send
        if u == v:
            return f"self-send {send}"
        if (min(u, v), max(u, v)) not in snapshot.edges:
            return f"send {send} uses absent edge"
        if (u, v) in used:
            return f"directed edge ({u}, {v}) used twice"
        used.add((u, v))
        if tok not in state.tokens(u):
            return f"sender {u} does not hold token {tok}"
    return None


PLAN_FAULTS = ["self-send", "absent-edge", "reuse", "unheld", "minus-one", "size", "short-row"]


@st.composite
def faulty_plans(draw):
    """A valid plan on a random connected graph, with faults of random
    classes inserted at random positions; universes of 1100 tokens leave
    rows of 512 or 1024 bytes short of the universe."""
    n = draw(st.integers(3, 8))
    size = draw(st.sampled_from([4, 40, 1100]))
    extra = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    snap = NetworkSnapshot(n, [(i, i + 1) for i in range(n - 1)] + [e for e in extra if e[0] != e[1]])
    low = min(size, 512)
    held = {v: draw(st.sets(st.integers(0, low - 1), min_size=1, max_size=6)) for v in range(n)}
    for v in draw(st.sets(st.integers(0, n - 1))):
        held[v].add(low - 1)  # the row's last byte, which token -1 would index
    if size > 1024 and draw(st.booleans()):
        held[0].add(draw(st.integers(512, 1023)))  # node 0's row grows to 1024 bytes
    state = TokenState(n, TokenUniverse(size, size), held)
    directed = snap.directed_edges
    picks = draw(st.lists(st.sampled_from(directed), unique=True, max_size=len(directed)))
    plan = [(u, v, draw(st.sampled_from(sorted(held[u])))) for u, v in picks]
    absent = [(u, v) for u in range(n) for v in range(n) if u != v and not snap.has_edge(u, v)]
    for fault in draw(st.lists(st.sampled_from(PLAN_FAULTS), max_size=3)):
        u, v = draw(st.sampled_from(directed))
        pos = draw(st.integers(0, len(plan)))
        if fault == "self-send":
            send = (u, u, draw(st.sampled_from(sorted(held[u]))))
        elif fault == "absent-edge":
            if not absent:
                continue
            a, b = draw(st.sampled_from(absent))
            send = (a, b, draw(st.sampled_from(sorted(held[a]))))
        elif fault == "reuse":  # an early send's edge again, in the plan's second half
            if not plan:
                continue
            first = draw(st.integers(0, min(2, len(plan) - 1)))
            u, v, _ = plan[first]
            pos = draw(st.integers(max(first + 1, len(plan) // 2), len(plan)))
            send = (u, v, draw(st.sampled_from(sorted(held[u]))))
        elif fault == "unheld":
            unheld = sorted(set(range(low)) - held[u])
            if not unheld:
                continue
            send = (u, v, draw(st.sampled_from(unheld)))
        elif fault == "minus-one":
            send = (u, v, -1)
        elif fault == "size":
            send = (u, v, size)
        else:  # a token inside the universe but past the sender's row
            if len(state.member[u]) >= size:
                continue
            send = (u, v, draw(st.integers(len(state.member[u]), size - 1)))
        plan.insert(pos, send)
    return state, snap, plan


def _state_records(state):
    return (
        state.current_round,
        list(state.holdings),
        [bytes(row) for row in state.member],
        [list(seq) for seq in state.holdings_seq],
        [list(when) for when in state.when],
        dict(state.completed_at),
    )


@given(faulty_plans())
@settings(max_examples=300, deadline=None)
def test_validate_plan_matches_straight_line_reference(case):
    """`validate_plan`'s verdict and first message equal the reference's on
    plans with every fault class at random positions, and a rejected plan
    leaves the state untouched."""
    state, snap, plan = case
    expected = reference_plan_error(plan, snap, state)
    if expected is None:
        validate_plan(plan, snap, state)
        return
    with pytest.raises(PlanError) as err:
        validate_plan(plan, snap, state)
    assert str(err.value) == expected
    before = _state_records(state)
    schedule = AdversarySchedule(state.n, 1, [snap])
    with pytest.raises(PlanError) as err:
        EngineRun(schedule, state, seed=0, max_rounds=1).execute(plan)
    assert str(err.value) == expected
    assert _state_records(state) == before


class TestTokenState:
    def test_full_state_is_compact(self):
        """Every node holds every token at n=1024: a membership byte per
        (node, token) and 6 bytes per held token (7.9 MB traced).  A dict
        and a list per node traced 65.4 MB."""
        n = 1024
        everything = (1 << n) - 1
        tracemalloc.start()
        try:
            state = TokenState(n, TokenUniverse(n, n))
            for v in range(n):
                state.add_mask(v, everything, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.all_complete()
        assert peak < 12 * 2**20

    def test_empty_nodes_allocate_nothing(self):
        """One source at n=4096: the other nodes share one empty row and
        empty sequences (0.36 MB traced).  A dict and a list per node
        traced 1.03 MB."""
        n = 4096
        tracemalloc.start()
        try:
            state = TokenState(n, TokenUniverse(n, n), {0: range(n)})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.node_complete(0) and not state.holds(1, 0)
        assert peak < 0.5 * 2**20

    def test_narrow_holdings_take_short_rows(self):
        """4096 nodes each receive one 64-token group below id 128: each row
        covers only its node's tokens, 512 bytes (2.2 MB of rows, 4.7 MB
        traced in all).  Rows as wide as the universe took 16.2 MB, 18.7 MB
        traced."""
        n = 4096
        state = TokenState(n, TokenUniverse(n, n))
        tracemalloc.start()
        try:
            for v in range(n):
                state.add_mask(v, ((1 << 64) - 1) << (64 * (v % 2)), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(len(row) == 512 for row in state.member)
        assert sum(map(sys.getsizeof, state.member)) < 3 * 2**20
        assert peak < 6 * 2**20

    def test_completion_is_recorded_where_tokens_land(self):
        """A node completes in the round its last real token lands, by a
        send or by a mask; dummies landing later leave the round as it is."""
        state = TokenState(3, TokenUniverse(4, 2), {0: [0, 1]})
        state._add_sends([(0, 1, 0)], 2)
        state.add_mask(2, token_mask([1, 3]), 3)
        assert state.completed_at == {0: 0} and not state.node_complete(1)
        state._add_sends([(0, 1, 1)], 4)
        state.add_mask(2, token_mask([0]), 5)
        state.add_mask(1, token_mask([2, 3]), 6)
        assert state.completed_at == {0: 0, 1: 4, 2: 5} and state.all_complete()

    def test_arrival_view_is_a_read_only_mapping(self):
        state = TokenState(3, TokenUniverse(8, 8), {0: [5]})
        state.add_mask(0, token_mask([7, 2]), 3)
        view = state.arrivals[0]
        assert list(view.items()) == [(5, 0), (2, 3), (7, 3)]  # arrival order
        assert list(view) == [5, 2, 7] and list(view.values()) == [0, 3, 3]
        assert view == {2: 3, 5: 0, 7: 3} and len(view) == 3
        assert view[7] == 3 and view.get(1) is None
        with pytest.raises(KeyError):
            view[1]
        # -3 would index token 5's membership byte
        assert 5 in view and all(t not in view for t in (-3, -1, 8, 100, 1))
        with pytest.raises(TypeError):
            view[1] = 4
        assert state.arrivals[1] == {} and len(state.arrivals[1]) == 0

    def test_holds_only_tokens_in_the_universe(self):
        state = TokenState(2, TokenUniverse(8, 8), {0: [5, 7]})
        assert state.holds(0, 5) and state.holds(0, 7)
        assert not any(state.holds(0, t) for t in (-3, -1, 8, 13))
        assert not any(state.holds(1, t) for t in (-1, 0, 5, 8))


class TestRunSimulation:
    def test_two_node_single_hop(self):
        schedule = line_schedule(2)
        state = TokenState(2, TokenUniverse(1, 1), {0: [0]})
        result = run_simulation(schedule, RandDiff(), state, 10, seed=1)
        assert result.completion_round == 1

    def test_three_node_path_two_hops(self):
        schedule = line_schedule(3)
        state = TokenState(3, TokenUniverse(1, 1), {0: [0]})
        result = run_simulation(schedule, RandDiff(), state, 10, seed=1)
        assert result.completion_round == 2

    def test_cycle_median_matches_reference(self):
        # Oracle value: independent straight-line simulator over seeds 0..99
        # (median 10.0, computed before the engine run and frozen here).
        n = 8
        schedule = cycle_schedule(n)
        engine_vals = []
        for seed in range(100):
            state = TokenState(n, TokenUniverse(n, n), {0: range(n)})
            result = run_simulation(schedule, RandDiff(), state, 500, seed=seed)
            assert not result.timed_out
            engine_vals.append(result.completion_round)
            ref = reference_rand_diff_completion(
                n, [(i, (i + 1) % n) for i in range(n)], {0: set(range(n))}, 500, seed
            )
            assert result.completion_round == ref
        engine_vals.sort()
        median = (engine_vals[49] + engine_vals[50]) / 2
        assert median == 10.0

    @pytest.mark.parametrize("shape", ["line", "cycle"])
    @pytest.mark.parametrize("tokens", [130, 300, 1100])
    def test_wide_token_sets_match_reference(self, shape, tokens):
        # Differences of up to `tokens` tokens exercise the wide branch of
        # the rank-select draw; the straight-line simulator sorts instead.
        # Above 512 tokens the receivers' rows start short and grow.
        n = 10
        if shape == "line":
            schedule, edges = line_schedule(n), [(i, i + 1) for i in range(n - 1)]
        else:
            schedule, edges = cycle_schedule(n), [(i, (i + 1) % n) for i in range(n)]
        for seed in range(3):
            state = TokenState(n, TokenUniverse(tokens, tokens), {0: range(tokens)})
            result = run_simulation(schedule, RandDiff(), state, 4 * tokens, seed=seed)
            assert not result.timed_out
            ref = reference_rand_diff_completion(
                n, edges, {0: set(range(tokens))}, 4 * tokens, seed
            )
            assert result.completion_round == ref

    def test_timeout_marker(self):
        schedule = line_schedule(4)
        state = TokenState(4, TokenUniverse(1, 1), {0: [0]})
        result = run_simulation(schedule, RandDiff(), state, 1, seed=0)
        assert result.timed_out
        assert result.completion_round is None

    def test_determinism_byte_identical(self):
        schedule = cycle_schedule(9)
        runs = []
        for _ in range(2):
            state = TokenState(9, TokenUniverse(9, 9), {0: range(9)})
            runs.append(run_simulation(schedule, RandDiff(), state, 200, seed=7))
        a, b = runs
        assert a.completion_round == b.completion_round
        assert a.per_round_new_arrivals == b.per_round_new_arrivals
        assert a.final_state == b.final_state

    def test_horizon_precondition(self):
        snap = NetworkSnapshot(2, [(0, 1)])
        schedule = AdversarySchedule(2, 1, [snap], cyclic_extendable=False)
        state = TokenState(2, TokenUniverse(1, 1), {0: [0]})
        with pytest.raises(ScheduleError):
            run_simulation(schedule, RandDiff(), state, 5, seed=0)

    def test_round_zero_insertions_apply_at_setup(self):
        snap = NetworkSnapshot(2, [(0, 1)])
        schedule = AdversarySchedule(
            2, 1, [snap], masks_of([InsertionEvent(0, 1, 0)]), mode="invasive"
        )
        state = TokenState(2, TokenUniverse(2, 2), {0: [0, 1]})
        run = EngineRun(schedule, state, seed=0, max_rounds=1)
        assert run.state.holds(1, 0)
        assert run.state.arrivals[1][0] == 0

    def test_completion_round_is_max_of_per_node(self):
        schedule = line_schedule(5)
        state = TokenState(5, TokenUniverse(1, 1), {0: [0]})
        result = run_simulation(schedule, RandDiff(), state, 20, seed=3)
        assert result.completion_round == max(result.per_node_completion.values())

    def test_no_real_tokens_complete_at_round_zero(self):
        """With only dummy tokens every node holds every real token from the
        start: the run executes no round and each node completes at 0."""
        schedule = line_schedule(5)
        state = TokenState(5, TokenUniverse(3, 0), {0: [0, 1, 2]})
        result = run_simulation(schedule, RandDiff(), state, 20, seed=3)
        assert result.rounds_executed == 0 and not result.timed_out
        assert result.completion_round == 0
        assert result.per_node_completion == {v: 0 for v in range(5)}


class TestScheduleValidate:
    def test_oblivious_with_insertions_flagged(self):
        snap = NetworkSnapshot(2, [(0, 1)])
        schedule = AdversarySchedule(2, 1, [snap], masks_of([InsertionEvent(1, 0, 0)]))
        assert any("insertion" in p for p in schedule.validate())

    def test_unsorted_insertion_nodes_flagged(self):
        snap = NetworkSnapshot(3, [(0, 1), (1, 2)])
        for pairs in ([(2, 1), (0, 1)], [(1, 1), (1, 2)]):
            schedule = AdversarySchedule(3, 1, [snap], {1: pairs}, mode="invasive")
            assert any("ascending" in p for p in schedule.validate())
        ok = AdversarySchedule(3, 1, [snap], {1: [(0, 1), (2, 1)]}, mode="invasive")
        assert ok.validate() == []

    def test_insertion_node_outside_node_range_flagged(self):
        snap = NetworkSnapshot(3, [(0, 1), (1, 2)])
        schedule = AdversarySchedule(3, 1, [snap], {1: [(0, 1), (7, 1)]}, mode="invasive")
        problems = schedule.validate()
        assert any("round 1" in p and "node 7" in p for p in problems)

    def test_disconnected_round_flagged(self):
        schedule = AdversarySchedule(3, 1, [NetworkSnapshot(3, [(0, 1)])])
        assert any("disconnected" in p for p in schedule.validate())


# ---------------------------------------------------------------------------
# Property tests


connected_graph = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=n * 2,
        ),
    )
)


def _connect(n, extra_edges):
    edges = {(i, i + 1) for i in range(n - 1)}
    edges |= {tuple(sorted(e)) for e in extra_edges}
    return NetworkSnapshot(n, edges)


@given(connected_graph, st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_monotonicity_and_capacity(graph, seed):
    n, extra = graph
    snap = _connect(n, extra)
    assert validate_snapshot(snap)
    schedule = AdversarySchedule(n, 6, [snap] * 6, cyclic_extendable=True)
    state = TokenState(n, TokenUniverse(n, n), {v: [v] for v in range(n)})
    held = [state.tokens(v) for v in range(n)]
    run = EngineRun(schedule, state, seed=seed, max_rounds=6)
    protocol = RandDiff()
    while not run.complete() and not run.exhausted():
        plan = protocol.plan_round(run.state, run.current_snapshot(), run.round_rng())
        # capacity: at most one send per directed edge (validated inside), and
        # never more sends than directed edges
        assert len(plan) <= 2 * len(snap.edges)
        run.execute(plan)
        new_held = [run.state.tokens(v) for v in range(n)]
        assert all(b >= a for a, b in zip(held, new_held))
        held = new_held


@given(connected_graph, st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_conservation_by_arrival_replay(graph, seed):
    """No token appears anywhere before a neighbor held it the round before."""
    n, extra = graph
    snap = _connect(n, extra)
    schedule = AdversarySchedule(n, 8, [snap] * 8, cyclic_extendable=True)
    state = TokenState(n, TokenUniverse(n, n), {v: [v] for v in range(n)})
    result = run_simulation(schedule, RandDiff(), state, 8, seed=seed)
    final = result.final_state
    for v in range(n):
        for tok, rnd in final.arrivals[v].items():
            if rnd == 0:
                continue
            ok = any(
                final.arrivals[u].get(tok, n * n + 1) <= rnd - 1
                for u in snap.adjacency[v]
            )
            assert ok, f"token {tok} at {v} round {rnd} has no feeder"


# Token bitsets

wide_masks = st.one_of(
    st.integers(1, 2**5000 - 1),
    st.sets(st.integers(0, 4999), min_size=1).map(token_mask),
    st.integers(1, 5000).map(lambda width: (1 << width) - 1),  # full width
)


def _set_bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@given(wide_masks, st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_select_token_is_rank_in_sorted_tokens(mask, r):
    tokens = _set_bits(mask)
    r %= len(tokens)
    assert select_token(mask, r) == sorted(tokens)[r]
    assert mask_tokens(mask) == tokens
    assert token_mask(tokens) == mask


@st.composite
def token_collections(draw):
    """Full-width, dense and sparse token collections, with repeats, in
    the shapes callers pass (range, list, set, iterator)."""
    width = draw(st.integers(1, 5000))
    density = draw(st.sampled_from([1.0, 0.5, 1 / 8, 1 / 12, 1 / 16, 1 / 20, 1 / 100, 0.0]))
    rng = derive_rng("collection", draw(st.integers(0, 2**32)))
    if density == 1.0:
        tokens = range(width)
    else:
        tokens = [t for t in range(width) if rng.random() < density]
        tokens += rng.sample(tokens, len(tokens) // 3)  # repeats
        rng.shuffle(tokens)
    shape = draw(st.sampled_from([lambda tokens: tokens, set, iter]))
    return shape(tokens), sorted(set(tokens))


@given(token_collections())
@settings(max_examples=150, deadline=None)
def test_token_mask_round_trips_dense_and_full_width(collection):
    tokens, expected = collection
    mask = token_mask(tokens)
    assert mask == sum(1 << t for t in expected)
    assert mask_tokens(mask) == expected
    assert set(mask_tokens(mask)) == set(expected)


@pytest.mark.parametrize("tokens", [[-1], [3, -1, 0], [-5, 400]])
def test_token_mask_rejects_negative_tokens(tokens):
    with pytest.raises(ValueError):
        token_mask(tokens)


def _or_reference(tokens):
    mask = 0
    for tok in tokens:
        mask |= 1 << tok  # ValueError for a negative token
    return mask


@given(
    st.integers(-40, 3000),
    st.integers(-40, 3000),
    st.integers(1, 5),
    st.sampled_from(["range", "list", "duplicated", "set"]),
)
@settings(max_examples=300, deadline=None)
def test_token_mask_matches_the_or_reference(start, stop, step, shape):
    """Ranges (empty ones, start > 0, step > 1) and the other collection
    shapes, with duplicates and negative tokens, against one OR per token:
    equal masks, or a ValueError on both sides."""
    tokens = range(start, stop, step)
    if shape == "list":
        tokens = list(tokens)
    elif shape == "duplicated":
        tokens = [tok for tok in tokens for _ in range(2)]
    elif shape == "set":
        tokens = set(tokens)
    try:
        expected = _or_reference(tokens)
    except ValueError:
        with pytest.raises(ValueError):
            token_mask(tokens)
    else:
        assert token_mask(tokens) == expected


@given(wide_masks, st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_diff_steps_draw_choice_over_sorted_tokens(mask, seed):
    """On one edge whose far end holds nothing, Rand-Diff and Sym-Diff both
    send `rng.choice(sorted(tokens))`, drawing nothing for a single token,
    and leave the stream where that choice leaves it."""
    tokens = _set_bits(mask)
    size = mask.bit_length()
    state = TokenState(2, TokenUniverse(size, size), {0: tokens})
    snap = NetworkSnapshot(2, [(0, 1)])
    for step in (rand_diff_step, sym_diff_step):
        rng, ref = derive_rng("draw", seed), derive_rng("draw", seed)
        expected = tokens[0] if len(tokens) == 1 else ref.choice(tokens)
        assert step(state, snap, rng) == [(0, 1, expected)], step.__name__
        assert rng.random() == ref.random()  # the streams stay in step


@given(connected_graph, st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_bitsets_agree_with_arrivals(graph, seed):
    n, extra = graph
    snap = _connect(n, extra)
    schedule = AdversarySchedule(n, 8, [snap] * 8, cyclic_extendable=True)
    state = TokenState(n, TokenUniverse(n, n), {v: [v] for v in range(n)})
    final = run_simulation(schedule, RandDiff(), state, 8, seed=seed).final_state
    for v in range(n):
        assert final.holdings[v] == token_mask(final.arrivals[v])
        assert list(final.holdings_seq[v]) == list(final.arrivals[v])
        assert list(final.when[v]) == sorted(final.when[v])  # arrival order is round order


# Insertion masks against a per-token oracle


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_short_rows_hold_what_a_set_reference_holds(data):
    """Masks and executed plans over universes of 1 to 3000 tokens, so rows
    start short, grow and reach the universe size: `holds` answers like a
    set on every id in [-2, size + 2], and every row covers its node's
    highest token without passing the universe."""
    size = data.draw(st.integers(1, 3000), label="size")
    n = 4
    token = st.integers(0, size - 1)
    ranges = st.tuples(token, token).map(lambda ab: range(min(ab), max(ab) + 1))
    edges = [(0, 1), (1, 2), (2, 3), (0, 2)]
    directed = [(u, v) for e in edges for u, v in (e, e[::-1])]
    state = TokenState(n, TokenUniverse(size, size))
    run = EngineRun(
        AdversarySchedule(n, 1, [NetworkSnapshot(n, edges)], cyclic_extendable=True),
        state,
        seed=0,
        max_rounds=20,
    )
    held = [set() for _ in range(n)]
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        if data.draw(st.booleans(), label="mask"):
            node = data.draw(st.integers(0, n - 1), label="node")
            tokens = data.draw(st.one_of(st.lists(token, max_size=6), ranges), label="tokens")
            state.add_mask(node, token_mask(tokens), 0)
            held[node].update(tokens)
        else:
            plan = [
                (u, v, data.draw(st.sampled_from(sorted(held[u])), label="token"))
                for u, v in directed
                if held[u] and data.draw(st.booleans(), label="send")
            ]
            run.execute(plan)
            for _, v, tok in plan:
                held[v].add(tok)
        for v in range(n):
            assert state.holdings[v].bit_length() <= len(state.member[v]) <= size
    for v in range(n):
        assert [t for t in range(-2, size + 3) if state.holds(v, t)] == sorted(held[v])
        assert sorted(state.holdings_seq[v]) == sorted(held[v])
        assert state.holdings[v] == token_mask(held[v])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_insertion_masks_apply_like_per_token_events(data):
    """A schedule built from (round, node, token) events, applied through its
    masks, gives the per-token oracle's state, arrivals and completions.
    The oracle applies each round's sends in plan order, then the round's
    distinct events in ascending (node, token) order.  Per round, `execute`
    returns the sends' new arrivals, `inserted` holds the events' new tokens
    as ascending (node, mask) pairs, and `per_round_new_arrivals` counts
    both."""
    n = data.draw(st.integers(2, 5), "n")
    size = data.draw(st.integers(1, 8), "size")
    real = data.draw(st.integers(1, size), "real")
    rounds = data.draw(st.integers(1, 4), "rounds")
    tok = st.integers(0, size - 1)
    initial = data.draw(st.dictionaries(st.integers(0, n - 1), st.sets(tok)), "initial")
    events = data.draw(
        st.lists(st.tuples(st.integers(0, rounds), st.integers(0, n - 1), tok)), "events"
    )
    events += data.draw(st.lists(st.sampled_from(events or [(0, 0, 0)]), max_size=3), "dups")

    arrivals = [{} for _ in range(n)]
    seq = [[] for _ in range(n)]
    completion = {}

    def land(node, token, t, new):
        if token not in arrivals[node]:
            arrivals[node][token] = t
            seq[node].append(token)
            new.append((token, node))
            if node not in completion and all(x in arrivals[node] for x in range(real)):
                completion[node] = t

    def as_masks(added):
        masks = {}
        for token, node in added:
            masks[node] = masks.get(node, 0) | 1 << token
        return sorted(masks.items())

    setup = []
    for node in range(n):
        for token in sorted(initial.get(node, ())):
            land(node, token, 0, setup)
    added = []
    for _, node, token in sorted({ev for ev in events if ev[0] == 0}):
        land(node, token, 0, added)
    setup_inserted = as_masks(added)
    edges = [(u, v) for u in range(n) for v in range(n) if u != v]
    plans, expected = [], []
    for t in range(1, rounds + 1):
        plan = []
        for u, v in data.draw(st.lists(st.sampled_from(edges), unique=True, max_size=4)):
            if seq[u]:
                plan.append((u, v, data.draw(st.sampled_from(seq[u]))))
        # a token that also arrives by a send in the same round
        for u, v, token in plan[: data.draw(st.integers(0, 2))]:
            events.append((t, v, token))
        sent, added = [], []
        for u, v, token in plan:
            land(v, token, t, sent)
        for _, node, token in sorted({ev for ev in events if ev[0] == t}):
            land(node, token, t, added)
        plans.append(plan)
        expected.append((sent, as_masks(added), len(sent) + len(added)))

    snap = NetworkSnapshot(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    schedule = AdversarySchedule(n, rounds, [snap] * rounds, masks_of(events), "invasive")
    assert len(schedule.insertions) == len(set(events))
    assert list(schedule.insertions) == sorted(set(events))
    state = TokenState(n, TokenUniverse(size, real), initial)
    run = EngineRun(schedule, state, seed=0, max_rounds=rounds)
    assert run.inserted == setup_inserted
    got = []
    for plan in plans:
        sent = run.execute(plan)
        got.append((sent, run.inserted, run.per_round_new_arrivals[-1]))
    assert got == expected
    assert [list(s) for s in state.holdings_seq] == seq
    assert [list(w) for w in state.when] == [list(a.values()) for a in arrivals]
    assert state.arrivals == arrivals
    assert run.state.completed_at == completion
    assert state.holdings == [token_mask(a) for a in arrivals]


def test_right_line_completion_round_keeps_insertions_as_masks():
    """The invasive line at n=1024 (seed 1) completes its right line in its
    last round: its 923 target nodes gain 26,031 tokens of the 32-token
    blocker group (the scatter already gave some of them part of it).
    Executing that round traced a 0.90 MB peak with the insertions kept as
    (node, mask) pairs; one (token, node) tuple per inserted token traced
    2.38 MB."""
    schedule = build_blocker_line_invasive(BlockerLineParams(1024, 1))
    targets = schedule.metadata["target_nodes"]
    state = initial_state({"kind": "single-source"}, 1024, schedule)
    run = EngineRun(schedule, state, seed=1, max_rounds=schedule.horizon)
    while run.next_round < schedule.horizon:
        run.execute([])
    tracemalloc.start()
    try:
        sent = run.execute([])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sent == [] and [node for node, _ in run.inserted] == sorted(targets)
    assert run.per_round_new_arrivals[-1] == 26031
    assert peak < 1.5 * 2**20


# DGS1 exports pinned byte for byte: the invasive and skb schedules as the
# per-token event lists wrote them, the others as the generators wrote them
# when they stored every round's snapshot.  blocker-144 has one phase;
# blocker-2304 has two, so its phase-1 right-line completion shares a round
# with the phase-2 scatter.


@pytest.mark.parametrize(
    "build, digest",
    [
        (
            lambda: build_blocker_line_invasive(BlockerLineParams(144, 1)),
            "a7c0713f6cf20fd0e34fb4c0b4a0ce72e747a0bd02560a6a2664e024f919dd28",
        ),
        (
            lambda: build_blocker_line_invasive(BlockerLineParams(2304, 3)),
            "1fd30607d8358c9977c68b0a1d4e77990b4d733baeb20e1eb50c5ceaf88497d3",
        ),
        (
            lambda: build_skb_adversary(SkbAdversaryParams(64, 1)),
            "fa320b5ff98dc6db2232bfeacd316d7134433a0e6b40eb0ee25ab57e9ff7be2e",
        ),
        (
            lambda: build_schedule(
                {"name": "random", "extra_edge_prob": 0.2, "horizon": 40}, 24, 5
            ),
            "95a456f8fb6c701f5489cd0eca57be386a278c01be3dffb5a0299f9147f4cdb4",
        ),
        (
            lambda: build_schedule({"name": "random", "extra_edge_prob": 1.0, "horizon": 6}, 12, 5),
            "6cbcdf1d4485f65558d7ee5105da884287ce5e42132585e9461b7bcc77dd067a",
        ),
        (
            lambda: build_schedule(
                {"name": "ring-failure", "policy": "random", "horizon": 60}, 16, 2
            ),
            "a28a16de094496dcf24cf3eb69cbd3a1c7c37a15c22306e0ab351ec0e9155ce1",
        ),
        (
            lambda: build_schedule({"name": "center-terminal", "r": 6, "horizon": 30}, 20, 4),
            "6752bd9b29e35d9ad4c187debc664ded325e600083461a1d3d3eb18ffd909ff3",
        ),
        (
            lambda: build_blocker_line_oblivious(BlockerLineParams(144, 1)),
            "3e2ed283da40efb5c406017b4f441a6271ff354353693fd9568af269afcaad4c",
        ),
        (
            lambda: build_blocker_line_oblivious(BlockerLineParams(2304, 3)),
            "2c261a102ad4e1361b7a631c7e2c25f2b34f17421333359018a42a1b5f1f8344",
        ),
    ],
    ids=[
        "blocker-144",
        "blocker-2304",
        "skb-64",
        "random-p0.2",
        "random-p1",
        "ring-random",
        "center-terminal",
        "oblivious-144",
        "oblivious-2304",
    ],
)
def test_dgs1_export_pinned(build, digest):
    text = schedule_to_text(build())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def line_build_digests(build, monkeypatch) -> dict:
    """What a line build hands on, hashed part by part: each segment's line
    order and moves as `RoundSource.lines` receives them (the moves it
    reads, segments 1 on), every insertion as (round, node, mask), and the
    metadata as sorted-key JSON."""
    handed = {}
    lines = RoundSource.lines.__func__

    def record(cls, n, orders, span, moves):
        handed.update(orders=orders, moves=moves)
        return lines(cls, n, orders, span, moves)

    monkeypatch.setattr(RoundSource, "lines", classmethod(record))
    schedule = build()
    orders, moves = handed["orders"], handed["moves"]
    parts = {
        "lines": repr([list(order) for order in orders]),
        "moves": json.dumps([moves[k] for k in range(1, len(orders))]),
        "insertions": json.dumps(
            [[t, node, mask] for t in sorted(schedule.insertion_masks)
             for node, mask in schedule.insertion_masks[t]]
        ),
        "metadata": json.dumps(schedule.metadata, sort_keys=True),
    }
    return {k: hashlib.sha256(v.encode()).hexdigest()[:16] for k, v in parts.items()}


# Line builds at benchmark size, pinned part by part: blocker-sentinel's
# invasive line (n=4096), a two-phase invasive line at ε = 3/8, the
# oblivious line over the same trajectory, and skb-blocker's line (n=2048).
@pytest.mark.parametrize(
    "build, digests",
    [
        (
            lambda: build_blocker_line_invasive(BlockerLineParams(4096, 7)),
            {
                "lines": "c0284507d9aa9409",
                "moves": "76f4dd9d2884404c",
                "insertions": "a2a3eb822b6c7b57",
                "metadata": "eb49bf517bf7afa8",
            },
        ),
        (
            lambda: build_blocker_line_invasive(BlockerLineParams(2304, 1, epsilon=0.375)),
            {
                "lines": "83dc1ff743a1f61c",
                "moves": "e3c936671c51f4b0",
                "insertions": "211470d3d544b796",
                "metadata": "f80eede34c219c88",
            },
        ),
        (
            lambda: build_blocker_line_oblivious(BlockerLineParams(4096, 7)),
            {
                "lines": "f08e761198199537",
                "moves": "3188572d181944e2",
                "insertions": "4f53cda18c2baa0c",
                "metadata": "4ce5381e358ef4ae",
            },
        ),
        (
            lambda: build_skb_adversary(SkbAdversaryParams(2048, 7)),
            {
                "lines": "378010308171722c",
                "moves": "1248d34e97436c8f",
                "insertions": "3ef048ec1fef32d7",
                "metadata": "d740c0f649e0ef90",
            },
        ),
    ],
    ids=["invasive-4096", "invasive-2304-eps0.375", "oblivious-4096", "skb-2048"],
)
def test_line_build_pinned_at_benchmark_size(build, digests, monkeypatch):
    assert line_build_digests(build, monkeypatch) == digests


# ---------------------------------------------------------------------------
# Round sources


class TestRoundSource:
    def test_one_object_per_segment_and_for_the_tail(self):
        params = BlockerLineParams(144, 1, epsilon=0.25)  # three rounds per segment
        for schedule in (
            build_blocker_line_invasive(params),
            build_blocker_line_oblivious(params),
            build_skb_adversary(SkbAdversaryParams(64, 1)),
        ):
            rounds = schedule.metadata["params"]["segment_rounds"]
            assert rounds >= 2
            first = schedule.snapshot_at(1)
            assert schedule.snapshot_at(rounds) is first
            assert schedule.snapshot_at(rounds + 1) is not first
            last = schedule.snapshot_at(schedule.horizon)
            assert schedule.snapshot_at(schedule.horizon + 1) is last
            assert schedule.snapshot_at(schedule.horizon + 50) is last

    def test_repeated_calls_in_a_round_share_one_object(self):
        schedule = build_schedule({"name": "random", "horizon": 20}, 16, 3)
        snap = schedule.snapshot_at(7)
        assert schedule.snapshot_at(7) is snap
        assert snap.directed_edges is schedule.snapshot_at(7).directed_edges
        assert schedule.snapshot_at(8) is not snap
        assert schedule.snapshot_at(21) is schedule.snapshot_at(20)

    def test_only_the_latest_key_is_built(self):
        built = []

        def build(key):
            built.append(key)
            return NetworkSnapshot(2, [(0, 1)])

        source = RoundSource(lambda t: (t - 1) // 3, build)
        for t in (1, 2, 3, 4, 4, 1, 1):
            source(t)
        assert built == [0, 1, 0]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_blocker_line_invasive(BlockerLineParams(400, 1)),
            lambda: build_blocker_line_invasive(BlockerLineParams(1024, 2, epsilon=0.5)),
            lambda: build_blocker_line_oblivious(BlockerLineParams(400, 3)),
            lambda: build_blocker_line_oblivious(BlockerLineParams(1024, 4, epsilon=0.5)),
            lambda: build_skb_adversary(SkbAdversaryParams(64, 5)),
            lambda: build_skb_adversary(SkbAdversaryParams(256, 6)),
            # two phases: moves across a phase boundary and out of a
            # phase's last segment
            lambda: build_blocker_line_invasive(BlockerLineParams(2304, 1, epsilon=0.5)),
            lambda: build_skb_adversary(SkbAdversaryParams(2048, 7)),  # the benchmark's n
        ],
        ids=[
            "invasive-400",
            "invasive-1024-eps-half",
            "oblivious-400",
            "oblivious-1024-eps-half",
            "skb-64",
            "skb-256",
            "invasive-2304-two-phases",
            "skb-2048",
        ],
    )
    def test_derived_segments_match_fresh_builds(self, build):
        """Walked forwards, backwards, skipping and zigzagging, every
        segment's graph equals a fresh build of its line order in edges,
        directed edges and adjacency; both caches are read at every step,
        so each derived segment splices both."""
        reference = build()
        segments = math.ceil(reference.horizon / reference.metadata["params"]["segment_rounds"])
        assert segments >= 4
        fresh = [_fresh_views(reference.rounds.build(k)) for k in range(segments)]
        walks = {
            "forwards": list(range(segments)),
            "backwards": list(range(segments))[::-1],
            "skipping": [k for k in range(segments) if k % 3 != 2],
            "zigzag": [k for j in range(segments - 2) for k in (j, j + 2, j + 1)],
        }
        for name, walk in walks.items():
            schedule = build()
            span = schedule.metadata["params"]["segment_rounds"]
            for k in walk:
                snap = schedule.snapshot_at(k * span + 1)
                views = (snap.edges, snap.directed_edges, snap.adjacency)
                assert views == fresh[k], f"{name} walk, segment {k}"

    @pytest.mark.parametrize(
        "spec, n",
        [
            ({"name": "ring-failure", "policy": "round-robin", "horizon": 60}, 16),
            ({"name": "ring-failure", "policy": "random", "horizon": 60}, 16),
            ({"name": "ring-failure", "policy": "fixed-edge", "horizon": 60}, 16),
            ({"name": "center-terminal", "r": 3, "horizon": 30}, 20),
            ({"name": "center-terminal", "r": 4, "horizon": 30}, 20),
            ({"name": "center-terminal", "r": 8, "horizon": 30}, 20),
        ],
        ids=["ring-round-robin", "ring-random", "ring-fixed-edge", "ct-r3", "ct-r4", "ct-r8"],
    )
    def test_derived_rounds_match_fresh_builds(self, spec, n):
        """Walked forwards (into the cyclic tail), backwards, skipping and
        zigzagging, every paths-respecting round equals a fresh build of its
        key in edges, directed edges and adjacency; both caches are read at
        every step, so each derived round splices both.  Walked in order,
        every ring round from the second on already holds the adjacency
        spliced from its predecessor's."""
        reference = build_schedule(spec, n, 3)
        rounds = reference.rounds
        horizon = reference.horizon
        fresh = {t: _fresh_views(rounds.build(rounds.key_of(t))) for t in range(1, horizon + 1)}
        walks = {
            "forwards": list(range(1, horizon + 3)),
            "backwards": list(range(horizon, 0, -1)),
            "skipping": [t for t in range(1, horizon + 1) if t % 3 != 2],
            "zigzag": [t for j in range(1, horizon - 1) for t in (j, j + 2, j + 1)],
        }
        for name, walk in walks.items():
            schedule = build_schedule(spec, n, 3)
            for t in walk:
                snap = schedule.snapshot_at(t)
                if name == "forwards" and t >= 2 and spec["name"] == "ring-failure":
                    assert snap._adjacency is not None, f"round {t} rebuilds its adjacency"
                views = (snap.edges, snap.directed_edges, snap.adjacency)
                assert views == fresh[min(t, horizon)], f"{name} walk, round {t}"

    @pytest.mark.parametrize(
        "spec, n", [("blocker-invasive", 4096), ("skb-blocker", 2048)], ids=["invasive", "skb"]
    )
    def test_in_order_walk_edits_only_the_moved_pairs(self, spec, n, monkeypatch):
        """Walked in order, a line schedule builds one line, the first, and
        derives every later segment from the generator's moves: at most
        five joins between blocks are removed and five added.  No later
        order is read, so no segment pays for a whole new hop set."""
        read, built, edits = [], [], []
        lines = RoundSource.lines.__func__
        line, edited = NetworkSnapshot.line.__func__, NetworkSnapshot.edited

        class RecordedOrders(list):
            def __getitem__(self, k):
                read.append(k)
                return super().__getitem__(k)

        def recorded_lines(cls, n, orders, *rest):
            return lines(cls, n, RecordedOrders(orders), *rest)

        def counted_line(cls, n, order):
            built.append(len(order))
            return line(cls, n, order)

        def counted_edited(self, removed, added=()):
            removed, added = list(removed), list(added)
            edits.append((len(removed), len(added)))
            return edited(self, removed, added)

        monkeypatch.setattr(RoundSource, "lines", classmethod(recorded_lines))
        monkeypatch.setattr(NetworkSnapshot, "line", classmethod(counted_line))
        monkeypatch.setattr(NetworkSnapshot, "edited", counted_edited)
        schedule = build_schedule({"name": spec}, n, 1)
        for t in range(1, schedule.horizon + 2):
            schedule.snapshot_at(t).directed_edges
        segments = math.ceil(schedule.horizon / schedule.metadata["params"]["segment_rounds"])
        assert read == [0]
        assert built == [n]
        assert len(edits) == segments - 1
        assert max(max(pair) for pair in edits) <= 5

    def test_flood_on_derived_lines_matches_fresh_lines(self):
        """flood_step reads `snapshot.edges` in set order, which an edit may
        change; the sentinel round and the final state do not.  One round per
        segment and two phases, so the flood crosses every derived segment
        and a phase boundary before its sentinel reaches a target."""
        n = 2304
        spec = {"name": "blocker-oblivious"}
        derived = build_schedule(spec, n, 1)
        fresh = build_schedule(spec, n, 1)
        span = fresh.metadata["params"]["segment_rounds"]
        graphs = [fresh.rounds.build(k) for k in range(fresh.horizon // span)]
        fresh = AdversarySchedule(
            n,
            fresh.horizon,
            [graphs[(t - 1) // span] for t in range(1, fresh.horizon + 1)],
            metadata=fresh.metadata,
            cyclic_extendable=True,
        )
        results = []
        for schedule in (derived, fresh):
            state = initial_state({"kind": "single-source"}, n, schedule)
            results.append(
                run_simulation(
                    schedule,
                    get_protocol(f"flood:{n - 1}"),
                    state,
                    4 * n,
                    seed=1,
                    stop_when=make_sentinel_stop(schedule.metadata),
                )
            )
        on_derived, on_fresh = results
        assert on_derived.stopped_early and on_derived.rounds_executed >= derived.horizon
        assert on_derived.rounds_executed == on_fresh.rounds_executed
        assert on_derived.per_round_new_arrivals == on_fresh.per_round_new_arrivals
        assert on_derived.final_state == on_fresh.final_state

    def test_snapshot_list_must_match_horizon(self):
        snap = NetworkSnapshot(2, [(0, 1)])
        with pytest.raises(ScheduleError):
            AdversarySchedule(2, 3, [snap, snap])


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_bfs_distances_match_a_reference_bfs(data):
    """Hop distance to the nearest of one or more sources on small graphs,
    disconnected ones included, with n + 1 for a node no source reaches."""
    n = data.draw(st.integers(1, 12), "n")
    node = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(node, node), max_size=2 * n), "pairs")
    snap = NetworkSnapshot(n, [(u, v) for u, v in pairs if u != v])
    sources = data.draw(st.lists(node, min_size=1, max_size=4), "sources")

    neighbours = [set() for _ in range(n)]
    for u, v in snap.edges:
        neighbours[u].add(v)
        neighbours[v].add(u)

    def reference(source):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in neighbours[u] - dist.keys():
                dist[v] = dist[u] + 1
                queue.append(v)
        return dist

    per_source = [reference(s) for s in sources]
    expected = [min(d.get(v, n + 1) for d in per_source) for v in range(n)]
    assert bfs_distances(snap, sources) == expected


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_line_directed_edges_match_the_sorted_ones(data):
    """A line's directed edges equal the generic snapshot's sorted ones,
    for full and partial line orders (lists and arrays)."""
    n = data.draw(st.integers(1, 300), "n")
    order = data.draw(st.permutations(range(n)), "order")
    order = order[: data.draw(st.integers(0, n), "length")]
    if data.draw(st.booleans(), "as array"):
        order = node_array(n, order)
    line = NetworkSnapshot.line(n, order)
    generic = NetworkSnapshot(n, zip(order, order[1:]))
    assert line == generic
    assert line.directed_edges == generic.directed_edges
    assert line.directed_edges == sorted(
        pair for u, v in generic.edges for pair in ((u, v), (v, u))
    )
    assert line.adjacency == generic.adjacency


@given(connected_graph, st.data())
@settings(max_examples=60, deadline=None)
def test_without_matches_a_fresh_snapshot(graph, data):
    """A graph edited by removals alone, from a base with both caches
    built, equals a fresh snapshot of what is left."""
    n, extra = graph
    base = _connect(n, extra)
    base.directed_edges, base.adjacency
    removed = data.draw(st.sets(st.sampled_from(sorted(base.edges))))
    derived = base.edited(removed)
    fresh = NetworkSnapshot(n, base.edges - removed)
    assert derived == fresh
    assert derived.directed_edges == fresh.directed_edges
    assert derived.adjacency == fresh.adjacency


@given(
    order=st.permutations(range(1, 25)),
    sizes=st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
    width=st.integers(1, 9),
    inner_width=st.integers(0, 9),
)
@example(order=list(range(1, 25)), sizes=(0, 6, 0), width=4, inner_width=5)
@example(order=list(range(24, 0, -1)), sizes=(3, 5, 2), width=1, inner_width=2)
@example(order=list(range(1, 25)), sizes=(2, 1, 0), width=4, inner_width=3)
@settings(max_examples=300, deadline=None)
def test_line_step_moves_give_the_new_line(order, sizes, width, inner_width):
    """`line_step` on left + [0] + middle + right: the watched prefix's
    first `inner_width` nodes, capped at all but one, retire reversed to the
    left, the rest go to the front of `right`, and the moves take the old
    line's graph, caches built, to the new line's.  The examples cover an
    empty left and right with a watched prefix shorter than inner_width + 1,
    and a one-node watched prefix from a long or a short middle."""
    a, b, c = sizes
    left, middle, right = order[:a], order[a : a + b], order[a + b : a + b + c]
    given_blocks = (list(left), list(middle), list(right))
    new_left, new_middle, new_right, moves = line_step(left, middle, right, width, inner_width)
    assert (left, middle, right) == given_blocks
    watched = middle[:width]
    iw = min(inner_width, max(0, len(watched) - 1))
    assert new_left == left + watched[:iw][::-1]
    assert new_middle == middle[width:]
    assert new_right == watched[iw:] + right
    removed, added = moves
    assert len(removed) <= 5 and len(added) <= 5
    base = NetworkSnapshot.line(25, left + [0] + middle + right)
    base.directed_edges, base.adjacency
    derived = base.edited(removed, added)
    fresh = NetworkSnapshot.line(25, new_left + [0] + new_middle + new_right)
    views = (derived.edges, derived.directed_edges, derived.adjacency)
    assert views == (fresh.edges, fresh.directed_edges, fresh.adjacency)


def test_line_phases_floor_and_clamp():
    assert line_phases(4096, 64) == (2, False)  # sqrt(4096) / 24
    assert line_phases(1024, 32) == (1, False)
    assert line_phases(4096, 16) == (1, True)  # cbrt(4096) / 24


def _fresh_views(snap):
    fresh = NetworkSnapshot(snap.n, snap.edges)
    return fresh.edges, fresh.directed_edges, fresh.adjacency


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_edited_matches_a_fresh_snapshot(data):
    """An edited graph equals a fresh one in edges, directed edges and
    adjacency, whichever of its base's caches were built: removals of
    present and absent pairs, additions of new and present pairs, a pair
    both removed and added, self-loops, and line bases given by an order.
    The base and its caches are left as they were."""
    n = data.draw(st.integers(1, 40), "n")
    node = st.integers(0, n - 1)
    pair = st.tuples(node, node).map(lambda e: (min(e), max(e)))
    if data.draw(st.booleans(), "line base"):
        order = data.draw(st.permutations(range(n)), "order")
        order = order[: data.draw(st.integers(0, n), "length")]
        if data.draw(st.booleans(), "as array"):
            order = node_array(n, order)
        base = NetworkSnapshot.line(n, order)
    else:
        base = NetworkSnapshot(n, data.draw(st.sets(pair, max_size=3 * n), "edges"))
    present = sorted(base.edges)
    removed = data.draw(st.sets(st.sampled_from(present)), "removed") if present else set()
    removed |= data.draw(st.sets(pair, max_size=3), "removed, maybe absent")
    added = data.draw(st.sets(pair, max_size=2 * n), "added")
    if removed and data.draw(st.booleans(), "re-add a removed pair"):
        added.add(min(removed))
    if data.draw(st.booleans(), "directed built"):
        base.directed_edges
    if data.draw(st.booleans(), "adjacency built"):
        base.adjacency
    before = _fresh_views(base)

    derived = base.edited(removed, added)
    expected = (base.edges - (removed - added)) | added
    assert derived.edges == expected
    assert (derived.edges, derived.directed_edges, derived.adjacency) == _fresh_views(derived)
    assert (base.edges, base.directed_edges, base.adjacency) == before
    if not added:  # removals alone, as the paths-respecting rounds make them
        assert derived == NetworkSnapshot(n, base.edges - removed)
