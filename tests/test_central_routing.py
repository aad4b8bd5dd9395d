"""Load-balance routing: the gradient router's guarantees on random graphs,
full/target splits and pools, staged runs' load-balance plans and central
broadcasts' executed plans pinned by sha256 prefixes."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim import central
from gossipsim.core import (
    AdversarySchedule,
    EngineRun,
    NetworkSnapshot,
    TokenState,
    TokenUniverse,
    derive_rng,
)
from gossipsim.harness import ExperimentConfig, build_schedule, initial_state, run_cell
from gossipsim.random_schedules import build_random_interval_connected


@st.composite
def relabelled(draw, shape):
    """A connected graph of the given shape on 1..24 nodes, ids permuted,
    as a static schedule."""
    n = draw(st.integers(1, 24))
    ids = draw(st.permutations(range(n)))
    if shape == "tree":
        edges = [(ids[i], ids[draw(st.integers(0, i - 1))]) for i in range(1, n)]
        extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
        edges += [(u, v) for u, v in extra if u != v]
        edges = list({(min(e), max(e)) for e in edges})
    elif shape == "line":
        edges = list(zip(ids, ids[1:]))
    elif shape == "cycle":
        edges = list(zip(ids, ids[1:])) + ([(ids[-1], ids[0])] if n > 2 else [])
    else:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return AdversarySchedule(n, 1, [NetworkSnapshot(n, edges)], cyclic_extendable=True)


@st.composite
def random_rounds(draw):
    """A dynamic schedule: a fresh random connected graph every round."""
    n = draw(st.integers(2, 16))
    p = draw(st.sampled_from([0.0, 0.2]))
    return build_random_interval_connected(n, p, seed=draw(st.integers(0, 999)), horizon=32)


token = st.one_of(st.none(), st.integers(0, 5))  # None is a padding blank


@st.composite
def balance_case(draw):
    """A schedule, a full/target split covering every node (a node may be
    both), and two payload lists of one length, blanks included."""
    shapes = st.sampled_from(["tree", "line", "cycle", "complete"]).flatmap(relabelled)
    schedule = draw(st.one_of(shapes, random_rounds()))
    n = schedule.n
    # 0: full only, 1: target only, 2: both.  Someone is full, someone a target.
    roles = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    if all(r == 1 for r in roles) or all(r == 0 for r in roles):
        roles[draw(st.integers(0, n - 1))] = 2
    full = [v for v in range(n) if roles[v] != 1]
    targets = [v for v in range(n) if roles[v] != 0]
    tokens = draw(st.lists(token, min_size=1, max_size=48))
    other = draw(st.lists(token, min_size=len(tokens), max_size=len(tokens)))
    return schedule, full, targets, tokens, other, draw(st.integers(0, 2**32))


def balance(schedule, full, targets, tokens, seed):
    state = TokenState(schedule.n, TokenUniverse(6, 6), {f: range(6) for f in full})
    run = EngineRun(schedule, state, seed=0, max_rounds=100000)
    pool = central.ItemPool(tokens, derive_rng("router", seed))
    return central.load_balance(run, full, targets, pool)


@settings(max_examples=300, deadline=None)
@given(balance_case())
def test_gradient_router_guarantees(case):
    """Every item lands once, every target ends at the floor or the
    ceiling, no directed edge carries two tokens in a round, no call stalls,
    and the assignment depends on the rank permutation, not the payloads."""
    schedule, full, targets, tokens, other, seed = case
    plans, assignment, log = balance(schedule, full, targets, tokens, seed)
    total = len(tokens)
    assert sorted(assignment) == list(range(total)) and log.placed == total
    floor_q, rem = divmod(total, len(targets))
    counts = [list(assignment.values()).count(v) for v in targets]
    assert sorted(counts) == [floor_q] * (len(targets) - rem) + [floor_q + 1] * rem
    assert log.rounds == len(plans)
    for plan in plans:
        assert len({(u, v) for u, v, _ in plan}) == len(plan)
    assert balance(schedule, full, targets, other, seed)[1] == assignment


SOURCE_128 = {"kind": "single-source", "tokens": 128}


@pytest.mark.parametrize(
    "adversary, n, initial, calls, rounds, digest",
    [
        ({"name": "static-line"}, 64, SOURCE_128, 4, 1298, "fcdc94e8f8e03554"),
        (
            {"name": "ring-failure", "policy": "round-robin", "horizon": 8192},
            64, SOURCE_128, 4, 1333, "5c752e7d925fffd7",
        ),
        (
            {"name": "random", "extra_edge_prob": 0.1, "horizon": 2048},
            32, SOURCE_128, 3, 183, "69063d89e7bfc1dd",
        ),
        ({"name": "static-line"}, 64, {"kind": "one-token-per-node"}, 5, 596, "4d88412609aefc31"),
    ],
    ids=["static-line", "ring-failure", "random", "static-line-per-node"],
)
def test_staged_load_balance_plans_pinned(monkeypatch, adversary, n, initial, calls, rounds, digest):
    """Every load-balance call's plans in a staged central k-gossip cell,
    seed 1, hashed in call order: a changed target or path tie-break moves
    the digest even where completion rounds stay the same.  The single
    sources cover their group from one node; one token per node covers it
    from many, each padding its copies with blanks."""
    real = central.load_balance
    plans_seen = []

    def recording(run, full_nodes, targets, pool):
        plans, assignment, log = real(run, full_nodes, targets, pool)
        plans_seen.append(plans)
        return plans, assignment, log

    monkeypatch.setattr(central, "load_balance", recording)
    config = ExperimentConfig(
        adversary,
        {"name": "central-kgossip", "mode": "staged"},
        initial,
        [n], [1], 400000,
    )
    assert run_cell(config, n, 1).completion_round is not None
    assert len(plans_seen) == calls
    assert sum(len(plans) for plans in plans_seen) == rounds
    encoded = json.dumps(plans_seen).encode()
    assert hashlib.sha256(encoded).hexdigest()[:16] == digest


@pytest.mark.parametrize(
    "adversary, n, phases, completion, digest",
    [
        ({"name": "skb-blocker"}, 100, 2, 381, "8c25bf9937eec1ad"),
        ({"name": "static-line"}, 64, 1, 188, "4c215b425d46a41c"),
    ],
    ids=["skb-blocker", "static-line"],
)
def test_n_broadcast_plans_pinned(adversary, n, phases, completion, digest):
    """Every executed plan of a central broadcast from the generator's
    source, seed 1, load-balance and exchange rounds alike, hashed in round
    order.  The skb-blocker cell needs a second phase; the line finishes in
    one."""
    schedule = build_schedule(adversary, n, 1)
    run = EngineRun(schedule, initial_state({"kind": "single-source"}, n, schedule), 1, 20000)
    plans = []
    execute = run.execute

    def recording(plan):
        plans.append(plan)
        return execute(plan)

    run.execute = recording
    outcome = central.n_broadcast(run, schedule.metadata.get("source", 0))
    assert outcome.stalled is None
    assert [log.stage for log in outcome.stage_logs] == [
        f"broadcast-phase-{i}" for i in range(phases)
    ]
    assert sum(log.rounds for log in outcome.stage_logs) == run.rounds_executed
    assert run.result().completion_round == completion == run.rounds_executed
    assert hashlib.sha256(json.dumps(plans).encode()).hexdigest()[:16] == digest
