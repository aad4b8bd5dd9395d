"""Load-balance routing: the early-stopping BFS against the full-BFS rule it
replaced, staged runs' load-balance plans and central broadcasts' executed
plans pinned by sha256 prefixes."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim import central
from gossipsim.core import EngineRun, NetworkSnapshot, bfs_distances
from gossipsim.harness import ExperimentConfig, build_schedule, initial_state, run_cell


def reference_path(snapshot, sources, wanted):
    """The full-BFS rule: the wanted node nearest the sources (ties to the
    lowest id), reached by walking back along lowest-id neighbours one BFS
    level up."""
    dist = bfs_distances(snapshot, sources)
    target = min(wanted, key=lambda v: (dist[v], v))
    adj = snapshot.adjacency
    path = [target]
    node = target
    while dist[node] > 0:
        node = min(v for v in adj[node] if dist[v] == dist[node] - 1)
        path.append(node)
    path.reverse()
    return path


@st.composite
def relabelled(draw, shape):
    """A connected graph of the given shape on 1..24 nodes, ids permuted."""
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
    return NetworkSnapshot(n, edges)


@st.composite
def routing_case(draw):
    snapshot = draw(st.sampled_from(["tree", "line", "cycle", "complete"]).flatmap(relabelled))
    nodes = st.integers(0, snapshot.n - 1)
    sources = draw(st.sets(nodes, min_size=1))
    wanted = draw(st.sets(nodes, min_size=1))
    return snapshot, sources, wanted


@settings(max_examples=400, deadline=None)
@given(routing_case())
def test_nearest_path_matches_full_bfs_rule(case):
    snapshot, sources, wanted = case
    path = central._nearest_path(snapshot, sorted(sources), wanted)
    assert path == reference_path(snapshot, sources, wanted)
    assert path[0] in sources and path[-1] in wanted
    assert all(b in snapshot.adjacency[a] for a, b in zip(path, path[1:]))


def test_overlapping_sources_and_wanted_route_in_place():
    snapshot = NetworkSnapshot(4, [(0, 1), (1, 2), (2, 3)])
    assert central._nearest_path(snapshot, [1, 3], {3, 0}) == [3]


def test_unreachable_wanted_nodes_raise():
    """Two components: the search ends once the sources' component is
    exhausted instead of looping."""
    snapshot = NetworkSnapshot(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    with pytest.raises(ValueError):
        central._nearest_path(snapshot, [0], {4, 5})
    with pytest.raises(ValueError):
        central._nearest_path(NetworkSnapshot(3, []), [0, 1], {2})


SOURCE_128 = {"kind": "single-source", "tokens": 128}


@pytest.mark.parametrize(
    "adversary, n, initial, calls, rounds, digest",
    [
        ({"name": "static-line"}, 64, SOURCE_128, 4, 5065, "b170b1f3c3466c18"),
        (
            {"name": "ring-failure", "policy": "round-robin", "horizon": 8192},
            64, SOURCE_128, 4, 3192, "8a08ef69306759ab",
        ),
        (
            {"name": "random", "extra_edge_prob": 0.1, "horizon": 2048},
            32, SOURCE_128, 3, 621, "d5f51f18b7324ca5",
        ),
        ({"name": "static-line"}, 64, {"kind": "one-token-per-node"}, 5, 3763, "892d374f76fa686b"),
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
        ({"name": "skb-blocker"}, 100, 2, 1610, "bfdab0aa1d9f1cb3"),
        ({"name": "static-line"}, 64, 1, 1089, "225bf343868b8fc8"),
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
