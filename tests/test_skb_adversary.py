"""Blocker-set line adversary structure."""

import hashlib

import pytest
from reference_sim import reference_skb_uniform_run

from gossipsim.core import NetworkSnapshot, run_simulation, validate_snapshot
from gossipsim.harness import build_schedule, initial_state
from gossipsim.protocols import get_protocol
from gossipsim.skb_adversary import SkbAdversaryParams, build_skb_adversary, icbrt


def snapshots(schedule):
    """Every round's graph, through `snapshot_at`."""
    return [schedule.snapshot_at(t) for t in range(1, schedule.horizon + 1)]


class TestParams:
    def test_cube_roots(self):
        assert icbrt(64) == 4
        assert icbrt(4096) == 16
        assert icbrt(100) == 4
        assert icbrt(125) == 5

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            SkbAdversaryParams(63, seed=0)

    def test_reservation_within_half(self):
        for n in (64, 125, 512, 4096):
            p = SkbAdversaryParams(n, seed=0)
            total = p.phases * p.sets_per_phase * p.blocker_set_size
            assert total <= n // 2


class TestSchedule:
    def test_insertion_cascade_round_one(self):
        # segment round 1: exactly the first blocker set into the first node
        schedule = build_skb_adversary(SkbAdversaryParams(64, seed=1))
        meta = schedule.metadata
        seg = meta["segments"][0]
        start = seg["rounds"][0]
        events = [ev for ev in schedule.insertions if ev.round == start]
        sets = meta["blocker_sets"][0]
        assert {ev.node for ev in events} == {seg["nodes"][0]}
        assert sorted({ev.token for ev in events}) == sets[0]

    def test_insertion_cascade_round_three(self):
        # round k=3: nodes v1,v2,v3 get sets 3,2,1 respectively
        schedule = build_skb_adversary(SkbAdversaryParams(64, seed=1))
        meta = schedule.metadata
        seg = meta["segments"][0]
        start = seg["rounds"][0]
        sets = meta["blocker_sets"][0]
        events = [ev for ev in schedule.insertions if ev.round == start + 2]
        by_node = {}
        for ev in events:
            by_node.setdefault(ev.node, set()).add(ev.token)
        v = seg["nodes"]
        assert by_node[v[0]] == set(sets[2])
        assert by_node[v[1]] == set(sets[1])
        assert by_node[v[2]] == set(sets[0])

    def test_blocker_sets_pairwise_disjoint(self):
        schedule = build_skb_adversary(SkbAdversaryParams(512, seed=2))
        sets = [
            s for phase_sets in schedule.metadata["blocker_sets"] for s in phase_sets
        ]
        seen = set()
        for s in sets:
            assert not (seen & set(s))
            seen |= set(s)
        lo, hi = schedule.metadata["non_blocker_tokens"]
        assert seen == set(range(lo))
        assert hi == 512

    def test_all_snapshots_are_connected_lines(self):
        schedule = build_skb_adversary(SkbAdversaryParams(64, seed=3))
        for snap in snapshots(schedule):
            assert validate_snapshot(snap).ok
            assert max(len(a) for a in snap.adjacency) <= 2

    def test_segment_windows_tile_horizon(self):
        params = SkbAdversaryParams(64, seed=4)
        schedule = build_skb_adversary(params)
        expected_round = 1
        for seg in schedule.metadata["segments"]:
            lo, hi = seg["rounds"]
            assert lo == expected_round
            assert hi - lo + 1 == params.segment_rounds
            expected_round = hi + 1
        assert expected_round == schedule.horizon + 1

    def test_watched_nodes_partition_into_inner_outer(self):
        params = SkbAdversaryParams(64, seed=4)
        schedule = build_skb_adversary(params)
        for seg in schedule.metadata["segments"]:
            assert seg["inner"] + seg["outer"] == seg["nodes"]
            assert len(seg["inner"]) <= params.inner_width
            assert seg["outer"], "every segment must exile at least one node"

    def test_each_node_watched_at_most_once(self):
        schedule = build_skb_adversary(SkbAdversaryParams(64, seed=5))
        seen = set()
        for seg in schedule.metadata["segments"]:
            assert not (seen & set(seg["nodes"]))
            seen |= set(seg["nodes"])

    def test_phase_fold(self):
        """A second phase folds the exiled nodes back into the middle.  No
        default n below 421,875 has two phases, so the count is forced
        here.  At n=512 the first phase's 64 segments leave one exiled node
        each, which the second phase watches in 8 segments of 8."""
        params = SkbAdversaryParams(512, seed=1)
        object.__setattr__(params, "phases", 2)
        schedule = build_skb_adversary(params)
        segments = schedule.metadata["segments"]
        assert schedule.horizon == 576
        assert len(segments) == 72
        assert [s["phase"] for s in segments] == [1] * 64 + [2] * 8
        # exiled blocks are prepended: the newest sits nearest the middle
        folded = [v for s in reversed(segments[:64]) for v in s["outer"]]
        assert [v for s in segments[64:] for v in s["nodes"]] == folded
        span = params.segment_rounds
        digest = hashlib.sha256()
        for t in range(1, schedule.horizon + 1):
            snap = schedule.snapshot_at(t)  # in order: derived from the segment before
            assert validate_snapshot(snap).ok
            assert max(len(a) for a in snap.adjacency) <= 2
            k, offset = divmod(t - 1, span)
            if offset == 0:
                fresh = NetworkSnapshot(512, schedule.rounds.build(k).edges)
                views = (fresh.edges, fresh.directed_edges, fresh.adjacency)
                assert (snap.edges, snap.directed_edges, snap.adjacency) == views, f"segment {k}"
                digest.update(repr(sorted(snap.edges)).encode())
        assert digest.hexdigest()[:16] == "8750d41ef6636155"

    def test_deterministic(self):
        a = build_skb_adversary(SkbAdversaryParams(64, seed=6))
        b = build_skb_adversary(SkbAdversaryParams(64, seed=6))
        assert a.insertions == b.insertions
        assert [s.edges for s in snapshots(a)] == [s.edges for s in snapshots(b)]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [64, 256])
def test_skb_uniform_run_matches_reference(n, seed):
    """skb-uniform on skb-blocker over the whole horizon, as the harness
    runs it, against the straight-line oracle: the same new arrivals per
    round, and the same tokens in the same order and rounds at every node."""
    schedule = build_schedule({"name": "skb-blocker"}, n, seed)
    state = initial_state({"kind": "single-source"}, n, schedule)
    start = {v: list(state.holdings_seq[v]) for v in range(n)}
    rounds = schedule.horizon
    edges = [sorted(schedule.snapshot_at(t).edges) for t in range(1, rounds + 1)]
    insertions = [tuple(ev) for ev in schedule.insertions]
    result = run_simulation(schedule, get_protocol("skb-uniform"), state, rounds, seed)
    per_round, arrivals = reference_skb_uniform_run(n, edges, start, insertions, seed)
    assert result.rounds_executed == rounds
    assert result.per_round_new_arrivals == per_round
    assert {v: list(zip(state.holdings_seq[v], state.when[v])) for v in range(n)} == arrivals
