"""Blocker-line generator structure, determinism, and variant pairing."""

import hashlib
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim.blocker_line import (
    BlockerLineParams,
    _half_scatter,
    blocker_partition,
    build_blocker_line_invasive,
    build_blocker_line_oblivious,
)
from gossipsim.core import derive_rng, token_mask, validate_snapshot
from gossipsim.dgs1 import schedule_to_text


def snapshots(schedule):
    """Every round's graph, through `snapshot_at`."""
    return [schedule.snapshot_at(t) for t in range(1, schedule.horizon + 1)]


def recompute_counts(n, epsilon=1.0 / 32.0):
    """Independent re-derivation of the clamped parameter formulas."""
    m = math.isqrt(n)
    log2n = math.log2(n)
    return {
        "phases": max(1, math.floor(m / (2 * log2n))),
        "segments": max(1, math.floor(m / 3)),
        "segment_rounds": max(1, math.floor(epsilon * m)),
        "inner_width": math.ceil(log2n),
    }


class TestParams:
    @pytest.mark.parametrize("n", [64, 144, 256, 400, 1024])
    def test_formulas_match_independent_recompute(self, n):
        params = BlockerLineParams(n, seed=0)
        expected = recompute_counts(n)
        assert params.phases == expected["phases"]
        assert params.segments_per_phase == expected["segments"]
        assert params.segment_rounds == expected["segment_rounds"]
        assert params.inner_width == expected["inner_width"]

    def test_n256_worked_example(self):
        params = BlockerLineParams(256, seed=0)
        assert params.phases == max(1, math.floor(16 / 16)) == 1
        assert params.segment_rounds == 1  # floor(16/32) clamps to 1

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            BlockerLineParams(100 + 1, seed=0)

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            BlockerLineParams(16, seed=0)  # inner width 4 >= scatter width 4

    def test_partition_groups_disjoint_and_sized(self):
        params = BlockerLineParams(256, seed=0)
        groups = blocker_partition(params)
        assert len(groups) == 16
        assert all(len(g) == 16 for g in groups)
        seen = set()
        for g in groups:
            assert not (seen & set(g))
            seen |= set(g)
        assert seen == set(range(256))


def is_path_graph(snapshot):
    degs = [len(a) for a in snapshot.adjacency]
    return (
        max(degs) <= 2
        and degs.count(1) == 2
        and validate_snapshot(snapshot).ok
    )


def walk_line(snapshot, start, nxt):
    """Nodes of a path graph from `nxt` on, walking away from `start`."""
    order, prev, cur = [], start, nxt
    while cur is not None:
        order.append(cur)
        ahead = [v for v in snapshot.adjacency[cur] if v != prev]
        prev, cur = cur, (ahead[0] if ahead else None)
    return order


def start_holdings(schedule):
    return {node: set(tokens) for node, tokens in schedule.metadata["start_holdings"]}


class TestInvasive:
    def test_every_snapshot_is_a_line(self):
        schedule = build_blocker_line_invasive(BlockerLineParams(64, seed=1))
        for snap in snapshots(schedule):
            assert is_path_graph(snap)

    def test_horizon_is_phases_times_segments_times_rounds(self):
        params = BlockerLineParams(144, seed=2)
        schedule = build_blocker_line_invasive(params)
        assert schedule.horizon == params.invasive_horizon()

    def test_deterministic_bytes(self):
        a = schedule_to_text(build_blocker_line_invasive(BlockerLineParams(64, seed=9)))
        b = schedule_to_text(build_blocker_line_invasive(BlockerLineParams(64, seed=9)))
        assert a == b

    def test_different_seed_different_insertions(self):
        a = build_blocker_line_invasive(BlockerLineParams(64, seed=1))
        b = build_blocker_line_invasive(BlockerLineParams(64, seed=2))
        assert a.insertions != b.insertions

    def test_scatter_hits_only_scatter_nodes_with_group_tokens(self):
        params = BlockerLineParams(144, seed=4)
        schedule = build_blocker_line_invasive(params)
        meta = schedule.metadata
        groups = meta["blocker_groups"]
        for seg in meta["segments"]:
            phase = seg["phase"]
            start = seg["rounds"][0]
            pre = schedule.insertions_at(start - 1)
            scatter = [(node, mask) for node, mask in pre if node in set(seg["insert_nodes"])]
            assert scatter, "pre-segment insertions missing"
            group = token_mask(groups[phase - 1])
            assert all(mask and not mask & ~group for _, mask in scatter)

    def test_scatter_probability_half(self):
        params = BlockerLineParams(400, seed=5)
        schedule = build_blocker_line_invasive(params)
        seg = schedule.metadata["segments"][0]
        hits = sum(
            mask.bit_count()
            for node, mask in schedule.insertions_at(seg["rounds"][0] - 1)
            if node in set(seg["insert_nodes"])
        )
        m = params.sqrt_n
        trials = m * m  # token-node pairs
        # binomial(trials, 1/2) within 4 sigma
        assert abs(hits - trials / 2) <= 4 * math.sqrt(trials * 0.25)

    def test_post_phase_completes_group_on_right_line(self):
        params = BlockerLineParams(64, seed=6)
        schedule = build_blocker_line_invasive(params)
        meta = schedule.metadata
        last_round = schedule.horizon
        group = set(meta["blocker_groups"][0])
        post = [
            ev for ev in schedule.insertions if ev.round == last_round
        ]
        right = set(meta["right_line_per_phase"][0])
        assert {ev.node for ev in post} == right
        assert {ev.token for ev in post} == group

    def test_validates_as_schedule(self):
        schedule = build_blocker_line_invasive(BlockerLineParams(64, seed=7))
        assert schedule.validate() == []


def reference_half_scatter(rng, tokens, width):
    """The 1/2-scatter's draw contract as written: one `random()` per
    (token, node), token-major, and bit b of node i's mask set when token
    b's draw for node i is below 1/2."""
    masks = [0] * width
    for bit in range(tokens):
        for i in range(width):
            if rng.random() < 0.5:
                masks[i] |= 1 << bit
    return masks


@settings(max_examples=300, deadline=None)
@given(tokens=st.integers(1, 64), width=st.integers(1, 40), seed=st.integers(0, 2**64))
def test_half_scatter_matches_the_per_draw_loop(tokens, width, seed):
    """The batched read gives the loop's masks and leaves the rng where the
    loop leaves it."""
    batched, looped = random.Random(seed), random.Random(seed)
    assert _half_scatter(batched, tokens, width) == reference_half_scatter(looped, tokens, width)
    assert batched.random() == looped.random()


@pytest.mark.parametrize("epsilon", [None, 0.375, 0.5], ids=["eps-default", "eps-0.375", "eps-0.5"])
@pytest.mark.parametrize("n", [64, 100, 144, 256, 1024])
def test_invasive_insertions_match_the_per_draw_scatter(n, epsilon):
    """Every insertion of a whole build, rebuilt from its metadata with the
    per-draw loop: each segment's scatter in segment order from the build's
    stream, and each phase's right-line completion."""
    for seed in (1, 2, 3):
        params = BlockerLineParams(n, seed) if epsilon is None else BlockerLineParams(n, seed, epsilon)
        schedule = build_blocker_line_invasive(params)
        meta = schedule.metadata
        rng = derive_rng(seed, "blocker-line", "insertions")
        expected = {}
        for seg in meta["segments"]:
            group = meta["blocker_groups"][seg["phase"] - 1]
            nodes = seg["insert_nodes"]
            at = expected.setdefault(seg["rounds"][0] - 1, {})
            for node, mask in zip(nodes, reference_half_scatter(rng, len(group), len(nodes))):
                at[node] = at.get(node, 0) | mask << group[0]
            if seg["segment"] == params.segments_per_phase:
                at = expected.setdefault(seg["rounds"][1], {})
                for node in meta["right_line_per_phase"][seg["phase"] - 1]:
                    at[node] = at.get(node, 0) | token_mask(group)
        expected = {t: sorted((v, m) for v, m in at.items() if m) for t, at in expected.items()}
        assert schedule.insertion_masks == {t: pairs for t, pairs in expected.items() if pairs}


class TestOblivious:
    def test_no_insertions(self):
        schedule = build_blocker_line_oblivious(BlockerLineParams(64, seed=1))
        assert schedule.insertions == []
        assert schedule.insertion_masks == {}
        assert schedule.mode == "oblivious"

    def test_horizon_matches_independent_count(self):
        # independent closed-form oracle: phases * segments * segment_rounds;
        # the segments tile rounds 1..horizon, so no round falls between them
        for n in (64, 144, 256):
            counts = recompute_counts(n)
            expected = counts["phases"] * counts["segments"] * counts["segment_rounds"]
            schedule = build_blocker_line_oblivious(BlockerLineParams(n, seed=3))
            assert schedule.horizon == expected
            covered = [
                t for seg in schedule.metadata["segments"]
                for t in range(seg["rounds"][0], seg["rounds"][1] + 1)
            ]
            assert covered == list(range(1, expected + 1))

    def test_phase_start_star_edges(self):
        # no star: round 1 joins the source to its line neighbour only; the
        # first segment's scatter is held before round 1, the whole phase-1
        # group at the even positions of its scatter nodes, none at the odd
        params = BlockerLineParams(144, seed=8)
        schedule = build_blocker_line_oblivious(params)
        first = schedule.snapshot_at(1)
        seg = schedule.metadata["segments"][0]
        assert first.adjacency[0] == [seg["interval"][0]]
        assert validate_snapshot(first).ok
        start = start_holdings(schedule)
        group = set(schedule.metadata["blocker_groups"][0])
        for pos, x in enumerate(seg["insert_nodes"]):
            assert start.get(x, set()) == (group if pos % 2 == 0 else set())
        assert 0 not in start

    def test_segment_rounds_are_plain_lines(self):
        params = BlockerLineParams(144, seed=8)
        schedule = build_blocker_line_oblivious(params)
        for seg in schedule.metadata["segments"]:
            lo, hi = seg["rounds"]
            for t in range(lo, hi + 1):
                assert is_path_graph(schedule.snapshot_at(t))

    def test_inter_segment_clique_rounds_present(self):
        # no clique or hand-off rounds between segments: segment 2 follows
        # segment 1 at once; during segment 1 the later segments' holders are
        # parked, in segment order, at the far right end of the line, and at
        # segment 2 its holders are back in interval order, each still
        # holding exactly the phase's group
        params = BlockerLineParams(144, seed=8)
        schedule = build_blocker_line_oblivious(params)
        segs = schedule.metadata["segments"]
        first, second = segs[0], segs[1]
        assert second["rounds"][0] == first["rounds"][1] + 1
        later = [x for seg in segs[1:] for x in seg["insert_nodes"][::2]]
        during_first = walk_line(schedule.snapshot_at(first["rounds"][1]), 0, first["interval"][0])
        assert during_first[-len(later):] == later
        at_second = walk_line(schedule.snapshot_at(second["rounds"][0]), 0, second["interval"][0])
        assert at_second[: len(second["interval"])] == second["interval"]
        start = start_holdings(schedule)
        group = set(schedule.metadata["blocker_groups"][0])
        for x in second["insert_nodes"][::2]:
            assert start[x] == group
        for t in range(1, schedule.horizon + 1):
            assert is_path_graph(schedule.snapshot_at(t))

    def test_line_is_twins_with_parked_holders_at_the_end(self):
        params = BlockerLineParams(256, seed=4)
        obl = build_blocker_line_oblivious(params)
        inv = build_blocker_line_invasive(params)
        segs = obl.metadata["segments"]
        for k, seg in enumerate(segs):
            t = seg["rounds"][0]
            parked = [
                x for later in segs[k + 1 :] for x in later["insert_nodes"][::2]
            ]
            line = walk_line(obl.snapshot_at(t), 0, seg["interval"][0])
            twin = walk_line(inv.snapshot_at(t), 0, seg["interval"][0])
            assert line == [x for x in twin if x not in set(parked)] + parked
        assert snapshots(obl)[-1] == snapshots(inv)[-1]

    def test_start_holdings_are_blocker_groups(self):
        params = BlockerLineParams(2916, seed=3)  # two phases
        schedule = build_blocker_line_oblivious(params)
        meta = schedule.metadata
        groups = meta["blocker_groups"]
        expected = {}
        for seg in meta["segments"]:
            for x in seg["insert_nodes"][::2]:
                expected.setdefault(x, set()).update(groups[seg["phase"] - 1])
        assert start_holdings(schedule) == expected
        assert not set().union(*expected.values()) & set(meta["sentinel_tokens"])
        assert schedule.validate() == []

    def test_start_holdings_pinned(self):
        # n=2304 has two phases; digest of the holdings as a token set per
        # holder gave them
        schedule = build_blocker_line_oblivious(BlockerLineParams(2304, seed=1))
        text = json.dumps(schedule.metadata["start_holdings"])
        assert (
            hashlib.sha256(text.encode()).hexdigest()
            == "2cd2f386f742ef35895f4442a09dda5d60337653750a7f6e8a6a6a24aef9a867"
        )

    def test_build_memory_at_n4096(self):
        # 2.7 MB traced peak; a token set per holder took 5.4 MB
        tracemalloc.start()
        try:
            build_blocker_line_oblivious(BlockerLineParams(4096, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_all_rounds_connected(self):
        schedule = build_blocker_line_oblivious(BlockerLineParams(64, seed=2))
        for snap in snapshots(schedule):
            assert validate_snapshot(snap).ok

    def test_deterministic_bytes(self):
        a = schedule_to_text(build_blocker_line_oblivious(BlockerLineParams(64, seed=9)))
        b = schedule_to_text(build_blocker_line_oblivious(BlockerLineParams(64, seed=9)))
        assert a == b


class TestPairing:
    def test_same_partition_and_intervals_for_equal_seed(self):
        params = BlockerLineParams(144, seed=12)
        inv = build_blocker_line_invasive(params)
        obl = build_blocker_line_oblivious(params)
        assert inv.metadata["blocker_groups"] == obl.metadata["blocker_groups"]
        assert inv.metadata["sentinel_tokens"] == obl.metadata["sentinel_tokens"]
        assert inv.metadata["target_nodes"] == obl.metadata["target_nodes"]
        for a, b in zip(inv.metadata["segments"], obl.metadata["segments"]):
            assert a["interval"] == b["interval"]
            assert a["inner"] == b["inner"]
            assert a["outer"] == b["outer"]


class TestMultiPhase:
    def test_two_phase_construction(self):
        # smallest perfect square with two phases: floor(54 / (2 log2 2916)) = 2
        params = BlockerLineParams(2916, seed=3)
        assert params.phases == 2
        schedule = build_blocker_line_invasive(params)
        assert schedule.validate() == []
        meta = schedule.metadata
        phase1 = [s for s in meta["segments"] if s["phase"] == 1]
        phase2 = [s for s in meta["segments"] if s["phase"] == 2]
        assert len(phase1) == len(phase2) == params.segments_per_phase
        retired = set()
        for seg in phase1:
            retired |= set(seg["inner"])
        for seg in phase2:
            assert not (set(seg["interval"]) & retired)
        groups = meta["blocker_groups"]
        group1, group2 = set(groups[0]), set(groups[1])
        for seg in phase2:
            # the phase-1 completion insertions share the boundary round, so
            # filter them out before checking the phase-2 scatter group
            pre = [
                ev
                for ev in schedule.insertions
                if ev.round == seg["rounds"][0] - 1
                and ev.node in set(seg["insert_nodes"])
                and ev.token not in group1
            ]
            assert pre and all(ev.token in group2 for ev in pre)
        r1, r2 = (set(r) for r in meta["right_line_per_phase"])
        assert r2 < r1
        assert set(meta["target_nodes"]) == r2


class TestTargetQuarantine:
    @pytest.mark.parametrize("build", [build_blocker_line_invasive, build_blocker_line_oblivious])
    @pytest.mark.parametrize("n", [64, 144, 256, 400])
    def test_source_not_joined_to_targets_before_horizon(self, build, n):
        schedule = build(BlockerLineParams(n, seed=1))
        targets = set(schedule.metadata["target_nodes"])
        for t in range(1, schedule.horizon):
            joined = targets.intersection(schedule.snapshot_at(t).adjacency[0])
            assert not joined, f"round {t} joins the source to target nodes {sorted(joined)}"
