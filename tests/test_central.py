"""Centralized scheduler: load balancing, broadcast, and the full pipeline."""

import math

import pytest

from gossipsim import central
from gossipsim.blocker_line import BlockerLineParams, build_blocker_line_invasive
from gossipsim.central import (
    ItemPool,
    LoadBalanceStalled,
    k_gossip_centralized,
    load_balance,
    n_broadcast,
    pad_state_for_kgossip,
)
from gossipsim.core import (
    AdversarySchedule,
    EngineRun,
    NetworkSnapshot,
    TokenState,
    TokenUniverse,
    derive_rng,
)
from gossipsim.harness import ExperimentConfig, run_cell
from gossipsim.paths import build_ring_failure
from gossipsim.random_schedules import build_random_interval_connected


def static_schedule(n, edges, horizon=1):
    snap = NetworkSnapshot(n, edges)
    return AdversarySchedule(n, horizon, [snap] * horizon, cyclic_extendable=True)


def line(n):
    return static_schedule(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return static_schedule(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def fresh_run(schedule, holdings, universe, seed=0, max_rounds=100000):
    state = TokenState(schedule.n, universe, holdings)
    return EngineRun(schedule, state, seed, max_rounds)


class TestLoadBalance:
    def test_even_split_exact(self):
        # 4 items over 2 targets -> exactly 2 each
        run = fresh_run(line(3), {0: range(4)}, TokenUniverse(4, 4))
        pool = ItemPool(list(range(4)), derive_rng("lb", 0))
        _, assignment, log = load_balance(run, [0], [1, 2], pool)
        counts = {v: 0 for v in (1, 2)}
        for node in assignment.values():
            counts[node] += 1
        assert counts == {1: 2, 2: 2}
        assert log.placed == 4

    def test_uneven_split_floor_ceil(self):
        # 5 items over 2 targets -> {3, 2} in some order
        run = fresh_run(line(3), {0: range(5)}, TokenUniverse(5, 5))
        pool = ItemPool(list(range(5)), derive_rng("lb", 1))
        _, assignment, _ = load_balance(run, [0], [1, 2], pool)
        counts = sorted(
            sum(1 for node in assignment.values() if node == v) for v in (1, 2)
        )
        assert counts == [2, 3]

    def test_each_item_placed_exactly_once(self):
        run = fresh_run(line(5), {0: range(8)}, TokenUniverse(8, 8))
        pool = ItemPool(list(range(8)), derive_rng("lb", 2))
        _, assignment, log = load_balance(run, [0], [1, 2, 3, 4], pool)
        assert sorted(assignment.keys()) == list(range(8))
        assert log.placed == 8

    def test_overage_logged_on_deferred_pipeline(self):
        # targets two hops away defer early deliveries
        run = fresh_run(line(5), {0: range(8)}, TokenUniverse(8, 8))
        pool = ItemPool(list(range(8)), derive_rng("lb", 3))
        _, _, log = load_balance(run, [0], [1, 2, 3, 4], pool)
        assert log.rounds >= 8
        assert log.overage == log.rounds - 8

    def test_targets_receive_their_tokens(self):
        run = fresh_run(line(4), {0: range(6)}, TokenUniverse(6, 6))
        pool = ItemPool(list(range(6)), derive_rng("lb", 4))
        _, assignment, _ = load_balance(run, [0], [1, 2, 3], pool)
        for item_id, node in assignment.items():
            token = pool.tokens[item_id]
            assert run.state.holds(node, token)

    def test_padding_items_place_without_sends(self):
        run = fresh_run(line(3), {0: [0]}, TokenUniverse(1, 1))
        pool = ItemPool([0, None, None, None], derive_rng("lb", 5))
        plans, assignment, log = load_balance(run, [0], [1, 2], pool)
        assert log.placed == 4
        sends = [send for plan in plans for send in plan]
        assert all(tok == 0 for _, _, tok in sends)

    def test_rejects_empty_targets(self):
        run = fresh_run(line(2), {0: [0], 1: [0]}, TokenUniverse(1, 1))
        pool = ItemPool([0], derive_rng("lb", 6))
        with pytest.raises(ValueError):
            load_balance(run, [0, 1], [], pool)

    def test_rejects_empty_pool(self):
        run = fresh_run(line(2), {0: [0]}, TokenUniverse(1, 1))
        with pytest.raises(ValueError):
            load_balance(run, [0], [1], ItemPool([], derive_rng("lb", 7)))

    def test_rejects_full_node_missing_tokens(self):
        run = fresh_run(line(2), {0: [0]}, TokenUniverse(2, 2))
        pool = ItemPool([0, 1], derive_rng("lb", 8))
        with pytest.raises(ValueError):
            load_balance(run, [0], [1], pool)

    def test_works_on_changing_topology(self):
        schedule, _, _ = build_ring_failure(6, "round-robin", seed=3, horizon=4000)
        run = fresh_run(schedule, {0: range(10)}, TokenUniverse(10, 10), max_rounds=4000)
        pool = ItemPool(list(range(10)), derive_rng("lb", 9))
        _, assignment, log = load_balance(run, [0], list(range(1, 6)), pool)
        assert log.placed == 10
        counts = [sum(1 for node in assignment.values() if node == v) for v in range(1, 6)]
        assert sorted(counts) == [2, 2, 2, 2, 2]

    def test_slot_map_is_identity_blind(self):
        # same dynamics, different permutations: targets receive the same
        # injection slots, so counts per target never change
        baseline = None
        for trial in range(6):
            run = fresh_run(line(5), {0: range(8)}, TokenUniverse(8, 8))
            pool = ItemPool(list(range(8)), derive_rng("slots", trial))
            _, assignment, _ = load_balance(run, [0], [1, 2, 3, 4], pool)
            slots = {
                v: sorted(pool.ranks[i] for i, node in assignment.items() if node == v)
                for v in (1, 2, 3, 4)
            }
            if baseline is None:
                baseline = slots
            else:
                assert slots == baseline


class TestNBroadcast:
    def test_two_nodes_fast(self):
        run = fresh_run(static_schedule(2, [(0, 1)]), {0: [0, 1]}, TokenUniverse(2, 2))
        outcome = n_broadcast(run, 0)
        assert outcome.stalled is None
        assert run.rounds_executed <= 3

    def test_complete_graph_within_budget(self):
        n = 16
        run = fresh_run(complete_graph(n), {0: range(n)}, TokenUniverse(n, n))
        outcome = n_broadcast(run, 0)
        assert outcome.stalled is None
        budget = 64 * n ** 1.5 * math.log2(n) ** 2
        assert run.rounds_executed <= budget

    def test_line_completes(self):
        n = 8
        run = fresh_run(line(n), {0: range(n)}, TokenUniverse(n, n))
        outcome = n_broadcast(run, 0)
        assert outcome.stalled is None
        assert run.complete()

    def test_distribution_places_quota_per_phase(self):
        # after one load-balance over r non-full nodes every target holds at
        # least floor(n/r) fresh tokens
        n = 6
        run = fresh_run(complete_graph(n), {0: range(n)}, TokenUniverse(n, n))
        pool = ItemPool(list(range(n)), derive_rng("quota"))
        targets = list(range(1, n))
        _, assignment, _ = load_balance(run, [0], targets, pool)
        per_node = {v: 0 for v in targets}
        for node in assignment.values():
            per_node[node] += 1
        assert all(c >= n // len(targets) for c in per_node.values())

    def test_requires_source_holding_set(self):
        run = fresh_run(line(2), {0: [0]}, TokenUniverse(2, 2))
        with pytest.raises(ValueError):
            n_broadcast(run, 0, tokens=[0, 1])


class TestReduce:
    """k-gossip's padding: the universe grows to ceil(k/n) groups of n ids,
    and the dummies start at node 0."""

    def test_exact_fit(self):
        state = TokenState(4, TokenUniverse(4, 4), {v: [v] for v in range(4)})
        assert pad_state_for_kgossip(state) is state

    def test_pad_small_k(self):
        state = TokenState(4, TokenUniverse(3, 3), {1: [0, 1, 2]})
        padded = pad_state_for_kgossip(state)
        assert (padded.universe.size, padded.universe.real_count) == (4, 3)
        assert [padded.tokens(v) for v in range(4)] == [{3}, {0, 1, 2}, set(), set()]

    def test_multiple_groups(self):
        state = TokenState(4, TokenUniverse(10, 10), {0: range(10)})
        padded = pad_state_for_kgossip(state)
        assert (padded.universe.size, padded.universe.real_count) == (12, 10)
        assert padded.tokens(0) == set(range(12))
        assert all(not padded.tokens(v) for v in (1, 2, 3))


def kgossip_universe(k, n):
    return pad_state_for_kgossip(TokenState(n, TokenUniverse(k, k), {})).universe


class TestKGossip:
    def test_k1_degenerates_to_flooding(self):
        n = 8
        universe = kgossip_universe(1, n)
        run = fresh_run(line(n), {0: range(universe.size)}, universe, max_rounds=n)
        outcome = k_gossip_centralized(run)
        assert outcome.result.completion_round is not None
        assert outcome.result.completion_round <= n

    def test_static_complete_graph(self):
        n, k = 16, 16
        universe = kgossip_universe(k, n)
        run = fresh_run(
            complete_graph(n), {0: range(universe.size)}, universe, max_rounds=n * k
        )
        outcome = k_gossip_centralized(run)
        assert outcome.result.completion_round is not None
        budget = min(n * k, 64 * (n + k) * math.sqrt(n) * math.log2(n) ** 2)
        assert outcome.result.completion_round <= budget

    def test_unknown_mode_rejected(self):
        n, k = 8, 8
        universe = kgossip_universe(k, n)
        for mode in ("auto", "Staged", "stagd"):
            run = fresh_run(complete_graph(n), {0: range(universe.size)}, universe, max_rounds=100)
            with pytest.raises(ValueError, match="unknown k-gossip mode"):
                k_gossip_centralized(run, mode)
            assert run.rounds_executed == 0

    def test_unpadded_universe_rejected(self):
        run = fresh_run(line(4), {0: range(3)}, TokenUniverse(3, 3))
        with pytest.raises(ValueError, match="padded size 4"):
            k_gossip_centralized(run)

    def test_staged_mode_completes_on_static_graph(self):
        n, k = 16, 16
        universe = kgossip_universe(k, n)
        run = fresh_run(
            complete_graph(n), {0: range(universe.size)}, universe, max_rounds=200000
        )
        outcome = k_gossip_centralized(run, mode="staged")
        assert outcome.stage_logs[0].stage == "group-0-consolidation"
        assert outcome.stalled is None
        assert outcome.result.completion_round is not None

    def test_staged_mode_on_random_schedule(self):
        n, k = 16, 16
        schedule = build_random_interval_connected(n, 0.15, seed=5, horizon=3000)
        universe = kgossip_universe(k, n)
        run = fresh_run(schedule, {0: range(universe.size)}, universe, max_rounds=50000)
        outcome = k_gossip_centralized(run, mode="staged")
        assert outcome.stalled is None
        assert outcome.result.completion_round is not None

    def test_staged_mode_stops_at_completion(self):
        """The benchmark's staged cell (n = 64, k = 128, p = 0.1) completes
        during group 1's consolidation; no round runs after completion.  On
        it, and on a static line and a round-robin ring-failure from a single
        source (k = n = 64), every round is in exactly one stage log: the
        broadcast's phases were once logged beside the broadcast too (3116
        and 2365 logged rounds against 2952 and 2150 run)."""
        n = 64
        cells = [
            (build_random_interval_connected(n, 0.1, seed=seed, horizon=2048), 128, seed)
            for seed in (1, 2)
        ]
        cells.append((line(n), n, 1))
        cells.append((build_ring_failure(n, "round-robin", seed=1, horizon=4096)[0], n, 1))
        for schedule, k, seed in cells:
            universe = kgossip_universe(k, n)
            run = fresh_run(schedule, {0: range(universe.size)}, universe, seed, n * k)
            outcome = k_gossip_centralized(run, mode="staged")
            assert outcome.stalled is None
            result = outcome.result
            assert result.completion_round is not None
            assert result.rounds_executed == result.completion_round
            assert sum(log.rounds for log in outcome.stage_logs) == result.rounds_executed

    @pytest.mark.parametrize("n, k, completion", [(32, 16, 458), (64, 32, 1155)])
    def test_staged_broadcast_stops_at_completion(self, n, k, completion):
        """k < n pads the group with dummies; the broadcast stage ends once
        every real token is everywhere, not once the dummies are too."""
        schedule, _, _ = build_ring_failure(n, "round-robin", seed=1, horizon=4 * n)
        universe = kgossip_universe(k, n)
        run = fresh_run(schedule, {0: range(universe.size)}, universe, 1, 20000)
        outcome = k_gossip_centralized(run, mode="staged")
        assert outcome.stalled is None
        assert outcome.result.completion_round == completion
        assert outcome.result.rounds_executed == completion

    def test_scattered_initial_tokens(self):
        n, k = 12, 12
        universe = kgossip_universe(k, n)
        holdings = {v: [v] for v in range(n)}
        run = fresh_run(complete_graph(n), holdings, universe, max_rounds=n * k)
        outcome = k_gossip_centralized(run)
        assert outcome.result.completion_round is not None

    def test_naive_within_nk(self):
        n, k = 16, 8
        universe = kgossip_universe(k, n)
        schedule = build_random_interval_connected(n, 0.1, seed=9, horizon=n * k)
        run = fresh_run(schedule, {0: range(universe.size)}, universe, max_rounds=n * k)
        outcome = k_gossip_centralized(run)
        assert [log.stage for log in outcome.stage_logs] == ["naive-broadcast"]
        assert outcome.result.completion_round is not None
        assert outcome.result.completion_round <= n * k


class TestBroadcastMonotonicity:
    def test_full_node_count_never_decreases_across_stages(self):
        n = 12
        schedule = build_random_interval_connected(n, 0.15, seed=8, horizon=4000)
        run = fresh_run(schedule, {0: range(n)}, TokenUniverse(n, n), max_rounds=4000)
        outcome = n_broadcast(run, 0)
        assert outcome.stalled is None
        remaining = [
            log.detail["non_full_after"]
            for log in outcome.stage_logs
            if "non_full_after" in log.detail
        ]
        assert remaining == sorted(remaining, reverse=True)


class TestKGossipOnPathFamilies:
    def test_staged_mode_on_center_terminal(self):
        from gossipsim.paths import build_center_terminal

        n, k = 12, 12
        schedule, _, _ = build_center_terminal(n, 4, seed=6, horizon=4000)
        universe = kgossip_universe(k, n)
        run = fresh_run(schedule, {0: range(universe.size)}, universe, max_rounds=4000)
        outcome = k_gossip_centralized(run, mode="staged")
        assert outcome.stalled is None
        assert outcome.result.completion_round is not None

    def test_staged_mode_on_ring_failure(self):
        n, k = 16, 16
        schedule, _, _ = build_ring_failure(n, "round-robin", seed=2, horizon=20000)
        universe = kgossip_universe(k, n)
        run = fresh_run(schedule, {0: range(universe.size)}, universe, max_rounds=20000)
        outcome = k_gossip_centralized(run, mode="staged")
        assert outcome.stalled is None
        assert outcome.result.completion_round is not None


class TestKGossipOnInvasiveSchedules:
    @pytest.mark.parametrize("mode, completion", [("staged", 3437), ("naive", 15746)])
    def test_counts_include_inserted_tokens(self, mode, completion):
        """The invasive line inserts tokens while k-gossip runs; a flood's
        holder count (staged consolidation and residual floods, naive
        floods) takes them in with the sent ones.  Counting only sends gave
        13205 rounds (staged, under the earlier single-path load balance)
        and 15885 (naive)."""
        n = 144
        schedule = build_blocker_line_invasive(BlockerLineParams(n, 1))
        universe = kgossip_universe(n, n)
        source = schedule.metadata["source"]
        run = fresh_run(schedule, {source: range(universe.size)}, universe, seed=1)
        outcome = k_gossip_centralized(run, mode)
        assert outcome.stalled is None
        assert outcome.result.completion_round == completion


class TestLoadBalanceStalls:
    """A load balance that stalls ends its stage with a marked outcome; the
    exception never escapes the broadcast or k-gossip, so a cell still
    writes a row."""

    @staticmethod
    def stall(run, full_nodes, targets, pool):
        raise LoadBalanceStalled("no progress")

    @staticmethod
    def cycle_run(n=9):
        """One token per node on a static n-cycle."""
        schedule = static_schedule(n, [(i, (i + 1) % n) for i in range(n)])
        return fresh_run(schedule, {v: [v] for v in range(n)}, TokenUniverse(n, n), seed=1)

    def test_n_broadcast_marks_the_stall(self, monkeypatch):
        monkeypatch.setattr(central, "load_balance", self.stall)
        run = fresh_run(line(8), {0: range(8)}, TokenUniverse(8, 8))
        outcome = n_broadcast(run, 0)
        assert outcome.stalled == "load-balance-stalled"

    def test_k_gossip_distribution_stall_is_marked(self, monkeypatch):
        monkeypatch.setattr(central, "load_balance", self.stall)
        outcome = k_gossip_centralized(self.cycle_run(), mode="staged")
        assert outcome.stalled == "load-balance-stalled"
        assert outcome.result.timed_out

    def test_k_gossip_broadcast_stall_names_its_group(self, monkeypatch):
        """On the static 9-cycle, one token per node, group 0's distribution
        spreads over all nodes and its broadcast over the non-full ones;
        only the broadcast's load balance stalls here."""
        real = central.load_balance

        def stall_broadcast(run, full_nodes, targets, pool):
            if len(targets) < run.state.n:
                raise LoadBalanceStalled("no progress")
            return real(run, full_nodes, targets, pool)

        monkeypatch.setattr(central, "load_balance", stall_broadcast)
        outcome = k_gossip_centralized(self.cycle_run(), mode="staged")
        assert outcome.stalled == "group-0-broadcast-load-balance-stalled"
        assert outcome.result.timed_out

    @pytest.mark.parametrize(
        "protocol", [{"name": "central-broadcast"}, {"name": "central-kgossip", "mode": "staged"}]
    )
    def test_run_cell_gives_a_timeout_cell(self, monkeypatch, protocol):
        monkeypatch.setattr(central, "load_balance", self.stall)
        config = ExperimentConfig(
            {"name": "static-cycle"}, protocol, {"kind": "single-source"}, [9], [1], 1000
        )
        cell = run_cell(config, 9, 1)
        assert cell.timed_out and cell.completion_round is None


@pytest.mark.parametrize(
    "adversary, protocol, initial, n, completion",
    [
        ({"name": "static-line"}, {"name": "central-broadcast"}, {"kind": "single-source"}, 128, 380),
        ({"name": "blocker-invasive"}, {"name": "central-broadcast"}, {"kind": "single-source"}, 100, 268),
        (
            {"name": "static-line"}, {"name": "central-kgossip", "mode": "staged"},
            {"kind": "one-token-per-node"}, 128, 3412,
        ),
    ],
    ids=["broadcast-line-128", "broadcast-invasive-100", "staged-per-node-line-128"],
)
def test_cells_that_drained_one_item_a_round_complete(adversary, protocol, initial, n, completion):
    """A load balance that sent one item a round down one path stalled
    (`load-balance-stalled`) on these cells, seed 1; gradient routing moves
    every queued item each round, and each cell completes in well under a
    second."""
    config = ExperimentConfig(adversary, protocol, initial, [n], [1], 400000)
    cell = run_cell(config, n, 1)
    assert not cell.timed_out
    assert cell.completion_round == completion
