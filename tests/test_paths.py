"""Paths-respecting generators and validator."""

import itertools
import tracemalloc
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gossipsim.paths
from gossipsim.core import (
    AdversarySchedule,
    Check,
    NetworkSnapshot,
    canonical_edge,
    derive_rng,
    validate_snapshot,
)
from gossipsim.harness import build_schedule
from gossipsim.paths import (
    build_center_terminal,
    build_ring_failure,
    center_terminal_infrastructure,
    center_terminal_path_systems,
    path_family,
    ring_infrastructure,
    ring_path_systems,
    validate_paths_respecting,
)


@dataclass(frozen=True)
class PathSystem:
    """Vertex-disjoint simple paths between one source/destination pair:
    the test-side form of a pair's paths, which `gossipsim.paths` counts
    without building."""

    source: int
    dest: int
    paths: tuple[tuple[int, ...], ...]


def snapshots(schedule):
    """Every round's graph, through `snapshot_at`."""
    return [schedule.snapshot_at(t) for t in range(1, schedule.horizon + 1)]


def eager_ring_systems(n):
    systems = []
    for s in range(n):
        for d in range(s + 1, n):
            clockwise = tuple(range(s, d + 1))
            counter = tuple([s] + list(range(s - 1, -1, -1)) + list(range(n - 1, d - 1, -1)))
            systems.append(PathSystem(s, d, (clockwise, counter)))
    return systems


def eager_center_terminal_systems(n, r):
    systems = []
    for s in range(n):
        for d in range(s + 1, n):
            if s < r and d < r:
                systems.append(PathSystem(s, d, ((s, d),)))
            elif s < r:
                paths = [(s, d)] + [(s, c, d) for c in range(r) if c != s]
                systems.append(PathSystem(s, d, tuple(paths)))
            else:
                systems.append(PathSystem(s, d, tuple((s, c, d) for c in range(r))))
    return systems


def path_edges(system):
    """Every path's canonical edges, one entry per (path, hop)."""
    return [canonical_edge(a, b) for p in system.paths for a, b in zip(p, p[1:])]


def structure_problems(system, infrastructure):
    """What breaks the precondition the validator trusts: every path joins
    source to dest, is simple, runs along infrastructure edges, and shares
    no interior node with another path."""
    problems = []
    interior_seen = set()
    for path in system.paths:
        if len(path) < 2 or path[0] != system.source or path[-1] != system.dest:
            problems.append(f"path {path} does not join {system.source}->{system.dest}")
        if len(set(path)) != len(path):
            problems.append(f"path {path} is not simple")
        problems.extend(
            f"hop ({a}, {b}) outside infrastructure"
            for a, b in zip(path, path[1:])
            if not infrastructure.has_edge(a, b)
        )
        interior = set(path[1:-1])
        if interior & interior_seen:
            problems.append(f"paths share interior nodes {sorted(interior & interior_seen)}")
        interior_seen |= interior
    return problems


def oracle_violation(systems, inactive):
    """(index, count, budget) of the first system whose paths hold more
    inactive edges than its path count minus one, or None."""
    for idx, system in enumerate(systems):
        count = sum(1 for e in path_edges(system) if e in inactive)
        budget = len(system.paths) - 1
        if count > budget:
            return idx, count, budget
    return None


def oracle_report(schedule, infrastructure, systems):
    """Round-major reference: every round against every system's budget,
    in order."""
    systems = list(systems)
    for t, snap in enumerate(snapshots(schedule), start=1):
        extra = snap.edges - infrastructure.edges
        if extra:
            return Check(False, "edge-outside-infrastructure", (t, sorted(extra)[0]))
    for t, snap in enumerate(snapshots(schedule), start=1):
        found = oracle_violation(systems, infrastructure.edges - snap.edges)
        if found is not None:
            idx, count, budget = found
            return Check(False, "budget-exceeded", (idx, t, count, budget))
    return Check(True)


def small_inactive_sets(infrastructure):
    """Every set of one or two infrastructure edges."""
    edges = sorted(infrastructure.edges)
    return [frozenset(c) for k in (1, 2) for c in itertools.combinations(edges, k)]


def sampled_inactive_sets(infrastructure, r, seed, count=20):
    """Every single infrastructure edge, then `count` seeded sets of 3 to
    r + 1 edges.  Every other set is drawn from the center-terminal edges
    alone, so no center pair is over its budget and the terminal counts
    decide."""
    rng = derive_rng("inactive-sets", seed)
    edges = sorted(infrastructure.edges)
    spokes = [e for e in edges if e[1] >= r]
    sets = [frozenset([e]) for e in edges]
    for i in range(count):
        pool = spokes if i % 2 else edges
        size = rng.randint(min(3, len(pool)), min(r + 1, len(pool)))
        sets.append(frozenset(rng.sample(pool, size)))
    return sets


def assert_family_matches_oracle(systems, eager, inactive_sets):
    """The family names the same first violation as the eager paths."""
    assert len(systems) == len(eager)
    for inactive in inactive_sets:
        assert systems.first_violation(inactive) == oracle_violation(eager, inactive), sorted(
            inactive
        )


class TestRingFailure:
    def test_round_robin_removes_expected_edge(self):
        schedule, infra, _ = build_ring_failure(4, "round-robin", seed=0, horizon=8)
        for t in range(1, 9):
            removed = infra.edges - schedule.snapshot_at(t).edges
            k = (t - 1) % 4
            assert removed == {canonical_edge(k, (k + 1) % 4)}

    def test_every_snapshot_is_a_path(self):
        schedule, _, _ = build_ring_failure(7, "random", seed=3, horizon=30)
        for snap in snapshots(schedule):
            assert validate_snapshot(snap).ok
            degs = [len(a) for a in snap.adjacency]
            assert max(degs) <= 2 and degs.count(1) == 2

    def test_validator_accepts_generated(self):
        schedule, infra, systems = build_ring_failure(6, "round-robin", seed=1, horizon=24)
        report = validate_paths_respecting(schedule, infra, systems)
        assert report.ok

    def test_budget_is_one_failed_edge(self):
        _, infra, systems = build_ring_failure(5, "fixed-edge", seed=1, horizon=4)
        eager = eager_ring_systems(5)
        assert all(len(s.paths) - 1 == 1 for s in eager)
        assert_family_matches_oracle(systems, eager, small_inactive_sets(infra))

    def test_rejects_n_below_three(self):
        with pytest.raises(ValueError):
            build_ring_failure(2, "round-robin", seed=0, horizon=1)

    def test_reject_double_failure_on_a_pair(self):
        schedule, infra, systems = build_ring_failure(4, "round-robin", seed=0, horizon=3)
        # kill both arcs of the (0,1) pair in round 2
        bad = NetworkSnapshot(4, schedule.snapshot_at(2).edges - {(0, 1), (1, 2)})
        mutated = AdversarySchedule(
            4, 3, [schedule.snapshot_at(1), bad, schedule.snapshot_at(3)]
        )
        report = validate_paths_respecting(mutated, infra, systems)
        assert not report.ok
        assert report.reason == "budget-exceeded"
        _, _, count, budget = report.witness
        assert count == 2 and budget == 1


class TestCenterTerminal:
    def test_r3_disables_nothing(self):
        schedule, infra, _ = build_center_terminal(8, 3, seed=0, horizon=5)
        for snap in snapshots(schedule):
            assert snap.edges == infra.edges

    def test_removed_edge_count_matches_independent_counter(self):
        n, r = 12, 6
        schedule, infra, _ = build_center_terminal(n, r, seed=2, horizon=10)
        for snap in snapshots(schedule):
            removed = len(infra.edges) - len(snap.edges)
            assert removed == 2 * (n - r)  # fail_count=2 centers, each losing n-r edges
        # infrastructure edge count oracle: r*(n-r) + C(r,2)
        assert len(infra.edges) == r * (n - r) + r * (r - 1) // 2

    def test_all_rounds_connected(self):
        schedule, _, _ = build_center_terminal(12, 6, seed=2, horizon=20)
        for snap in snapshots(schedule):
            assert validate_snapshot(snap).ok

    def test_validator_accepts_every_round(self):
        schedule, infra, systems = build_center_terminal(12, 6, seed=2, horizon=20)
        report = validate_paths_respecting(schedule, infra, systems)
        assert report.ok

    def test_per_system_inactive_at_most_r_minus_2(self):
        n, r = 12, 6
        schedule, infra, systems = build_center_terminal(n, r, seed=4, horizon=12)
        eager = eager_center_terminal_systems(n, r)
        for t in range(1, 13):
            inactive = infra.edges - schedule.snapshot_at(t).edges
            for system in eager:
                assert sum(e in inactive for e in path_edges(system)) <= r - 2
            assert systems.first_violation(inactive) is None

    def test_precondition(self):
        with pytest.raises(ValueError):
            build_center_terminal(8, 8, seed=0, horizon=1)


class TestValidatorRejections:
    def test_edge_outside_infrastructure(self):
        infra = ring_infrastructure(5)
        snap = NetworkSnapshot(5, set(infra.edges) | {(0, 2)})
        schedule = AdversarySchedule(5, 1, [snap])
        report = validate_paths_respecting(schedule, infra, [])
        assert not report.ok
        assert report.reason == "edge-outside-infrastructure"

    def test_mutation_fuzz_always_rejected(self):
        # deactivate one extra path edge in a random round: must reject
        n = 6
        schedule, infra, systems = build_ring_failure(n, "round-robin", seed=7, horizon=12)
        rng = derive_rng("mutate")
        for _ in range(50):
            t = rng.randrange(1, 13)
            base = schedule.snapshot_at(t)
            candidates = sorted(base.edges)
            extra = candidates[rng.randrange(len(candidates))]
            mutated_snaps = snapshots(schedule)
            mutated_snaps[t - 1] = NetworkSnapshot(n, base.edges - {extra})
            mutated = AdversarySchedule(n, 12, mutated_snaps)
            report = validate_paths_respecting(mutated, infra, systems)
            assert not report.ok


class TestFamilyStructure:
    """The families count paths they never build.  The paths they count are
    the eager enumerations: their structure is checked here, and the tests
    below hold each family's verdicts to the oracle over them."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_ring_family_is_well_formed(self, n):
        infra, systems = path_family({"generator": "ring-failure", "params": {"n": n}})
        eager = eager_ring_systems(n)
        assert all(structure_problems(s, infra) == [] for s in eager)
        assert_family_matches_oracle(systems, eager, [frozenset(infra.edges)])

    @pytest.mark.parametrize("n, r", [(6, 3), (12, 6), (20, 5)])
    def test_center_terminal_family_is_well_formed(self, n, r):
        metadata = {"generator": "center-terminal", "params": {"n": n, "r": r}}
        infra, systems = path_family(metadata)
        eager = eager_center_terminal_systems(n, r)
        assert all(structure_problems(s, infra) == [] for s in eager)
        assert_family_matches_oracle(systems, eager, [frozenset(infra.edges)])

    @pytest.mark.parametrize(
        "system, problem",
        [
            (PathSystem(0, 2, ((0, 3, 2),)), "outside infrastructure"),
            (PathSystem(0, 2, ((0, 1, 2), (0, 1, 2))), "share interior"),
            (PathSystem(0, 2, ((0, 1, 0, 1, 2),)), "not simple"),
            (PathSystem(0, 2, ((0, 1),)), "does not join"),
        ],
    )
    def test_checker_flags_malformed_systems(self, system, problem):
        problems = structure_problems(system, ring_infrastructure(5))
        assert any(problem in p for p in problems)

    def test_validator_expands_no_ring_system(self, monkeypatch):
        """No inactive set of ring-failure exceeds a pair's budget of one,
        so the validator skips every system without expanding its paths.
        Re-checking each system's structure would cost about n³/2
        `has_edge` calls."""
        schedule, infra, systems = build_ring_failure(256, "round-robin", seed=1, horizon=256)
        calls = {"has_edge": 0, "canonical_edge": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(NetworkSnapshot, "has_edge", counted("has_edge", NetworkSnapshot.has_edge))
        monkeypatch.setattr(
            gossipsim.paths, "canonical_edge", counted("canonical_edge", canonical_edge)
        )
        assert validate_paths_respecting(schedule, infra, systems).ok
        assert calls == {"has_edge": 0, "canonical_edge": 0}


class TestPathFamily:
    def test_matches_eager_enumeration(self):
        infra, systems = path_family({"generator": "ring-failure", "params": {"n": 8}})
        assert infra.edges == ring_infrastructure(8).edges
        assert_family_matches_oracle(systems, eager_ring_systems(8), small_inactive_sets(infra))
        metadata = {"generator": "center-terminal", "params": {"n": 8, "r": 5}}
        infra, systems = path_family(metadata)
        assert infra.edges == center_terminal_infrastructure(8, 5).edges
        assert_family_matches_oracle(
            systems, eager_center_terminal_systems(8, 5), small_inactive_sets(infra)
        )

    def test_other_generators_have_no_family(self):
        assert path_family({}) is None
        assert path_family({"generator": "random-interval-connected", "params": {"n": 8}}) is None
        assert path_family(build_schedule({"name": "blocker-oblivious"}, 64, 1).metadata) is None

    @pytest.mark.parametrize(
        "generator, params",
        [
            ("ring-failure", None),
            ("ring-failure", [8]),
            ("ring-failure", {}),
            ("ring-failure", {"n": "8"}),
            ("ring-failure", {"n": 8.0}),
            ("ring-failure", {"n": True}),
            ("ring-failure", {"n": 2}),
            ("center-terminal", {"n": 8}),
            ("center-terminal", {"n": 8, "r": "5"}),
            ("center-terminal", {"n": 8, "r": 2}),
            ("center-terminal", {"n": 8, "r": 8}),
        ],
    )
    def test_invalid_params_raise(self, generator, params):
        metadata = {"generator": generator}
        if params is not None:
            metadata["params"] = params
        with pytest.raises(ValueError):
            path_family(metadata)


class TestLazySystems:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_ring_systems_match_eager_enumeration(self, n):
        systems = ring_path_systems(n)
        assert len(systems) == n * (n - 1) // 2
        inactive_sets = small_inactive_sets(ring_infrastructure(n))
        assert_family_matches_oracle(systems, eager_ring_systems(n), inactive_sets)

    @pytest.mark.parametrize("n", range(4, 13))
    def test_center_terminal_systems_match_eager_enumeration(self, n):
        for r in range(3, n):
            systems = center_terminal_path_systems(n, r)
            assert len(systems) == n * (n - 1) // 2
            inactive_sets = sampled_inactive_sets(center_terminal_infrastructure(n, r), r, seed=n)
            assert_family_matches_oracle(
                systems, eager_center_terminal_systems(n, r), inactive_sets
            )

    def test_systems_are_not_stored(self):
        tracemalloc.start()
        try:
            ring = ring_path_systems(100)
            center = center_terminal_path_systems(100, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ring) == len(center) == 4950
        assert peak < 64 * 1024

    def test_ring_schedule_memory_is_not_cubic(self):
        n = 256
        tracemalloc.start()
        try:
            schedule = build_schedule({"name": "ring-failure", "horizon": 4 * n}, n, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert schedule.horizon == 4 * n
        assert peak < 20 * 2**20

    @pytest.mark.parametrize("policy", ["round-robin", "random"])
    def test_ring_schedule_keeps_no_snapshot_per_variant(self, policy):
        """One removed-edge index per round: n variant snapshots of n - 1
        edges each traced 33 MB at n = 1024."""
        n = 1024
        tracemalloc.start()
        try:
            spec = {"name": "ring-failure", "policy": policy, "horizon": 4 * n}
            schedule = build_schedule(spec, n, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert schedule.horizon == 4 * n
        assert peak < 2 * 2**20


@st.composite
def mutated_paths_schedules(draw):
    """A small ring-failure or center-terminal schedule with one to three
    extra path edges deactivated in random rounds."""
    seed = draw(st.integers(0, 2**16))
    horizon = draw(st.integers(1, 12))
    if draw(st.booleans()):
        n = draw(st.integers(3, 9))
        policy = draw(st.sampled_from(["round-robin", "random", "fixed-edge"]))
        schedule, infra, systems = build_ring_failure(n, policy, seed, horizon)
        eager = eager_ring_systems(n)
    else:
        n = draw(st.integers(4, 10))
        r = draw(st.integers(3, n - 1))
        schedule, infra, systems = build_center_terminal(n, r, seed, horizon)
        eager = eager_center_terminal_systems(n, r)
    snaps = snapshots(schedule)
    for _ in range(draw(st.integers(1, 3))):
        t = draw(st.integers(0, horizon - 1))
        if snaps[t].edges:
            edge = draw(st.sampled_from(sorted(snaps[t].edges)))
            snaps[t] = NetworkSnapshot(n, snaps[t].edges - {edge})
    return AdversarySchedule(n, horizon, snaps), infra, systems, eager


class TestValidatorMatchesOracle:
    @given(mutated_paths_schedules())
    @settings(max_examples=150, deadline=None)
    def test_one_pass_equals_round_major_oracle(self, case):
        schedule, infra, systems, eager = case
        report = validate_paths_respecting(schedule, infra, systems)
        assert report == oracle_report(schedule, infra, eager)

    @pytest.mark.parametrize(
        "n, r",
        [(n, None) for n in range(3, 9)] + [(4, 3), (6, 3), (6, 4), (8, 5), (9, 7)],
    )
    def test_one_or_two_inactive_edges_equal_oracle(self, n, r):
        """Every inactive set of one or two infrastructure edges, center-center
        edges included, as a one-round schedule."""
        if r is None:
            infra, systems = path_family({"generator": "ring-failure", "params": {"n": n}})
            eager = eager_ring_systems(n)
        else:
            metadata = {"generator": "center-terminal", "params": {"n": n, "r": r}}
            infra, systems = path_family(metadata)
            eager = eager_center_terminal_systems(n, r)
        for inactive in small_inactive_sets(infra):
            schedule = AdversarySchedule(n, 1, [NetworkSnapshot(n, infra.edges - inactive)])
            report = validate_paths_respecting(schedule, infra, systems)
            assert report == oracle_report(schedule, infra, eager), sorted(inactive)
