"""Self-time arithmetic and wrapper installation of the tracer."""

import pytest

import spans
from gossipsim import core, harness


def test_self_time_of_synthetic_tree():
    tree = [
        ("cell", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a1", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b1", 5.0, 6.0, 3),
        ("b2", 7.0, 9.0, 3),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.0, 2.0])


def test_nested_self_times_add_up_to_root_duration():
    tree = [
        ("cell", 0.0, 7.5, -1),
        ("a", 0.5, 3.0, 0),
        ("a1", 0.5, 1.0, 1),
        ("a2", 1.25, 2.75, 1),
        ("b", 3.0, 7.0, 0),
    ]
    assert sum(spans.self_times(tree)) == pytest.approx(7.5)


def test_overlapping_and_overhanging_children_count_once_within_parent():
    tree = [
        ("p", 0.0, 10.0, -1),
        ("x", 2.0, 6.0, 0),
        ("y", 4.0, 8.0, 0),  # overlaps x on [4, 6]
        ("z", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_summarize_groups_by_name():
    tree = [("cell", 0.0, 4.0, -1), ("a", 0.0, 1.0, 0), ("a", 2.0, 3.5, 0)]
    self_s, total_s, calls = spans.summarize(tree)
    assert calls["a"] == 2
    assert total_s["a"] == pytest.approx(2.5)
    assert self_s["cell"] == pytest.approx(1.5)


def test_install_reaches_names_imported_elsewhere_and_uninstall_restores():
    original = core.run_simulation
    tracer = spans.Tracer(rep=0)
    tracer.install()
    try:
        assert core.run_simulation is not original
        assert harness.run_simulation is core.run_simulation
    finally:
        tracer.uninstall()
    assert core.run_simulation is original
    assert harness.run_simulation is original
    assert "execute" in vars(core.EngineRun)


def test_missing_public_name_is_absent_not_fatal():
    tracer = spans.Tracer(rep=0)
    tracer.install([spans.Target("core.gone", "core", "no_such_function")])
    tracer.uninstall()
    assert tracer.absent == {"core.gone"}


def test_counter_on_changed_result_shape_is_reported_not_raised():
    target = spans.Target("core.thing", "core", "x", observe=spans._count_stage)
    tracer = spans.Tracer(rep=0)
    wrapped = tracer.wrap(target, lambda: 5)
    assert wrapped() == 5
    assert "core.thing" in tracer.broken
    assert [span[0] for span in tracer.spans] == ["core.thing", spans.BOOKKEEPING]
