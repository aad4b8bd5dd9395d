"""Schedule file format: structure, rejections, byte-exact round trips."""

import time
import tracemalloc

import pytest

from gossipsim.blocker_line import BlockerLineParams, build_blocker_line_invasive
from gossipsim.core import AdversarySchedule, InsertionEvent, NetworkSnapshot
from gossipsim.dgs1 import (
    Dgs1Error,
    default_metadata_path,
    export_schedule,
    import_schedule,
    save_metadata,
    schedule_from_text,
    schedule_to_text,
)
from gossipsim.harness import build_schedule


def tiny_schedule():
    snap = NetworkSnapshot(2, [(0, 1)])
    return AdversarySchedule(2, 1, [snap])


class TestFormat:
    def test_minimal_body(self):
        text = schedule_to_text(tiny_schedule())
        assert text == "DGS1 2 1 oblivious\nR 1\nE 0 1\n"

    def test_trailing_newline_required(self):
        with pytest.raises(Dgs1Error):
            schedule_from_text("DGS1 2 1 oblivious\nR 1\nE 0 1")

    def test_round_zero_insertions(self):
        snap = NetworkSnapshot(2, [(0, 1)])
        schedule = AdversarySchedule(2, 1, [snap], {0: [(1, 1 << 3)]}, mode="invasive")
        text = schedule_to_text(schedule)
        assert "R 0\nI 1 3\nR 1\n" in text
        back = schedule_from_text(text)
        assert back.insertions == [InsertionEvent(0, 1, 3)]
        assert back.insertion_masks == {0: [(1, 1 << 3)]}

    def test_node_lines_merge_into_one_mask(self):
        text = "DGS1 3 1 invasive\nR 1\nE 0 1\nE 1 2\nI 0 4\nI 2 0\nI 2 1\nI 2 9\n"
        schedule = schedule_from_text(text)
        assert schedule.insertions_at(1) == [(0, 1 << 4), (2, 1 << 0 | 1 << 1 | 1 << 9)]
        assert len(schedule.insertions) == 4
        assert schedule_to_text(schedule) == text

    @pytest.mark.parametrize("lines", ["I 2 1\nI 2 0\n", "I 2 1\nI 2 1\n", "I 2 1\nI 1 5\n"])
    def test_unsorted_insertions_rejected(self, lines):
        with pytest.raises(Dgs1Error):
            schedule_from_text("DGS1 3 1 invasive\nR 1\nE 0 1\nE 1 2\n" + lines)

    def test_insertion_node_outside_node_range_rejected_with_line(self):
        text = "DGS1 3 1 invasive\nR 1\nE 0 1\nE 1 2\nI 7 0\n"
        with pytest.raises(Dgs1Error) as err:
            schedule_from_text(text)
        assert err.value.line == 5
        assert "node 7" in str(err.value)

    def test_disconnected_round_rejected_with_round_number(self):
        text = "DGS1 3 1 oblivious\nR 1\nE 0 1\n"
        with pytest.raises(Dgs1Error) as err:
            schedule_from_text(text)
        assert "disconnected" in str(err.value)

    def test_disconnected_round_is_written_and_rejected_on_read(self):
        """Export does not check rounds; the reader does, once, where the file
        enters."""
        connected = NetworkSnapshot(3, [(0, 1), (1, 2)])
        schedule = AdversarySchedule(3, 2, [connected, NetworkSnapshot(3, [(0, 1)])])
        text = schedule_to_text(schedule)
        assert text.endswith("R 2\nE 0 1\n")
        with pytest.raises(Dgs1Error) as err:
            schedule_from_text(text)
        assert err.value.line == 6
        assert "round 2: disconnected (1 edges on 3 nodes; a connected round needs 2)" in str(err.value)

    def test_unsorted_edges_rejected(self):
        text = "DGS1 3 1 oblivious\nR 1\nE 1 2\nE 0 1\n"
        with pytest.raises(Dgs1Error):
            schedule_from_text(text)

    def test_duplicate_edge_rejected(self):
        text = "DGS1 2 1 oblivious\nR 1\nE 0 1\nE 0 1\n"
        with pytest.raises(Dgs1Error):
            schedule_from_text(text)

    def test_oblivious_with_insertions_rejected(self):
        text = "DGS1 2 1 oblivious\nR 1\nE 0 1\nI 0 1\n"
        with pytest.raises(Dgs1Error):
            schedule_from_text(text)

    def test_round_count_mismatch_rejected(self):
        text = "DGS1 2 2 oblivious\nR 1\nE 0 1\n"
        with pytest.raises(Dgs1Error):
            schedule_from_text(text)


H3 = "DGS1 3 1 oblivious\n"
I3 = "DGS1 3 1 invasive\n"
LINE3 = "R 1\nE 0 1\nE 1 2\n"


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("DGS1 3 1 oblivious", "missing trailing newline", None),
        ("\n", "bad header", 1),
        ("DGS1 3 oblivious\n", "bad header", 1),
        ("DGS1 x 1 oblivious\n", "non-integer header fields", 1),
        (H3 + "R x\n", "non-integer fields", 2),
        (H3 + "R 1\nE 0 1\nE a b\n", "non-integer fields", 4),
        (I3 + LINE3 + "I 0 1.5\n", "non-integer fields", 5),
        ("DGS1 3 1 sideways\n", "unknown mode 'sideways'", 1),
        (H3 + "R 1\nE 0 1\n", "round 1: disconnected (1 edges on 3 nodes; a connected round needs 2)", 3),
        # A round closed by the next R line is blamed on its own last line.
        (
            "DGS1 3 2 oblivious\nR 1\nE 0 1\nR 2\nE 0 1\nE 1 2\n",
            "round 1: disconnected (1 edges on 3 nodes; a connected round needs 2)",
            3,
        ),
        # Enough edges for a tree, but a triangle and an isolated node.
        ("DGS1 4 1 oblivious\nR 1\nE 0 1\nE 0 2\nE 1 2\n", "round 1: disconnected (witness [3])", 5),
        (H3 + "R 1\nE 0 3\nE 1 2\n", "round 1: node-out-of-range (witness (0, 3))", 4),
        (H3 + "R 1\nE -1 0\nE 0 1\nE 1 2\n", "round 1: node-out-of-range (witness (-1, 0))", 5),
        (H3 + LINE3 + "\n", "blank line", 5),
        (H3 + "R 1 2\n", "malformed round line", 2),
        (H3 + "R 2\n", "first round block must be 0 or 1, got 2", 2),
        (H3 + LINE3 + "R 3\n", "round 3 out of order (expected 2)", 5),
        (H3 + "E 0 1\n", "edge line outside round block or malformed", 2),
        (H3 + "R 1\nE 0 1 2\n", "edge line outside round block or malformed", 3),
        (H3 + "R 1\nE 1 0\n", "edge (1, 0) not in u < v form", 3),
        (H3 + "R 1\nE 1 1\n", "edge (1, 1) not in u < v form", 3),
        (H3 + "R 1\nE 1 2\nE 1 2\n", "edge (1, 2) out of order", 4),
        (I3 + "R 1\nE 0 1\nI 0 0\nE 1 2\n", "edge line after insertion lines", 5),
        (I3 + "R 0\nE 0 1\n", "round 0 may not contain edges", 3),
        (I3 + "R 0\nE 0 1\n" + LINE3, "round 0 may not contain edges", 3),
        (I3 + "I 0 0\n", "insertion line outside round block or malformed", 2),
        (I3 + LINE3 + "I 1 0\nI 0 0\n", "insertion (0, 0) negative or out of order", 6),
        (I3 + LINE3 + "I 0 -1\n", "insertion (0, -1) negative or out of order", 5),
        (I3 + LINE3 + "I 3 0\n", "insertion node 3 outside [0, 3)", 5),
        (H3 + LINE3 + "X 0\n", "unknown record 'X'", 5),
        ("DGS1 3 2 oblivious\n" + LINE3, "found 1 rounds, header says 2", None),
        (H3 + LINE3 + LINE3.replace("R 1", "R 2"), "found 2 rounds, header says 1", None),
        (H3 + LINE3 + "I 0 0\n", "oblivious schedule carries insertions", None),
    ],
)
def test_reader_errors_and_line_numbers(text, message, line):
    with pytest.raises(Dgs1Error) as err:
        schedule_from_text(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


def test_import_keeps_rounds_compact():
    """The reader keeps endpoint arrays, not a graph per round: importing a
    ring n=128, horizon 512 file traced a 19 MB peak when it kept a
    snapshot per round, and stays under 1 MB."""
    text = schedule_to_text(build_schedule({"name": "ring-failure", "horizon": 512}, 128, 1))
    tracemalloc.start()
    try:
        schedule = schedule_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert schedule_to_text(schedule) == text
    assert schedule.snapshot_at(7) is schedule.snapshot_at(7)


def test_huge_header_n_rejected_cheaply():
    """A 36-byte file naming 10**7 nodes: building its round's snapshot
    peaked at 1.17 GB RSS and 7 s; too few edges for a tree now reject it
    first."""
    text = "DGS1 10000000 1 oblivious\nR 1\nE 0 1\n"
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(Dgs1Error) as err:
            schedule_from_text(text)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "line 3: round 1: disconnected (1 edges on 10000000 nodes; "
        "a connected round needs 9999999)"
    )
    assert elapsed < 1.0
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "spec",
    [
        {"name": "random", "horizon": 40, "extra_edge_prob": 0.2},
        {"name": "ring-failure", "horizon": 40},
        {"name": "blocker-invasive"},
        {"name": "skb-blocker"},
    ],
    ids=lambda spec: spec["name"],
)
def test_read_rounds_equal_the_flipping_constructor(spec):
    """The reader freezes its u < v pairs as given; the constructor that
    flips each pair builds the same graphs from the reversed pairs."""
    schedule = build_schedule(spec, 64, 2)
    again = schedule_from_text(schedule_to_text(schedule))
    for t in range(1, schedule.horizon + 1):
        snap = again.snapshot_at(t)
        assert snap == NetworkSnapshot(64, [(v, u) for u, v in snap.edges])
        assert snap == schedule.snapshot_at(t)


class TestRoundTrip:
    def test_tiny_round_trip(self, tmp_path):
        path = tmp_path / "tiny.dgs"
        export_schedule(tiny_schedule(), path)
        again = import_schedule(path)
        assert schedule_to_text(again) == path.read_text(encoding="ascii")

    def test_blocker_line_round_trips_byte_identical(self, tmp_path):
        schedule = build_blocker_line_invasive(BlockerLineParams(64, seed=17))
        path = tmp_path / "blocker.dgs"
        export_schedule(schedule, path)
        first_bytes = path.read_bytes()
        reimported = import_schedule(path)
        path2 = tmp_path / "blocker2.dgs"
        export_schedule(reimported, path2)
        assert path2.read_bytes() == first_bytes

    def test_metadata_sidecar_round_trip(self, tmp_path):
        schedule = build_blocker_line_invasive(BlockerLineParams(64, seed=4))
        path = tmp_path / "meta.dgs"
        export_schedule(schedule, path)
        save_metadata(schedule, default_metadata_path(path))
        again = import_schedule(path)
        assert again.cyclic_extendable == schedule.cyclic_extendable
        assert again.metadata["sentinel_tokens"] == schedule.metadata["sentinel_tokens"]
        assert again.metadata["target_nodes"] == schedule.metadata["target_nodes"]

    @pytest.mark.parametrize("sidecar", ["[1, 2]", '"text"', "3"])
    def test_sidecar_that_is_not_an_object_rejected(self, tmp_path, sidecar):
        path = tmp_path / "tiny.dgs"
        export_schedule(tiny_schedule(), path)
        default_metadata_path(path).write_text(sidecar)
        with pytest.raises(Dgs1Error, match="not a JSON object"):
            import_schedule(path)
