"""Schedule file format: structure, rejections, byte-exact round trips."""

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
