"""Tests for the message-sequence diagram renderer."""

import pytest

from repro.analysis.timeline import SequenceDiagram, gmp_sequence
from repro.core import TclishFilter
from repro.experiments.gmp_common import build_gmp_cluster


class TestSequenceDiagram:
    def make(self):
        return SequenceDiagram(["A", "B"])

    def test_requires_two_participants(self):
        with pytest.raises(ValueError):
            SequenceDiagram(["solo"])

    def test_unknown_participant_rejected(self):
        diagram = self.make()
        with pytest.raises(KeyError):
            diagram.add(0.0, "A", "C", "m")

    def test_forward_arrow(self):
        diagram = self.make()
        diagram.add(0.0, "A", "B", "m1")
        text = diagram.render()
        assert "m1" in text
        assert ">" in text

    def test_reverse_arrow(self):
        diagram = self.make()
        diagram.add(0.0, "B", "A", "ack")
        assert "<" in diagram.render()

    def test_lost_message_marked(self):
        diagram = self.make()
        diagram.add(0.0, "A", "B", "gone", lost=True)
        text = diagram.render()
        assert "x" in text
        assert ">" not in text.splitlines()[-1]

    def test_self_message(self):
        diagram = self.make()
        diagram.add(1.0, "A", "A", "timer")
        assert "self: timer" in diagram.render()

    def test_events_sorted_by_time(self):
        diagram = self.make()
        diagram.add(2.0, "A", "B", "second")
        diagram.add(1.0, "A", "B", "first")
        lines = diagram.render().splitlines()
        assert "first" in lines[1]
        assert "second" in lines[2]

    def test_max_events_truncates_with_note(self):
        diagram = self.make()
        for i in range(10):
            diagram.add(float(i), "A", "B", f"m{i}")
        text = diagram.render(max_events=3)
        assert "7 more message" in text
        assert "m9" not in text

    def test_long_label_truncated(self):
        diagram = self.make()
        diagram.add(0.0, "A", "B", "A_VERY_LONG_MESSAGE_TYPE_NAME_INDEED")
        text = diagram.render()
        assert "..." in text

    def test_three_lanes_positioning(self):
        diagram = SequenceDiagram(["x", "y", "z"], lane_width=20)
        diagram.add(0.0, "x", "y", "near")
        diagram.add(1.0, "x", "z", "far")
        near_line, far_line = diagram.render().splitlines()[1:3]
        assert len(far_line) > len(near_line)

    def test_header_contains_participants(self):
        diagram = self.make()
        header = diagram.render().splitlines()[0]
        assert "A" in header and "B" in header


class TestGmpExtraction:
    def test_extracts_join_handshake(self):
        cluster = build_gmp_cluster([1, 2])
        cluster.start()
        cluster.run_until(2.0)
        diagram = gmp_sequence(cluster.trace, [1, 2],
                               kinds={"PROCLAIM", "JOIN",
                                      "MEMBERSHIP_CHANGE", "ACK", "COMMIT"})
        text = diagram.render()
        assert "JOIN" in text
        assert "COMMIT" in text
        assert "HEARTBEAT" not in text  # filtered out

    def test_lost_messages_marked_in_extraction(self):
        cluster = build_gmp_cluster([1, 2, 3])
        cluster.start(1, 2)
        cluster.run_until(5.0)
        # drop COMMITs to 3 so extraction sees unmatched sends
        cluster.pfis[3].set_receive_filter(TclishFilter(
            'if {[msg_type cur_msg] eq "COMMIT"} { xDrop cur_msg }'))
        cluster.start(3)
        cluster.run_until(15.0)
        diagram = gmp_sequence(cluster.trace, [1, 2, 3], kinds={"COMMIT"})
        lost = [e for e in diagram.events if e.lost and e.dst == "gmd3"]
        assert lost

    def test_time_window_filter(self):
        cluster = build_gmp_cluster([1, 2])
        cluster.start()
        cluster.run_until(10.0)
        diagram = gmp_sequence(cluster.trace, [1, 2],
                               kinds={"HEARTBEAT"}, start=5.0, end=6.0)
        assert diagram.events
        assert all(5.0 <= e.time <= 6.0 for e in diagram.events)
