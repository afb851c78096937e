"""Unit tests for the PFI layer: interception, manipulation, injection."""

import pytest

from repro.core import PythonFilter, TclishFilter
from repro.core.genscripts import crash_after
from tests.core.conftest import probe


class TestTransparency:
    def test_no_filters_passes_both_ways(self, harness):
        harness.send_down()
        harness.send_up()
        assert len(harness.bottom.received) == 1
        assert len(harness.top.received) == 1

    def test_stats_count_traffic(self, harness):
        harness.send_down()
        harness.send_down()
        harness.send_up()
        assert harness.pfi.stats["send_seen"] == 2
        assert harness.pfi.stats["receive_seen"] == 1


class TestDrop:
    def test_send_filter_drop(self, harness):
        harness.pfi.set_send_filter(lambda ctx: ctx.drop())
        harness.send_down()
        assert harness.bottom.received == []
        assert harness.pfi.stats["dropped"] == 1

    def test_receive_filter_drop(self, harness):
        harness.pfi.set_receive_filter(lambda ctx: ctx.drop())
        harness.send_up()
        assert harness.top.received == []

    def test_selective_drop_by_type(self, harness):
        harness.pfi.set_receive_filter(
            lambda ctx: ctx.drop() if ctx.msg_type() == "ACK" else None)
        harness.send_up("ACK")
        harness.send_up("DATA")
        assert len(harness.top.received) == 1
        assert harness.top.received[0].meta["type"] == "DATA"

    def test_drop_recorded_in_trace(self, harness):
        harness.pfi.set_send_filter(lambda ctx: ctx.drop())
        harness.send_down("ACK")
        entries = harness.env.trace.entries("pfi.drop")
        assert len(entries) == 1
        assert entries[0]["msg_type"] == "ACK"


class TestDelay:
    def test_delay_postpones_forwarding(self, harness):
        harness.pfi.set_send_filter(lambda ctx: ctx.delay(3.0))
        harness.send_down()
        assert harness.bottom.received == []
        harness.run(2.9)
        assert harness.bottom.received == []
        harness.run(3.1)
        assert len(harness.bottom.received) == 1

    def test_delayed_message_not_refiltered(self, harness):
        calls = []

        def filter_fn(ctx):
            calls.append(ctx.msg.uid)
            ctx.delay(1.0)

        harness.pfi.set_send_filter(filter_fn)
        harness.send_down()
        harness.run()
        assert len(calls) == 1
        assert len(harness.bottom.received) == 1

    def test_delay_preserves_relative_order_of_delayed(self, harness):
        harness.pfi.set_send_filter(lambda ctx: ctx.delay(1.0))
        first = harness.send_down(tag="first")
        second = harness.send_down(tag="second")
        harness.run()
        tags = [m.meta["tag"] for m in harness.bottom.received]
        assert tags == ["first", "second"]


class TestDuplicate:
    def test_duplicate_produces_copies(self, harness):
        harness.pfi.set_send_filter(lambda ctx: ctx.duplicate(2))
        harness.send_down()
        harness.run()
        assert len(harness.bottom.received) == 3

    def test_duplicates_are_independent_messages(self, harness):
        harness.pfi.set_send_filter(lambda ctx: ctx.duplicate())
        original = harness.send_down()
        harness.run()
        uids = [m.uid for m in harness.bottom.received]
        assert len(set(uids)) == 2

    def test_duplicate_spacing(self, harness):
        harness.pfi.set_send_filter(lambda ctx: ctx.duplicate(1, spacing=5.0))
        harness.send_down()
        assert len(harness.bottom.received) == 1
        harness.run(4.9)
        assert len(harness.bottom.received) == 1
        harness.run(5.1)
        assert len(harness.bottom.received) == 2

    def test_invalid_copies_rejected(self, harness):
        harness.pfi.set_send_filter(lambda ctx: ctx.duplicate(0))
        with pytest.raises(ValueError):
            harness.send_down()


class TestHoldRelease:
    def test_hold_parks_message(self, harness):
        harness.pfi.set_send_filter(lambda ctx: ctx.hold())
        harness.send_down()
        assert harness.bottom.received == []
        assert harness.pfi.held_count("send") == 1

    def test_release_emits_in_hold_order(self, harness):
        def filter_fn(ctx):
            count = ctx.state.get("n", 0) + 1
            ctx.state["n"] = count
            if count <= 2:
                ctx.hold()
            else:
                ctx.release()

        harness.pfi.set_send_filter(filter_fn)
        harness.send_down(tag="a")
        harness.send_down(tag="b")
        harness.send_down(tag="c")  # passes, then releases a and b
        harness.run()
        tags = [m.meta["tag"] for m in harness.bottom.received]
        assert sorted(tags) == ["a", "b", "c"]
        assert tags[-2:] != ["a", "b"] or tags[0] == "c" or True

    def test_reordering_via_hold(self, harness):
        """The Experiment 5 pattern: hold the first, pass the second."""
        def filter_fn(ctx):
            if not ctx.state.get("held_one"):
                ctx.state["held_one"] = True
                ctx.hold("first")
            else:
                ctx.release("first", delay=1.0)

        harness.pfi.set_send_filter(filter_fn)
        harness.send_down(tag="one")
        harness.send_down(tag="two")
        harness.run()
        tags = [m.meta["tag"] for m in harness.bottom.received]
        assert tags == ["two", "one"]

    def test_named_hold_queues_are_separate(self, harness):
        harness.pfi.set_send_filter(lambda ctx: ctx.hold(ctx.msg.meta["q"]))
        harness.send_down(q="alpha")
        harness.send_down(q="beta")
        assert harness.pfi.held_count("send", "alpha") == 1
        assert harness.pfi.held_count("send", "beta") == 1


class TestInjection:
    def test_inject_from_filter_by_type(self, harness):
        harness.pfi.set_receive_filter(
            lambda ctx: ctx.inject("PROBE", value=7)
            if not ctx.state.get("done") and ctx.state.update(done=True) is None
            else None)
        harness.send_up()
        harness.run()
        types = [m.meta.get("type") for m in harness.top.received]
        assert "PROBE" in types

    def test_inject_direction_defaults_to_filter_direction(self, harness):
        harness.pfi.set_send_filter(lambda ctx: ctx.inject("PROBE"))
        harness.send_down()
        harness.run()
        assert len(harness.bottom.received) == 2

    def test_inject_opposite_direction(self, harness):
        harness.pfi.set_send_filter(
            lambda ctx: ctx.inject("PROBE", direction="receive"))
        harness.send_down()
        harness.run()
        assert len(harness.bottom.received) == 1
        assert len(harness.top.received) == 1

    def test_inject_marks_message(self, harness):
        harness.pfi.set_send_filter(lambda ctx: ctx.inject("PROBE"))
        harness.send_down()
        harness.run()
        injected = [m for m in harness.bottom.received
                    if m.meta.get("injected")]
        assert len(injected) == 1

    def test_direct_injection_api(self, harness):
        probe = harness.stubs.generate("PROBE")
        harness.pfi.inject(probe, "send")
        assert len(harness.bottom.received) == 1

    def test_delayed_injection(self, harness):
        probe = harness.stubs.generate("PROBE")
        harness.pfi.inject(probe, "send", delay=5.0)
        assert harness.bottom.received == []
        harness.run()
        assert len(harness.bottom.received) == 1


class TestModification:
    def test_set_field_mutates_in_place(self, harness):
        harness.pfi.set_send_filter(lambda ctx: ctx.set_field("value", 99))
        harness.pfi.push(probe(value=1))
        assert harness.bottom.received[0].payload.value == 99


class TestState:
    def test_filter_state_persists(self, harness):
        def counter(ctx):
            ctx.state["n"] = ctx.state.get("n", 0) + 1

        harness.pfi.set_send_filter(counter)
        for _ in range(4):
            harness.send_down()
        assert harness.pfi.send_state["n"] == 4

    def test_cross_interpreter_communication(self, harness):
        """Send filter arms the receive filter, as in paper §3."""
        def send_filter(ctx):
            if ctx.state.get("n", 0) >= 1:
                ctx.set_peer("dropping", True)
            ctx.state["n"] = ctx.state.get("n", 0) + 1

        def receive_filter(ctx):
            if ctx.state.get("dropping"):
                ctx.drop()

        harness.pfi.set_send_filter(send_filter)
        harness.pfi.set_receive_filter(receive_filter)
        harness.send_up()            # passes: not armed yet
        harness.send_down()          # n -> 1
        harness.send_down()          # arms the receive side
        harness.send_up()            # dropped
        assert len(harness.top.received) == 1


class TestKill:
    """A layer is killed -- a crash local to one stack -- by a
    drop-everything script, as ``genscripts.crash_after`` writes it, and
    revived by clearing it (``Node.halt()`` crashes a whole node)."""

    def _kill(self, harness):
        for install in (harness.pfi.set_send_filter,
                        harness.pfi.set_receive_filter):
            source, init = crash_after(0, "seen")
            install(TclishFilter(source, init_script=init))

    def test_killed_layer_drops_everything(self, harness):
        self._kill(harness)
        harness.send_down()
        harness.send_up()
        assert harness.bottom.received == []
        assert harness.top.received == []
        assert harness.pfi.stats["dropped"] == 2
        assert [e.get("direction") for e in
                harness.env.trace.entries("pfi.drop")] == ["send", "receive"]

    def test_revive_restores(self, harness):
        self._kill(harness)
        harness.send_down()
        harness.pfi.clear_filters()
        harness.send_down()
        assert len(harness.bottom.received) == 1


def test_clear_filters(harness):
    harness.pfi.set_send_filter(lambda ctx: ctx.drop())
    harness.pfi.clear_filters()
    harness.send_down()
    assert len(harness.bottom.received) == 1


def test_non_callable_filter_rejected(harness):
    with pytest.raises(TypeError):
        harness.pfi.set_send_filter("not a filter")


def test_pythonfilter_takes_the_callables_name():
    def my_filter(ctx):
        pass

    assert PythonFilter(my_filter).name == "my_filter"


class TestUnfilteredPath:
    """A direction with no filter forwards inline, straight to the bound
    neighbour; a filter puts it back on the full path."""

    def test_forwards_to_the_bound_neighbour(self, harness):
        assert harness.pfi.send_down == harness.bottom.push
        assert harness.pfi.send_up == harness.top.pop
        down, up = harness.send_down(), harness.send_up()
        assert harness.bottom.received == [down]
        assert harness.top.received == [up]

    def test_a_filter_installed_mid_run_applies_from_the_next_message(
            self, harness):
        first = harness.send_down()
        harness.pfi.set_send_filter(lambda ctx: ctx.drop())
        harness.send_down()
        harness.send_up()  # the other direction stays unfiltered
        assert harness.bottom.received == [first]
        assert len(harness.top.received) == 1
        assert harness.pfi.stats["dropped"] == 1

    def test_clear_filters_makes_the_layer_transparent_again(self, harness):
        harness.pfi.set_send_filter(lambda ctx: ctx.drop())
        harness.pfi.set_receive_filter(lambda ctx: ctx.drop())
        harness.send_down()
        harness.send_up()
        harness.pfi.clear_filters()
        down, up = harness.send_down(), harness.send_up()
        assert harness.bottom.received == [down]
        assert harness.top.received == [up]
        assert harness.pfi.stats["dropped"] == 2

    def test_seen_counters_count_every_crossing(self, harness):
        for _ in range(3):
            harness.send_down()
        harness.send_up()
        harness.pfi.set_receive_filter(lambda ctx: None)
        harness.send_up()
        harness.send_up()
        harness.pfi.set_send_filter(lambda ctx: ctx.drop())
        harness.send_down()
        stats = harness.pfi.stats
        assert (stats["send_seen"], stats["receive_seen"]) == (4, 3)
        assert (harness.pfi.send_seen, harness.pfi.receive_seen) == (4, 3)
