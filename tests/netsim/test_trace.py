"""Unit tests for the trace recorder."""

import pytest

from repro.netsim.trace import TraceEntry, TraceRecorder


def make_trace():
    clock = [0.0]
    trace = TraceRecorder(clock=lambda: clock[0])
    return trace, clock


def test_record_with_bound_clock():
    trace, clock = make_trace()
    clock[0] = 4.2
    assert trace.record("tcp.retransmit", seq=7) is None
    entry = trace.last("tcp.retransmit")
    assert entry.time == 4.2
    assert entry["seq"] == 7


def test_record_with_explicit_time():
    trace, _ = make_trace()
    trace.record("x", t=9.0)
    assert trace.last("x").time == 9.0


def test_record_without_clock_raises():
    trace = TraceRecorder()
    with pytest.raises(RuntimeError):
        trace.record("x")


def test_entries_filter_by_kind_and_attrs():
    trace, clock = make_trace()
    trace.record("tcp.retransmit", conn="a", seq=1)
    trace.record("tcp.retransmit", conn="b", seq=1)
    trace.record("tcp.transmit", conn="a", seq=2)
    assert len(trace.entries("tcp.retransmit")) == 2
    assert len(trace.entries("tcp.retransmit", conn="a")) == 1
    assert len(trace.entries(conn="a")) == 2


def _with_prefix(trace, prefix):
    """The entries whose kind starts with ``prefix``: a kind-prefix query
    goes through ``iter_subscribed``."""
    return list(trace.iter_subscribed(prefixes=[prefix]))


def test_entries_with_prefix():
    trace, _ = make_trace()
    trace.record("tcp.a")
    trace.record("tcp.b")
    trace.record("gmp.c")
    assert [e.kind for e in _with_prefix(trace, "tcp.")] == ["tcp.a", "tcp.b"]


def test_times_and_intervals():
    trace, clock = make_trace()
    for t in (1.0, 3.0, 7.0):
        clock[0] = t
        trace.record("evt")
    assert trace.times("evt") == [1.0, 3.0, 7.0]
    assert trace.intervals("evt") == [2.0, 4.0]


def test_first_and_last():
    trace, clock = make_trace()
    clock[0] = 1.0
    trace.record("evt", n=1)
    clock[0] = 2.0
    trace.record("evt", n=2)
    assert trace.first("evt")["n"] == 1
    assert trace.last("evt")["n"] == 2
    assert trace.first("missing") is None


def test_count():
    trace, _ = make_trace()
    for _ in range(3):
        trace.record("evt")
    assert trace.count("evt") == 3
    assert trace.count("other") == 0


def test_get_with_default():
    entry = TraceEntry(0.0, "x", {"a": 1})
    assert entry.get("a") == 1
    assert entry.get("b", "fallback") == "fallback"


def test_clear():
    trace, _ = make_trace()
    trace.record("evt")
    trace.clear()
    assert len(trace) == 0


def test_dump_filters_by_prefix():
    trace, _ = make_trace()
    trace.record("tcp.x", seq=1)
    trace.record("gmp.y")
    dump = trace.dump("tcp.")
    assert "tcp.x" in dump
    assert "gmp.y" not in dump


def test_iteration_in_capture_order():
    trace, clock = make_trace()
    trace.record("b")
    trace.record("a")
    assert [e.kind for e in trace] == ["b", "a"]


def test_pickle_roundtrip_drops_bound_clock():
    trace, clock = make_trace()
    clock[0] = 3.0
    trace.record("evt", n=1)
    import pickle
    clone = pickle.loads(pickle.dumps(trace))
    assert [e.kind for e in clone] == ["evt"]
    assert clone.first("evt").time == 3.0
    # the clock closed over local state and must not survive the trip
    with pytest.raises(RuntimeError):
        clone.record("evt2")
    # rebinding restores clockless recording
    clone.bind_clock(lambda: 9.0)
    clone.record("evt2")
    assert clone.last("evt2").time == 9.0


def test_entries_with_prefix_empty_prefix_matches_all():
    trace, _ = make_trace()
    trace.record("tcp.a")
    trace.record("gmp.b")
    assert _with_prefix(trace, "") == list(trace)


def test_entries_with_prefix_no_match():
    trace, _ = make_trace()
    trace.record("tcp.a")
    assert _with_prefix(trace, "udp.") == []
    assert _with_prefix(TraceRecorder(), "tcp.") == []


def test_count_by_kind_and_span():
    from repro.obs.report import render_report
    trace, clock = make_trace()
    for t, kind in ((5.0, "gmp.b"), (1.0, "tcp.a"), (2.0, "tcp.a")):
        clock[0] = t
        trace.record(kind)
    assert trace.count_by_kind() == {"gmp.b": 1, "tcp.a": 2}
    assert trace.count_by_kind("tcp.") == {"tcp.a": 2}
    # the span is the report's: both ends scanned, rows need not be sorted
    assert "virtual span  : 1.000 .. 5.000 s (4.000 s)" in render_report(trace)
    assert "empty trace" in render_report(TraceRecorder())


def test_attributes_may_be_named_kind_or_self():
    trace, _ = make_trace()
    trace.record("x.y", t=0.0, kind="a", self=1)
    assert trace.last("x.y").attrs == {"kind": "a", "self": 1}


@pytest.mark.parametrize("owner", [
    "repro.core.pfi:PFILayer", "repro.gmp.daemon:Daemon",
    "repro.gmp.reliable:ReliableChannel", "repro.tcp.connection:TCPConnection",
    "repro.tcp.congestion:TahoeController", "repro.tcp.window:PersistProber",
    "repro.tcp.keepalive:KeepAliveEngine",
    "repro.tcp.retransmit:RetransmissionManager",
    "repro.abp.protocol:AbpSender", "repro.abp.protocol:AbpReceiver"])
def test_record_wrappers_take_kind_positionally(owner):
    import importlib
    import inspect
    module, name = owner.split(":")
    wrapper = getattr(importlib.import_module(module), name)._record
    parameter = inspect.signature(wrapper).parameters["kind"]
    assert parameter.kind is inspect.Parameter.POSITIONAL_ONLY


class TestKindIndex:
    """The lazy per-kind index must stay coherent with interleaved
    record/query traffic -- the pattern experiments actually produce."""

    def _trace(self):
        trace = TraceRecorder(clock=lambda: 0.0)
        for i in range(10):
            trace.record("tcp.send", t=float(i), seq=i)
            if i % 2 == 0:
                trace.record("tcp.retransmit", t=float(i) + 0.5, seq=i)
            trace.record("gmp.heartbeat", t=float(i) + 0.7, node=i % 3)
        return trace

    def test_index_matches_linear_scan(self):
        trace = self._trace()
        for kind in ("tcp.send", "tcp.retransmit", "gmp.heartbeat", "nope"):
            assert trace.entries(kind) == [
                e for e in trace if e.kind == kind]

    def test_queries_see_entries_recorded_after_first_query(self):
        trace = self._trace()
        assert trace.count("tcp.send") == 10  # builds the index
        trace.record("tcp.send", t=99.0, seq=99)
        assert trace.count("tcp.send") == 11
        assert trace.last("tcp.send").time == 99.0

    def test_prefix_queries_see_later_entries(self):
        trace = self._trace()
        assert len(_with_prefix(trace, "tcp.")) == 15
        trace.record("tcp.drop", t=50.0)
        assert len(_with_prefix(trace, "tcp.")) == 16
        assert len(_with_prefix(trace, "gmp.")) == 10
        assert trace.count_by_kind("tcp.")["tcp.drop"] == 1

    def test_attr_filters_still_apply(self):
        trace = self._trace()
        assert trace.count("tcp.retransmit", seq=4) == 1
        assert [e.time for e in trace.entries("gmp.heartbeat", node=0)] \
            == [0.7, 3.7, 6.7, 9.7]

    def test_clear_resets_index(self):
        trace = self._trace()
        assert trace.count("tcp.send") == 10
        trace.clear()
        assert trace.count("tcp.send") == 0
        assert _with_prefix(trace, "tcp.") == []
        assert trace.count_by_kind() == {}
        trace.record("tcp.send", t=1.0)
        assert trace.count("tcp.send") == 1

    def test_count_by_kind_first_capture_order(self):
        trace = self._trace()
        assert list(trace.count_by_kind()) == [
            "tcp.send", "tcp.retransmit", "gmp.heartbeat"]

    def test_pickle_roundtrip_drops_caches_keeps_entries(self):
        import pickle
        trace = self._trace()
        trace.entries("tcp.send")  # populate the index first
        clone = pickle.loads(pickle.dumps(trace))
        assert list(clone) == list(trace)
        assert clone.entries("tcp.send") == trace.entries("tcp.send")

    @pytest.mark.parametrize("state, got", [
        ({"entries": []}, "a dict with keys ['entries']"),
        (([0.0], ["x"], []), "a tuple of (list[1], list[1], list[0])"),
        (([0.0], ("x",), [{}]), "a tuple of (list[1], tuple[1], list[1])"),
        (([], []), "a tuple of (list[0], list[0])"),
        ([[], [], []], "a list of (list[0], list[0], list[0])"),
        (None, "a NoneType"),
    ])
    def test_setstate_refuses_anything_but_three_equal_columns(self, state,
                                                               got):
        trace = TraceRecorder.__new__(TraceRecorder)
        with pytest.raises(ValueError) as refused:
            trace.__setstate__(state)
        assert str(refused.value) == (
            "TraceRecorder state must be three lists of equal length "
            f"(times, kinds, attrs), got {got}")

    def test_entries_are_interned_and_slotted(self):
        import sys
        trace = TraceRecorder(clock=lambda: 0.0)
        trace.record("x.y", t=0.0)
        trace.record("".join(("x", ".y")), t=1.0)  # a distinct string object
        a, b = trace.entries("x.y")
        assert a.kind is b.kind  # interned to one object
        assert not hasattr(a, "__dict__")
        assert sys.getsizeof(a) < 100  # slots, not a dict-backed object


# ----------------------------------------------------------------------
# checkpoint support: position / fork (a fork at a position truncates)
# ----------------------------------------------------------------------

class TestTruncateAndFork:
    def _trace3(self):
        trace = TraceRecorder(clock=lambda: 0.0)
        for i in range(3):
            trace.record("x.tick", t=float(i), n=i)
        return trace

    def test_position_counts_entries(self):
        trace = self._trace3()
        assert trace.position == 3

    def test_rows_are_the_columns_past_a_position(self):
        trace = self._trace3()
        assert [attrs["n"] for _t, _k, attrs in trace.rows(1)] == [1, 2]
        assert [TraceEntry(*row) for row in trace.rows()] == list(trace)
        assert list(trace.rows(trace.position)) == []
        # a snapshot: rows recorded after the call are not yielded
        rows = trace.rows(2)
        trace.record("x.tick", t=3.0, n=3)
        assert [attrs["n"] for _t, _k, attrs in rows] == [2]

    def test_truncate_drops_suffix_and_rebuilds_indexes(self):
        trace = self._trace3()
        assert trace.entries("x.tick")  # warm the parent's index
        clone = trace.fork(1)
        assert clone.position == 1
        assert [e["n"] for e in clone.entries("x.tick")] == [0]
        assert clone.count_by_kind() == {"x.tick": 1}
        assert trace.position == 3

    def test_truncate_noop_at_current_position(self):
        trace = self._trace3()
        assert list(trace.fork(trace.position)) == list(trace)

    def test_truncate_out_of_range(self):
        trace = self._trace3()
        with pytest.raises(ValueError):
            trace.fork(4)
        with pytest.raises(ValueError):
            trace.fork(-1)

    def test_fork_shares_prefix_entries(self):
        trace = self._trace3()
        clone = trace.fork()
        assert list(clone) == list(trace)
        # entries are values; what a fork shares is each row's attrs dict
        assert all(a.attrs is b.attrs for a, b in zip(clone, trace))

    def test_fork_diverges_independently(self):
        trace = self._trace3()
        clone = trace.fork()
        clone.bind_clock(lambda: 9.0)
        clone.record("x.fork")
        trace.record("x.cold", t=5.0)
        assert [e.kind for e in clone][-1] == "x.fork"
        assert [e.kind for e in trace][-1] == "x.cold"
        assert len(clone) == len(trace) == 4

    def test_fork_at_position(self):
        trace = self._trace3()
        clone = trace.fork(position=1)
        assert len(clone) == 1

    def test_fork_has_no_clock(self):
        clone = self._trace3().fork()
        with pytest.raises(RuntimeError):
            clone.record("x.unclocked")
