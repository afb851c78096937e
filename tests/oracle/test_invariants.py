"""Unit tests of the trace-invariant engine itself.

The protocol packs get their own suites (conformance + known-bug
detection); here we pin the engine mechanics: subscription dispatch,
single-pass evaluation, finish hooks, violation fingerprints, and the
report/metrics surface.
"""

import pytest

from repro.netsim.trace import TraceRecorder
from repro.obs.metrics import MetricsRegistry
from repro.oracle import (Invariant, Violation, describe, evaluate,
                          gmp_pack, packs_by_name, tcp_pack)


def make_trace():
    trace = TraceRecorder()
    trace.record("tcp.state", t=1.0, conn="a", old="CLOSED", new="SYN_SENT")
    trace.record("tcp.send", t=2.0, conn="a", seq=1)
    trace.record("gmp.send", t=3.0, node=1, msg_kind="HEARTBEAT")
    trace.record("pfi.drop", t=4.0, node=2, uid=7)
    return trace


class CountingInvariant(Invariant):
    code = "TEST-COUNT"
    description = "counts subscribed entries"
    kinds = ("tcp.send",)

    def __init__(self):
        self.seen = []

    def on_entry(self, entry):
        self.seen.append(entry.kind)


class PrefixInvariant(Invariant):
    code = "TEST-PREFIX"
    prefixes = ("tcp.",)

    def __init__(self):
        self.seen = []

    def on_entry(self, entry):
        self.seen.append(entry.kind)


class FinishInvariant(Invariant):
    code = "TEST-FINISH"
    kinds = ("pfi.drop",)

    def __init__(self):
        self.last = None

    def on_entry(self, entry):
        self.last = entry

    def finish(self):
        if self.last is not None:
            return [self.violation(self.last, "drop observed")]


def test_exact_kind_subscription_dispatches_only_those_entries():
    inv = CountingInvariant()
    report = evaluate(make_trace(), [inv])
    assert inv.seen == ["tcp.send"]
    assert report.ok()
    assert report.invariant_codes == ("TEST-COUNT",)
    assert report.trace_entries == 4


def test_prefix_subscription_sees_the_whole_family_in_order():
    inv = PrefixInvariant()
    evaluate(make_trace(), [inv])
    assert inv.seen == ["tcp.state", "tcp.send"]


def test_entries_scanned_counts_subscribed_entries_once():
    # two invariants subscribed to overlapping kinds: the pass is still
    # one walk, so each subscribed entry is scanned exactly once
    report = evaluate(make_trace(), [CountingInvariant(), PrefixInvariant()])
    assert report.entries_scanned == 2  # tcp.state + tcp.send


def test_one_walk_of_the_rows_views_only_subscribed_ones(monkeypatch):
    import repro.oracle.invariants as engine

    viewed = []

    class CountingEntry(engine.TraceEntry):
        __slots__ = ()

        def __init__(self, time, kind, attrs):
            viewed.append(kind)
            super().__init__(time, kind, attrs)

    monkeypatch.setattr(engine, "TraceEntry", CountingEntry)
    trace = make_trace()
    # two subscribers of one kind share its view; a list of prefixes
    # subscribes like a tuple
    inv = PrefixInvariant()
    inv.prefixes = ["gmp."]
    report = evaluate(trace, [CountingInvariant(), PrefixInvariant(), inv])
    assert viewed == ["tcp.state", "tcp.send", "gmp.send"]
    assert report.entries_scanned == 3
    assert inv.seen == ["gmp.send"]
    # the walk reads the rows: the trace's per-kind query index is unbuilt
    assert trace._kind_upto == 0


def test_finish_violations_carry_the_anchor_entry():
    report = evaluate(make_trace(), [FinishInvariant()])
    assert not report.ok()
    [violation] = report.violations
    assert violation.code == "TEST-FINISH"
    assert violation.kind == "pfi.drop"
    assert violation.time == 4.0
    assert violation.subject == "2"     # node fallback
    assert violation.uid == 7


def test_fingerprint_excludes_the_uid():
    a = Violation(code="X", message="m", time=1.0, kind="k", uid=1)
    b = Violation(code="X", message="m", time=1.0, kind="k", uid=999)
    assert a.fingerprint() == b.fingerprint()
    assert "uid" not in str(a)


def test_report_grouping_and_render():
    v1 = Violation(code="A", message="first", time=1.0, kind="k")
    v2 = Violation(code="B", message="second", time=2.0, kind="k")
    v3 = Violation(code="A", message="third", time=3.0, kind="k")
    report = evaluate(make_trace(), [])
    report.violations.extend([v1, v2, v3])
    assert report.codes() == ("A", "B")
    assert [v.message for v in report.by_code()["A"]] == ["first", "third"]
    assert len(report.fingerprints()) == 3
    rendered = report.render()
    assert "A: 2" in rendered and "B: 1" in rendered


def test_fill_metrics_exports_violation_counters():
    registry = MetricsRegistry()
    report = evaluate(make_trace(), [FinishInvariant()])
    report.fill_metrics(registry)
    text = registry.render()
    assert "oracle_violations" in text
    assert "TEST-FINISH" in text


def test_packs_by_name_returns_fresh_instances():
    first = packs_by_name(["tcp", "gmp"])
    second = packs_by_name(["tcp"])
    assert len(first) == len(tcp_pack()) + len(gmp_pack())
    assert not {id(inv) for inv in first} & {id(inv) for inv in second}
    with pytest.raises(ValueError, match="unknown invariant pack"):
        packs_by_name(["bogus"])


def test_stock_packs_describe_themselves():
    for pack in (tcp_pack(), gmp_pack()):
        for code, description in describe(pack):
            assert code and description
