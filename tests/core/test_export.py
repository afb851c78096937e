"""Tests for trace export/import and run-to-run determinism pinning."""

import io
import json

from repro.analysis.export import (VOLATILE_ATTRS, dump_trace,
                                   entry_to_dict, load_trace, traces_equal)
from repro.netsim.trace import TraceEntry, TraceRecorder


def make_trace():
    trace = TraceRecorder(clock=lambda: 0.0)
    trace.record("tcp.transmit", t=1.5, seq=100, msg_type="DATA")
    trace.record("gmp.view_adopted", t=2.0, members=(1, 2, 3), leader=1)
    trace.record("pfi.drop", t=3.0, payload=b"\x01\x02", note="bytes here")
    return trace


def test_roundtrip_preserves_entries():
    trace = make_trace()
    restored = load_trace(dump_trace(trace))
    assert len(restored) == 3
    assert restored.times("tcp.transmit") == [1.5]
    assert restored.first("gmp.view_adopted")["leader"] == 1


def test_bytes_roundtrip():
    restored = load_trace(dump_trace(make_trace()))
    assert restored.first("pfi.drop")["payload"] == b"\x01\x02"


def test_tuples_become_lists_but_compare_equal():
    trace = make_trace()
    restored = load_trace(dump_trace(trace))
    assert traces_equal(trace, restored)


def test_file_like_io():
    buffer = io.StringIO()
    dump_trace(make_trace(), buffer)
    buffer.seek(0)
    restored = load_trace(buffer)
    assert len(restored) == 3


def test_empty_trace():
    trace = TraceRecorder(clock=lambda: 0.0)
    assert dump_trace(trace) == ""
    assert len(load_trace("")) == 0


def test_entry_to_dict_shape():
    entry = TraceEntry(4.2, "k", {"a": 1})
    assert entry_to_dict(entry) == {"t": 4.2, "kind": "k",
                                    "attrs": {"a": 1}}


def test_unserializable_attr_falls_back_to_repr():
    class Opaque:
        def __repr__(self):
            return "<opaque>"

    trace = TraceRecorder(clock=lambda: 0.0)
    trace.record("x", t=0.0, thing=Opaque())
    restored = load_trace(dump_trace(trace))
    assert restored.first("x")["thing"] == "<opaque>"


def test_experiment_runs_are_bit_identical():
    """Determinism pinning: the same experiment twice -> the same trace."""
    from repro.tcp import SOLARIS_23

    traces = []
    for _ in range(2):
        # re-run the full experiment and capture its trace text
        from repro.experiments.tcp_common import (build_tcp_testbed,
                                                  open_connection)
        testbed = build_tcp_testbed(SOLARIS_23, seed=9)
        client, _ = open_connection(testbed)
        client.send(b"E" * 512)
        testbed.pfi.set_receive_filter(lambda ctx: ctx.drop())
        testbed.env.run_until(100.0)
        traces.append(dump_trace(testbed.trace,
                                 exclude_attrs=VOLATILE_ATTRS))
    assert traces[0] == traces[1]


def test_stream_trace_bytes_match_dump_trace():
    from repro.analysis.export import stream_trace
    trace = make_trace()
    whole = io.StringIO()
    dump_trace(trace, whole)
    streamed = io.StringIO()
    count = stream_trace(trace, streamed, buffer_lines=2)  # force flushes
    assert streamed.getvalue() == whole.getvalue()
    assert count == len(trace)


def test_stream_trace_bytes_match_dump_trace_without_volatile_attrs():
    from repro.analysis.export import entry_line, stream_trace
    trace = make_trace()
    trace.record("tcp.send", t=6.0, uid=9, original=4, parent=2, seq=7)
    whole = io.StringIO()
    text = dump_trace(trace, whole, exclude_attrs=VOLATILE_ATTRS)
    streamed = io.StringIO()
    stream_trace(trace, streamed, exclude_attrs=VOLATILE_ATTRS,
                 buffer_lines=2)
    assert streamed.getvalue() == whole.getvalue() == text + "\n"
    assert "uid" not in text and '"seq": 7' in text
    # one renderer: a dump is its lines, one per entry
    assert text.split("\n") == [entry_line(entry, frozenset(VOLATILE_ATTRS))
                                for entry in trace]
    assert entry_line(trace.entries()[-1]) == json.dumps(
        entry_to_dict(trace.entries()[-1]), sort_keys=True)


def test_stream_trace_excludes_attrs():
    from repro.analysis.export import stream_trace
    trace = TraceRecorder(clock=lambda: 0.0)
    trace.record("a", t=1.0, uid=5, keep="yes")
    out = io.StringIO()
    stream_trace(trace, out, exclude_attrs=VOLATILE_ATTRS)
    assert "uid" not in out.getvalue()
    assert "keep" in out.getvalue()


def test_export_trace_roundtrips_via_file(tmp_path):
    from repro.analysis.export import export_trace
    trace = make_trace()
    path = tmp_path / "run.jsonl"
    count = export_trace(trace, path)
    assert count == len(trace)
    restored = load_trace(path.read_text())
    assert traces_equal(trace, restored)
