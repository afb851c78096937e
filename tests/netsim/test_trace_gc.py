"""What a trace costs the cyclic collector: counts, never timings.

A recorder keeps three columns and no entry objects, and an attrs dict
of atomic values is not tracked, so neither recording nor unpickling a
trace leaves the collector anything to walk.  CPython still *starts* a
generation-0 pass every 700 container allocations whether or not the
container ever becomes tracked (each row's dict counts), so what these
tests pin is the number of objects those passes find, and that they are
no more frequent than one per 700 rows.
"""

import gc
import pickle

from repro.netsim.trace import TraceEntry, TraceRecorder

ROWS = 10_000


def _recorded(rows=ROWS):
    trace = TraceRecorder()
    for i in range(rows):
        trace.record("tcp.send" if i % 3 else "tcp.ack", t=i * 0.5,
                     seq=i, conn="a", ok=True, note=None)
    return trace


def _live_entries():
    return sum(1 for obj in gc.get_objects() if type(obj) is TraceEntry)


def test_recording_adds_no_tracked_object_per_entry():
    gc.collect()
    before = len(gc.get_objects())
    trace = _recorded()
    grown = len(gc.get_objects()) - before
    # the recorder, its three columns and two index dicts -- not 10,000
    assert grown < 20
    assert not any(gc.is_tracked(entry.attrs) for entry in trace)


def test_loading_a_trace_gives_the_collector_nothing_to_walk():
    blob = pickle.dumps(_recorded())
    gc.collect()
    walked = []

    def on_gc(phase, info):
        if phase == "start":
            walked.append(sum(len(gc.get_objects(generation=young))
                              for young in range(info["generation"] + 1)))

    before = len(gc.get_objects())
    gc.callbacks.append(on_gc)
    try:
        clone = pickle.loads(blob)
    finally:
        gc.callbacks.remove(on_gc)
    assert len(clone) == ROWS
    assert len(gc.get_objects()) - before < 20
    # one pass per 700 dict allocations at most (an entry object and a
    # REDUCE argument tuple per row tripled that), each finding only
    # the unpickler's own few containers (entry objects made it ~35,000)
    assert len(walked) <= ROWS // gc.get_threshold()[0] + 2
    assert sum(walked) < 1_000


def test_a_querys_views_are_freed_by_refcount():
    trace = _recorded(1_000)
    gc.collect()
    views = trace.entries("tcp.send") + trace.entries()
    views.extend(trace.iter_subscribed(("tcp.send", "tcp.ack")))
    assert len(views) > 2_000 and _live_entries() == len(views)
    del views
    # nothing is left for a collection to find, and no entry outlives
    # the query that built it
    assert _live_entries() == 0
    assert gc.collect() == 0


def test_a_sweep_result_pickles_as_columns():
    from repro.core.orchestrator import Campaign
    from repro.oracle.fuzz import pack_for, prefixed_fuzz_body, sweep_battery

    config, = sweep_battery("gmp", ["self_death"], 1)
    result, = Campaign(prefixed_fuzz_body, seed=0).run(
        [config], oracle=pack_for("gmp"))
    blob = pickle.dumps(result)
    # the whole run result, trace included, at three columns' cost
    assert len(blob) / len(result.trace) <= 40
    assert list(pickle.loads(blob).trace) == list(result.trace)
