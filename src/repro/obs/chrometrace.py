"""Chrome-trace / Perfetto export of experiment traces.

Converts a :class:`~repro.netsim.trace.TraceRecorder` (live or loaded
from a JSON-lines archive) into the Trace Event Format consumed by
``chrome://tracing`` and https://ui.perfetto.dev: open the JSON, and the
run becomes a zoomable timeline with one process row per node and one
thread row per direction/subsystem.

Mapping:

- virtual seconds -> microsecond timestamps (``ts``);
- a node (``node`` attr, falling back to ``conn``, else ``run``) -> a
  ``pid`` with a ``process_name`` metadata record;
- the entry's ``direction`` attr (else its kind prefix, "tcp", "gmp",
  ...) -> a ``tid`` with a ``thread_name`` record;
- ``pfi.delay`` -> a complete span (``ph: "X"``) of the delay duration;
- ``pfi.hold`` ... ``pfi.release`` of the same uid -> a complete span
  from park to re-emission;
- everything else -> a thread-scoped instant event (``ph: "i"``).

All attribute payloads ride along under ``args`` (JSON-sanitized), so
clicking any event in the viewer shows the original trace entry.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.analysis.export import _jsonable
from repro.netsim.trace import TraceEntry

_US = 1_000_000  # virtual seconds -> trace microseconds


def _lane(entry: TraceEntry) -> Tuple[str, str]:
    """(process, thread) placement for one entry."""
    node = entry.get("node")
    if node is None:
        node = entry.get("conn")
    if node is None:
        node = "run"
    direction = entry.get("direction")
    if direction is None:
        direction = entry.kind.split(".", 1)[0]
    return str(node), str(direction)


def chrome_trace(trace: Iterable[TraceEntry], *,
                 title: str = "repro run") -> Dict[str, Any]:
    """Build the Trace Event Format dict for a trace."""
    events: List[Dict[str, Any]] = []
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    open_holds: Dict[Any, Tuple[TraceEntry, int, int]] = {}

    def lane_ids(entry: TraceEntry) -> Tuple[int, int]:
        process, thread = _lane(entry)
        pid = pids.get(process)
        if pid is None:
            pid = pids[process] = len(pids) + 1
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": process}})
        key = (process, thread)
        tid = tids.get(key)
        if tid is None:
            tid = tids[key] = len(tids) + 1
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": thread}})
        return pid, tid

    def args_of(entry: TraceEntry) -> Dict[str, Any]:
        return {k: _jsonable(v) for k, v in entry.attrs.items()}

    for entry in trace:
        pid, tid = lane_ids(entry)
        ts = entry.time * _US
        if entry.kind == "pfi.delay":
            events.append({"ph": "X", "name": f"delay uid={entry.get('uid')}",
                           "cat": "pfi", "ts": ts,
                           "dur": float(entry.get("seconds", 0.0)) * _US,
                           "pid": pid, "tid": tid, "args": args_of(entry)})
            continue
        if entry.kind == "pfi.hold":
            open_holds[entry.get("uid")] = (entry, pid, tid)
            continue
        if entry.kind == "pfi.release":
            held = open_holds.pop(entry.get("uid"), None)
            if held is not None:
                hold_entry, hold_pid, hold_tid = held
                events.append({
                    "ph": "X",
                    "name": f"hold uid={entry.get('uid')} "
                            f"tag={entry.get('tag')}",
                    "cat": "pfi", "ts": hold_entry.time * _US,
                    "dur": (entry.time - hold_entry.time) * _US,
                    "pid": hold_pid, "tid": hold_tid,
                    "args": args_of(entry)})
                continue
            # release with no recorded hold: fall through as an instant
        events.append({"ph": "i", "name": entry.kind,
                       "cat": entry.kind.split(".", 1)[0], "ts": ts,
                       "s": "t", "pid": pid, "tid": tid,
                       "args": args_of(entry)})

    # messages still parked when the run ended: zero-length markers
    for hold_entry, pid, tid in open_holds.values():
        events.append({"ph": "i",
                       "name": f"held (never released) "
                               f"uid={hold_entry.get('uid')}",
                       "cat": "pfi", "ts": hold_entry.time * _US, "s": "t",
                       "pid": pid, "tid": tid, "args": args_of(hold_entry)})

    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"title": title,
                          "generator": "repro.obs.chrometrace"}}


def dump_chrome_trace(trace: Iterable[TraceEntry], *,
                      title: str = "repro run", indent: int = 0) -> str:
    """The Trace Event Format JSON text for a trace."""
    return json.dumps(chrome_trace(trace, title=title), sort_keys=True,
                      indent=indent or None)


def journal_chrome_trace(flights: Sequence[Any], *,
                         title: str = "campaign journal"
                         ) -> Dict[str, Any]:
    """Trace Event Format view of a campaign journal's flights
    (:func:`~repro.obs.journal.read_flights`).

    Each flight becomes one timeline process, named by its number and
    engine (a flight's clock starts at its own ``campaign.start``):
    campaign phases (lint preflight, checkpoint capture, dispatch,
    merge) map to complete spans on a ``phases`` thread,
    ``campaign.run_start`` .. ``campaign.run_end`` pairs to spans on a
    ``runs`` thread (matched by run index, falling back to an instant
    for a run_end with no recorded start -- e.g. cached runs), and
    everything else to instant events.  Phases and runs pair within a
    flight only; what a killed flight left open closes at that flight's
    last event, marked ``(unclosed)``.  Journal timestamps are wall
    seconds since journal open, exported as microseconds like the
    virtual-time traces.
    """
    events: List[Dict[str, Any]] = []
    for pid, flight in enumerate(flights, 1):
        start = flight.last("campaign.start")
        engine = start.get("engine", "unknown") if start else "unknown"
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": f"flight {pid}: {engine}"}})
        for tid, lane in enumerate(("phases", "runs", "lifecycle"), 1):
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": lane}})
        _flight_events(flight.events, pid, events)
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"title": title,
                          "generator": "repro.obs.chrometrace"}}


def _flight_events(recorded: Sequence[Any], pid: int,
                   events: List[Dict[str, Any]]) -> None:
    """Append the spans and instants of one flight's ``recorded``
    journal events to ``events``, on process ``pid``."""
    open_phases: Dict[str, Any] = {}
    open_runs: Dict[Any, Any] = {}
    last_t = 0.0
    for event in recorded:
        ts = event.t * _US
        last_t = event.t
        data = {k: _jsonable(v) for k, v in event.data.items()}
        if event.kind == "campaign.phase_start":
            open_phases[str(event.get("name", "?"))] = event
        elif event.kind == "campaign.phase_end":
            name = str(event.get("name", "?"))
            started = open_phases.pop(name, None)
            start_ts = started.t * _US if started is not None else ts
            events.append({"ph": "X", "name": name, "cat": "campaign",
                           "ts": start_ts, "dur": ts - start_ts,
                           "pid": pid, "tid": 1, "args": data})
        elif event.kind == "campaign.run_start":
            open_runs[event.get("index")] = event
        elif event.kind == "campaign.run_end":
            started = open_runs.pop(event.get("index"), None)
            name = str(event.get("label", event.get(
                "case", f"run {event.get('index')}")))
            if started is not None:
                start_ts = started.t * _US
                events.append({"ph": "X", "name": name, "cat": "campaign",
                               "ts": start_ts, "dur": ts - start_ts,
                               "pid": pid, "tid": 2, "args": data})
            else:
                events.append({"ph": "i", "name": name, "cat": "campaign",
                               "ts": ts, "s": "t", "pid": pid, "tid": 2,
                               "args": data})
        else:
            events.append({"ph": "i", "name": event.kind, "cat": "campaign",
                           "ts": ts, "s": "t", "pid": pid, "tid": 3,
                           "args": data})
    # a killed flight leaves phases/runs open: close them at its last
    # recorded instant so the torn flight still renders
    for name, started in open_phases.items():
        events.append({"ph": "X", "name": f"{name} (unclosed)",
                       "cat": "campaign", "ts": started.t * _US,
                       "dur": max(0.0, (last_t - started.t) * _US),
                       "pid": pid, "tid": 1, "args": {}})
    for index, started in open_runs.items():
        events.append({"ph": "i", "name": f"run {index} (no run_end)",
                       "cat": "campaign", "ts": started.t * _US, "s": "t",
                       "pid": pid, "tid": 2, "args": {}})
