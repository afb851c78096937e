"""The campaign flight recorder: a crash-safe, append-only run journal.

The paper's methodology is campaign-shaped -- every table is a sweep of
fault scenarios whose value lies in the aggregate record -- yet an
in-memory scorecard evaporates the moment a sweep crashes or is killed.
This module makes the record durable: every long-running engine
(``Campaign.run``, ``run_fuzz``, ``repro explore``, ddmin shrinking)
can attach a :class:`Journal` and emit one schema-versioned JSONL event
per lifecycle step -- ``campaign.start``, ``campaign.preflight``,
``campaign.checkpoint_capture``, ``campaign.run_start`` /
``campaign.run_end`` (carrying telemetry, oracle violation codes and
coverage-key deltas), ``campaign.worker_error``,
``campaign.shrink_step``, ``campaign.phase_start`` /
``campaign.phase_end`` spans, ``campaign.end``.

Crash-safety contract:

- **atomic single-line appends**: each event is one ``os.write`` of one
  complete ``\\n``-terminated line to an ``O_APPEND`` descriptor, so a
  killed process can tear at most the final line, never interleave or
  corrupt earlier ones, and a journal reopened over such a torn line
  terminates it first, so the next flight's events start lines of
  their own;
- **one tolerant reader**: a journal is a list of flights, each a
  ``campaign.start`` and the events after it up to the next start
  (what precedes the first start is a flight of its own: a shard
  journal's events, or a first start line a kill cut).  :func:`read_flights`
  returns them all and :func:`last_flight` the last alone, seeking its
  start from the end of the file; both run the one decoder, which
  never fails on damage.  A line a kill cut is its flight's ``torn``
  bytes: a *torn line* when a resumed flight follows, the *torn tail*
  when none does.  ``repro tail`` (``--follow`` too, through
  :func:`follow_journal`) and ``repro trace --journal`` show every
  flight; ``repro report --campaign``, ``repro history --record`` and
  the fabric merge fold the last, so a journal from a SIGKILLed sweep
  still reproduces the exact partial scorecard via
  :mod:`repro.obs.campaign_report`.

Event kinds are part of the trace-schema registry
(:mod:`repro.netsim.kinds`), so the SC201-SC204 drift pass covers the
journal schema the same way it covers simulator traces; the journal
additionally carries :data:`SCHEMA_VERSION` in every ``campaign.start``
payload, drift-guarded by a pinned-fingerprint test.

Every engine opens, gates and ends its record through one context
manager, :class:`Flight`, so a flight means one thing whoever wrote it:
``campaign.start`` -> the gate inside a ``preflight`` phase -> the
engine's own events -> exactly one ``campaign.end`` naming how it ended.

Like the rest of :mod:`repro.obs`, journaling is off by default: a
flight opened with ``journal=None`` records into :data:`NULL_JOURNAL`,
whose hooks are no-op calls, so no engine tests whether anybody keeps
the record.  The enabled cost is CI-gated at <=3% by
``benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple, Union)

from repro.analysis.export import _jsonable
from repro.netsim import kinds as K
from repro.obs.progress import ProgressRenderer

#: version of the journal event schema; bump on any change to the event
#: kind set or to the meaning of a recorded payload field (the pinned
#: drift test in tests/staticcheck holds the two in lockstep)
SCHEMA_VERSION = 1

#: every event kind a journal may contain -- the closed journal schema
JOURNAL_KINDS = frozenset({
    K.CAMPAIGN_START,
    K.CAMPAIGN_PREFLIGHT,
    K.CAMPAIGN_CHECKPOINT_CAPTURE,
    K.CAMPAIGN_PHASE_START,
    K.CAMPAIGN_PHASE_END,
    K.CAMPAIGN_RUN_START,
    K.CAMPAIGN_RUN_END,
    K.CAMPAIGN_WORKER_ERROR,
    K.CAMPAIGN_SHRINK_STEP,
    K.CAMPAIGN_END,
})


@dataclass(frozen=True)
class JournalEvent:
    """One replayed journal event."""

    kind: str
    seq: int
    #: wall-clock seconds since the journal was opened
    t: float
    data: Dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)


class Journal:
    """Append-only crash-safe JSONL event journal.

    One :class:`Journal` records one sweep (or several back-to-back
    sweeps appended to the same file: one flight each, from its
    ``campaign.start``; a fold reads only the last).  Appends go
    through a single ``os.write`` per event on an ``O_APPEND``
    descriptor: no user-space buffering, no partial flushes, so the only
    damage a crash can do is truncate the final line -- which replay
    tolerates, and which the next :class:`Journal` on the file
    terminates before it appends.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd: Optional[int] = os.open(
            str(self.path), os.O_CREAT | os.O_RDWR | os.O_APPEND, 0o644)
        # a writer killed mid-append left a torn line: terminate it, so
        # this journal's first event starts a line of its own
        size = os.lseek(self._fd, 0, os.SEEK_END)
        if size and os.pread(self._fd, 1, size - 1) != b"\n":
            os.write(self._fd, b"\n")
        self._seq = 0
        self._t0 = perf_counter()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record(self, kind: str, **payload: Any) -> Dict[str, Any]:
        """Append one event; returns the written dict.

        ``kind`` must belong to :data:`JOURNAL_KINDS` -- the journal
        schema is closed so replayers never meet a kind they cannot
        interpret.  Payload values are JSON-sanitized the same way
        trace exports are.
        """
        if kind not in JOURNAL_KINDS:
            raise ValueError(
                f"unknown journal event kind {kind!r}; the schema "
                f"(version {SCHEMA_VERSION}) allows {sorted(JOURNAL_KINDS)}")
        if self._fd is None:
            raise RuntimeError(f"journal {self.path} is closed")
        event = {"kind": kind, "seq": self._seq,
                 "t": round(perf_counter() - self._t0, 6),
                 "data": {k: _jsonable(v) for k, v in payload.items()}}
        line = json.dumps(event, sort_keys=True) + "\n"
        os.write(self._fd, line.encode("utf-8"))
        self._seq += 1
        return event

    def start(self, engine: str, **payload: Any) -> Dict[str, Any]:
        """Record ``campaign.start`` with the schema version stamped in."""
        return self.record(K.CAMPAIGN_START, engine=engine,
                           schema=SCHEMA_VERSION, **payload)

    @contextmanager
    def phase(self, name: str, **payload: Any) -> Iterator[None]:
        """A ``campaign.phase_start`` .. ``campaign.phase_end`` span.

        Phases (lint preflight, checkpoint capture, dispatch, merge)
        become duration spans in the Chrome-trace export of the journal
        (:func:`repro.obs.chrometrace.journal_chrome_trace`).
        """
        self.record(K.CAMPAIGN_PHASE_START, name=name, **payload)
        try:
            yield
        finally:
            self.record(K.CAMPAIGN_PHASE_END, name=name)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullJournal:
    """What a flight nobody keeps records into: nothing.

    Answers the recording half of :class:`Journal` with no-ops, so an
    engine hook is one unconditional call whether or not a record is
    kept.  Deliberately not a :class:`Journal`: it opens no descriptor,
    has no path, and nothing it is handed reaches
    :meth:`Journal.record`.
    """

    __slots__ = ()

    def record(self, kind: str, **payload: Any) -> None:
        return None

    start = record

    def phase(self, name: str, **payload: Any):
        return nullcontext()

    def close(self) -> None:
        pass


#: the one :class:`NullJournal` (it has no state to tell two apart)
NULL_JOURNAL = NullJournal()


class Flight:
    """One engine run's flight record: opened, gated and ended here.

    ``with Flight(journal, engine, start, progress=...) as flight`` is
    the skeleton every engine's record shares (``start`` is the
    ``campaign.start`` payload)::

        campaign.start
        campaign.phase_start {preflight}     -- flight.gate(...)
        campaign.preflight {ok, failing}
        campaign.phase_end {preflight}
        ...                                  -- the engine's own events
        campaign.end {status, executed, <the engine's counters>}

    ``journal`` is the engine's ``journal=`` argument: ``None`` (nobody
    keeps the record: :data:`NULL_JOURNAL`), a path (opened here, closed
    on every exit) or an open :class:`Journal` the caller owns (left
    open -- several flights can share one file).  ``flight.journal`` is
    where the engine records its own events; ``flight.progress`` is the
    one :class:`~repro.obs.progress.ProgressRenderer` over the engine's
    ``progress=`` sink (``label``/``total``/``unit`` are its arguments).

    Exactly one ``campaign.end`` is written, on every exit, with
    ``status`` ``ok``, ``preflight_failed`` when the gate raised,
    ``failed`` for any other exception -- or the exception's own
    ``status`` when it carries one (:class:`~repro.core.fabric
    .FabricError`: ``workers_lost``, ``worker_error``...) -- plus
    whatever ``flight.counters()`` returns at that moment; an engine
    assigns ``counters`` once it has something to count.

    ``join=True`` is for an engine that rides in another's record (a
    shrink handed the fuzz session's open journal): a borrowed journal
    then receives the engine's events but no skeleton of its own.
    """

    def __init__(self, journal: Union[None, str, Path, Journal, NullJournal],
                 engine: str, start: Dict[str, Any], *,
                 progress: Optional[Callable[[str], None]] = None,
                 label: Optional[str] = None, total: Optional[int] = None,
                 unit: str = "trials", join: bool = False):
        if journal is None:
            journal = NULL_JOURNAL
        self._owned = not isinstance(journal, (Journal, NullJournal))
        self.journal = Journal(journal) if self._owned else journal
        #: where start, gate and end go: nowhere, for a joined flight
        self._skeleton = (NULL_JOURNAL if join and not self._owned
                          else self.journal)
        self.progress = ProgressRenderer(label or engine, total=total,
                                         unit=unit, sink=progress)
        self.status = "ok"
        self.counters: Callable[[], Dict[str, Any]] = lambda: {"executed": 0}
        self._engine, self._start = engine, start
        self._gated = False

    def __enter__(self) -> "Flight":
        self._skeleton.start(self._engine, **self._start)
        return self

    def gate(self, preflight: Callable[..., None],
             configs: Iterable[Dict[str, Any]], **options: Any) -> None:
        """Pass the engine's gate: ``preflight(configs, journal,
        **options)``, :meth:`Campaign.preflight <repro.core.orchestrator
        .Campaign.preflight>` for every engine.

        The first gate is the flight's ``preflight`` phase; a flight
        that gates again (a fuzz session, every batch) spans no further
        phase.  Whatever a gate raises ends the flight
        ``preflight_failed``.
        """
        span = (nullcontext() if self._gated
                else self._skeleton.phase("preflight"))
        self._gated = True
        try:
            with span:
                preflight(configs, self._skeleton, **options)
        except BaseException:
            self.status = "preflight_failed"
            raise

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc is not None and self.status == "ok":
            status = getattr(exc, "status", None)
            self.status = status if isinstance(status, str) else "failed"
        try:
            self._skeleton.record(K.CAMPAIGN_END, status=self.status,
                                  **self.counters())
        finally:
            if self._owned:
                self.journal.close()


# ----------------------------------------------------------------------
# reading: a journal is a list of flights
# ----------------------------------------------------------------------

class _Events:
    """An event list read back: one flight's, or a whole file's."""

    def of(self, kind: str) -> List[JournalEvent]:
        """Every event of one kind, in append order."""
        return [event for event in self.events if event.kind == kind]

    def last(self, kind: str) -> Optional[JournalEvent]:
        """The latest event of one kind, or None."""
        return next((event for event in reversed(self.events)
                     if event.kind == kind), None)

    @property
    def complete(self) -> bool:
        """True when a ``campaign.end`` was read back."""
        return self.last(K.CAMPAIGN_END) is not None


@dataclass
class JournalFlight(_Events):
    """One flight read back: a ``campaign.start`` and the events after
    it, up to the next start (what precedes a file's first start is a
    flight too: a shard journal's events, or only the torn line of a
    first start a kill cut)."""

    path: Path
    events: List[JournalEvent] = field(default_factory=list)
    #: the bytes of the line a kill cut, None when the flight has none:
    #: a *torn line* when a later flight follows (a resume), the *torn
    #: tail* for the file's last flight
    torn: Optional[bytes] = None


@dataclass
class JournalReplay(_Events):
    """A whole file read back (:func:`replay_journal`): its flights, and
    their events flattened in append order.  Not a flight: a fold
    (:func:`~repro.obs.campaign_report.summarize_journal`) takes its
    last flight."""

    path: Path
    flights: List[JournalFlight]

    @property
    def events(self) -> List[JournalEvent]:
        return [event for flight in self.flights for event in flight.events]

    @property
    def torn_tail(self) -> Optional[bytes]:
        return self.flights[-1].torn


def _decode_line(line: bytes) -> Optional[JournalEvent]:
    """One journal line as an event, or None when undecodable."""
    try:
        raw = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError):  # RecursionError: nested too deep
        return None
    if not isinstance(raw, dict):
        return None
    kind = raw.get("kind")
    seq = raw.get("seq")
    t = raw.get("t")
    if not isinstance(kind, str) or kind not in JOURNAL_KINDS:
        return None
    if not isinstance(seq, int) or not isinstance(t, (int, float)):
        return None
    data = raw.get("data")
    return JournalEvent(kind=kind, seq=seq, t=float(t),
                        data=data if isinstance(data, dict) else {})


#: what every ``campaign.start`` line holds (``record`` sorts its keys)
_START_MARKER = json.dumps({"kind": K.CAMPAIGN_START})[1:-1].encode()

#: a decoded ``campaign.start`` line: where it begins, where the next
#: line begins, and its event
_Start = Tuple[int, int, JournalEvent]


def _find_start(blob: bytes, lo: int, hi: int,
                last: bool = False) -> Optional[_Start]:
    """The first (``last``: the last) ``campaign.start`` line within
    ``blob[lo:hi]``, or None.

    A candidate is a line holding the start marker that decodes to a
    start; one that does not -- a torn line, or a payload that nests
    the marker -- is skipped and the search goes on past it.
    """
    while True:
        marker = (blob.rfind if last else blob.find)(_START_MARKER, lo, hi)
        if marker < 0:
            return None
        begin = blob.rfind(b"\n", 0, marker) + 1
        newline = blob.find(b"\n", marker)
        if newline >= 0:
            event = _decode_line(blob[begin:newline])
            if event is not None and event.kind == K.CAMPAIGN_START:
                return begin, newline + 1, event
        if last:
            hi = begin
        elif newline < 0:
            return None
        else:
            lo = newline + 1


def _flights(path: Path, blob: bytes,
             start: Optional[_Start] = None) -> List[JournalFlight]:
    """The one decoder: the flights of ``blob`` from byte 0, or from the
    already decoded ``start`` line on.

    A line that is torn or undecodable ends its flight's events and
    becomes the flight's ``torn``, up to the next start line; with no
    start after it, it runs to the end of the file: after a crash only
    the tail can be damaged, so what follows a damaged line with no
    resume after it is unreachable bookkeeping, not data.
    """
    flights = [JournalFlight(path)]
    offset, size = 0, len(blob)
    while start is not None or offset < size:
        if start is not None:
            offset, end, event = start
            start = None
        else:
            newline = blob.find(b"\n", offset)
            end = size if newline < 0 else newline + 1
            event = None if newline < 0 else _decode_line(blob[offset:newline])
        flight = flights[-1]
        if event is None:
            start = _find_start(blob, end, size)
            flight.torn = blob[offset:size if start is None else start[0]]
            offset = size
            continue
        if event.kind == K.CAMPAIGN_START and (
                flight.events or flight.torn is not None):
            flight = JournalFlight(path)
            flights.append(flight)
        flight.events.append(event)
        offset = end
    return flights


def read_flights(path: Union[str, Path]) -> List[JournalFlight]:
    """Every flight of a journal file, in append order (at least one:
    an empty file is one flight with no events)."""
    path = Path(path)
    return _flights(path, path.read_bytes())


def last_flight(path: Union[str, Path]) -> JournalFlight:
    """The file's last flight, ``read_flights(path)[-1]``, decoding only
    that flight.

    Its start is found from the end of the file, so the cost is one
    flight however many earlier flights the file holds, and whatever
    precedes that start, damaged or not, is never decoded.
    """
    path = Path(path)
    blob = path.read_bytes()
    return _flights(path, blob, _find_start(blob, 0, len(blob), last=True))[-1]


def replay_journal(path: Union[str, Path]) -> JournalReplay:
    """The whole file read back: every flight, their events in append
    order, and the last flight's torn tail."""
    return JournalReplay(Path(path), read_flights(path))


def follow_journal(path: Union[str, Path], *, poll: float = 0.2,
                   timeout: Optional[float] = None
                   ) -> Iterator[JournalEvent]:
    """Yield a journal's events as they are appended (``repro tail
    --follow``): the events :func:`replay_journal` reads, in order.

    Every poll runs the one decoder over the bytes appended since the
    last complete event (a torn tail is read again, since its writer
    may still be finishing it), so following a sweep decodes its
    journal once, and a torn line that a resumed flight follows is
    skipped, as it is everywhere else.  The follow ends when the file
    ends with a ``campaign.end`` (nothing after it), when ``timeout``
    wall seconds elapse, or when the consumer stops iterating; a torn
    tail is never yielded.
    """
    path, started, offset = Path(path), perf_counter(), 0
    while True:
        try:
            with path.open("rb") as handle:
                handle.seek(offset)
                blob = handle.read()
        except FileNotFoundError:
            blob = b""
        replay = JournalReplay(path, _flights(path, blob))
        events, torn = replay.events, replay.torn_tail
        yield from events
        # the next poll starts at this one's torn tail, or at its end
        offset += len(blob) - len(torn or b"")
        if torn is None and events and events[-1].kind == K.CAMPAIGN_END:
            return
        if timeout is not None and perf_counter() - started >= timeout:
            return
        sleep(poll)
