"""Timestamped experiment traces.

Every experiment in the repository produces its results by querying a trace:
the retransmission-interval tables come from filtering retransmit events,
the GMP tables from membership-change events, and so on.  A trace entry is a
(virtual time, kind, attributes) triple; kinds use dotted names
("tcp.retransmit", "gmp.commit", "pfi.drop") so queries can match by prefix.

Layout: a recorder stores no entry objects.  It keeps three parallel
columns -- times (floats), kinds (interned strings) and attrs (one dict per
event) -- and :meth:`TraceRecorder.record` is three appends.  A
:class:`TraceEntry` is a *view* that a query builds on demand over one row
and that the caller's last reference frees.  An attrs dict of atomic values
is not tracked by the cyclic collector, so a trace of any length costs the
collector three lists, and it pickles as floats, memoised strings and dicts
with no per-entry object.  Queries go through one lazily built per-kind
index of integer positions that is advanced incrementally as new rows
arrive, turning exact-kind scans from O(n) per query into O(matches)
after the first; a kind-prefix query (:meth:`TraceRecorder.iter_subscribed`,
:meth:`TraceRecorder.count_by_kind`) resolves its prefix to the concrete
kinds in that index.  The oracle needs neither: :func:`repro.oracle
.invariants.evaluate` walks :meth:`TraceRecorder.rows` once against the
set of :meth:`TraceRecorder.kinds`, building a view only for a row an
invariant subscribed to.

Two rules for code that records or reads a trace:

- ``record`` returns nothing; read an event back with a query
  (``trace.last(kind)``).
- an entry is a value.  Two queries yield equal, not identical, entries, so
  never keep one to test identity; and never write through ``entry.attrs``
  -- that dict *is* the recorded row, shared with every fork of the trace.
"""

from __future__ import annotations

import sys
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

_intern = sys.intern


class TraceEntry:
    """One recorded event: a value-compared view of one trace row."""

    __slots__ = ("time", "kind", "attrs")

    def __init__(self, time: float, kind: str, attrs: Dict[str, Any]):
        self.time = time
        self.kind = kind
        self.attrs = attrs

    def __getitem__(self, key: str) -> Any:
        return self.attrs[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.attrs.get(key, default)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEntry):
            return NotImplemented
        return (self.time == other.time and self.kind == other.kind
                and self.attrs == other.attrs)

    # attrs is a dict, so entries are unhashable -- same as the frozen
    # dataclass this class replaced, where hash() raised on the dict field
    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        # compact pickle form for an entry that travels on its own (a
        # recorder ships its columns, never entries)
        return (TraceEntry, (self.time, self.kind, self.attrs))

    def __repr__(self) -> str:
        attrs = ", ".join(f"{k}={v!r}" for k, v in sorted(self.attrs.items()))
        return f"[{self.time:10.3f}] {self.kind}({attrs})"


def _state_shape(state: Any) -> str:
    """What a rejected pickle state looked like, for the error message."""
    if isinstance(state, dict):
        return f"a dict with keys {sorted(map(str, state))}"
    if isinstance(state, (tuple, list)):
        parts = ", ".join(
            f"{type(part).__name__}[{len(part)}]" if hasattr(part, "__len__")
            else type(part).__name__ for part in state)
        return f"a {type(state).__name__} of ({parts})"
    return f"a {type(state).__name__}"


class TraceRecorder:
    """Append-only, columnar store of trace rows.

    The recorder is deliberately permissive about attribute payloads; shape
    checking belongs to the analysis layer, not the capture path.  The
    capture path never touches the query indexes: :meth:`record` is three
    appends, and the indexes catch up lazily on the next indexed query.
    """

    __slots__ = ("_times", "_kinds", "_attrs", "_clock", "_kind_index",
                 "_kind_upto")

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._times: List[float] = []
        self._kinds: List[str] = []
        self._attrs: List[Dict[str, Any]] = []
        self._clock = clock
        self._kind_index: Dict[str, List[int]] = {}
        self._kind_upto = 0

    def bind_clock(self, clock: Optional[Callable[[], float]]) -> None:
        """Attach the time source used when ``record`` is called without t
        (``None`` detaches it, and with it whatever the clock reads)."""
        self._clock = clock

    def __getstate__(self) -> tuple:
        # the bound clock usually closes over a live scheduler and is not
        # picklable, and the query indexes are pure caches; the three
        # columns are what travels between campaign worker processes and
        # into the result store -- rebind a clock after unpickling if needed
        return (self._times, self._kinds, self._attrs)

    def __setstate__(self, state: Any) -> None:
        # a stored row's trace is outside input: anything but the three
        # columns is refused here (when the row's trace is first read),
        # never half-built into a recorder that fails on its first query
        if not (isinstance(state, tuple) and len(state) == 3
                and all(type(column) is list for column in state)
                and len(state[0]) == len(state[1]) == len(state[2])):
            raise ValueError(
                "TraceRecorder state must be three lists of equal length "
                f"(times, kinds, attrs), got {_state_shape(state)}")
        self.__init__()
        self._times, self._kinds, self._attrs = state

    def record(self, kind: str, /, *, t: Optional[float] = None,
               **attrs: Any) -> None:
        """Append a row.  Time defaults to the bound clock.

        ``kind`` is positional-only, so a row may carry attributes named
        ``kind`` or ``self``.
        """
        if t is None:
            clock = self._clock
            if clock is None:
                raise RuntimeError("TraceRecorder has no clock bound; pass t=")
            t = clock()
        self._times.append(t)
        self._kinds.append(_intern(kind))
        self._attrs.append(attrs)

    # ------------------------------------------------------------------
    # index maintenance
    # ------------------------------------------------------------------

    def _kind_positions(self) -> Dict[str, List[int]]:
        """The per-kind index (kind -> row positions, ascending), advanced
        to cover every row recorded so far.  Amortized O(1) per recorded
        row across all queries."""
        kinds = self._kinds
        upto = self._kind_upto
        if upto < len(kinds):
            index = self._kind_index
            for position, kind in enumerate(kinds[upto:], upto):
                try:
                    index[kind].append(position)
                except KeyError:
                    index[kind] = [position]
            self._kind_upto = len(kinds)
        return self._kind_index

    def _matching(self, positions: Sequence[int],
                  attr_filter: Dict[str, Any]) -> Sequence[int]:
        """The subset of ``positions`` whose attrs equal ``attr_filter``."""
        if not attr_filter:
            return positions
        attrs = self._attrs
        wanted = attr_filter.items()
        return [position for position in positions
                if all(attrs[position].get(k) == v for k, v in wanted)]

    def _select(self, kind: Optional[str],
                attr_filter: Dict[str, Any]) -> Sequence[int]:
        """Positions of the rows an exact-kind query matches."""
        if kind is None:
            positions: Sequence[int] = range(len(self._times))
        else:
            positions = self._kind_positions().get(kind, ())
        return self._matching(positions, attr_filter)

    def _view(self, position: int) -> TraceEntry:
        return TraceEntry(self._times[position], self._kinds[position],
                          self._attrs[position])

    def _views(self, positions: Iterable[int]) -> List[TraceEntry]:
        times, kinds, attrs = self._times, self._kinds, self._attrs
        return [TraceEntry(times[position], kinds[position], attrs[position])
                for position in positions]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TraceEntry]:
        return map(TraceEntry, self._times, self._kinds, self._attrs)

    def entries(self, kind: Optional[str] = None, **attr_filter: Any) -> List[TraceEntry]:
        """Entries matching an exact kind and attribute equality filters."""
        return self._views(self._select(kind, attr_filter))

    def iter_subscribed(self, kinds: Iterable[str] = (),
                        prefixes: Iterable[str] = ()) -> Iterator[TraceEntry]:
        """Capture-ordered entries whose kind is in ``kinds`` or starts
        with one of ``prefixes``.

        A subscription helper for callers that want views of a few
        kinds (the oracle's :func:`~repro.oracle.invariants.evaluate`
        walks :meth:`rows` instead).  Prefix subscriptions are resolved
        to the concrete kinds recorded so far through the per-kind index,
        so the common cases stay cheap: an unrecorded subscription costs
        nothing, a single-kind subscription walks its index bucket
        directly (O(matches)), and a multi-kind subscription does one
        interned-set membership test per row.
        """
        index = self._kind_positions()
        resolved = {kind for kind in (_intern(k) for k in kinds)
                    if kind in index}
        for prefix in prefixes:
            resolved.update(kind for kind in index
                            if kind.startswith(prefix))
        if not resolved:
            return
        if len(resolved) == 1:
            kind, = resolved
            times, attrs = self._times, self._attrs
            for position in index[kind]:
                yield TraceEntry(times[position], kind, attrs[position])
            return
        for time, kind, attrs in zip(self._times, self._kinds, self._attrs):
            if kind in resolved:
                yield TraceEntry(time, kind, attrs)

    def kinds(self) -> Set[str]:
        """The distinct kinds recorded so far (one C-level pass over the
        kinds column; the per-kind index is not built)."""
        return set(self._kinds)

    def times(self, kind: str, **attr_filter: Any) -> List[float]:
        """Timestamps of matching entries, in capture order."""
        times = self._times
        return [times[position]
                for position in self._select(kind, attr_filter)]

    def intervals(self, kind: str, **attr_filter: Any) -> List[float]:
        """Successive differences between matching entries' timestamps.

        This is how retransmission-interval series (Figure 4) are derived
        from raw retransmit events.
        """
        times = self.times(kind, **attr_filter)
        return [b - a for a, b in zip(times, times[1:])]

    def count(self, kind: str, **attr_filter: Any) -> int:
        """Number of matching entries."""
        return len(self._select(kind, attr_filter))

    def first(self, kind: str, **attr_filter: Any) -> Optional[TraceEntry]:
        """Earliest matching entry, or None."""
        matches = self._select(kind, attr_filter)
        return self._view(matches[0]) if matches else None

    def last(self, kind: str, **attr_filter: Any) -> Optional[TraceEntry]:
        """Latest matching entry, or None."""
        matches = self._select(kind, attr_filter)
        return self._view(matches[-1]) if matches else None

    def count_by_kind(self, prefix: str = "") -> Dict[str, int]:
        """``{kind: count}`` over the captured entries.

        The cheap aggregate behind ``repro report`` summaries and
        :func:`repro.obs.report.trace_metrics`.  Kinds appear in
        first-capture order, as they always have.
        """
        return {kind: len(bucket)
                for kind, bucket in self._kind_positions().items()
                if not prefix or kind.startswith(prefix)}

    @property
    def position(self) -> int:
        """The current append position (== number of entries so far).

        Checkpoints store this to know where a captured prefix ends;
        :meth:`fork` at it continues from there.
        """
        return len(self._times)

    def rows(self, position: int = 0) -> Iterator[Tuple[float, str, dict]]:
        """``(time, kind, attrs)`` of each row at or after ``position``,
        straight from the columns as they stand now: no entry view is
        built (what a renderer, or a digest of a forked prefix, reads)."""
        return zip(self._times[position:], self._kinds[position:],
                   self._attrs[position:])

    def fork(self, position: Optional[int] = None) -> "TraceRecorder":
        """A new recorder continuing from this one's first ``position``
        entries.

        The columns are sliced, so the prefix's attrs *dicts* are shared
        -- rows are write-once on the capture path, so a forked
        continuation appending its own rows never disturbs the parent
        (and vice versa), while the checkpoint layer avoids deep-copying
        a potentially long prefix on every fork.  The fork has no clock
        bound; bind one before recording.  A fork at a position is also
        how a trace rewinds: the rows after it are not in the fork.
        """
        if position is None:
            position = len(self)
        elif not 0 <= position <= len(self):
            raise ValueError(
                f"fork position {position} outside [0, {len(self)}]")
        clone = TraceRecorder()
        clone._times = self._times[:position]
        clone._kinds = self._kinds[:position]
        clone._attrs = self._attrs[:position]
        return clone

    def clear(self) -> None:
        """Drop all captured entries (and the indexes built over them)."""
        self._times.clear()
        self._kinds.clear()
        self._attrs.clear()
        self._kind_index.clear()
        self._kind_upto = 0

    def dump(self, kind_prefix: str = "") -> str:
        """Human-readable rendering, optionally restricted by kind prefix."""
        lines = [repr(e) for e in self if e.kind.startswith(kind_prefix)]
        return "\n".join(lines)
