"""Trace export/import: JSON-lines dumps for external analysis.

Experiments produce :class:`~repro.netsim.trace.TraceRecorder` objects;
this module serializes them to the JSON-lines format (one entry per line)
so runs can be archived, diffed between versions, or analyzed with
external tooling, and loads them back for offline queries.

Non-JSON-native attribute values (tuples, sets, bytes) are converted to
JSON-friendly forms on export; tuples come back as lists, which the
comparison helpers normalize.

:func:`render_rows` renders every line.  A row whose time, kind and
attribute values are exact JSON scalars (``str``, ``int``, ``float``,
``bool``, ``None``; no subclasses) goes to the encoder unconverted, in one
list with its scalar neighbours, split back into lines at the row
boundary ``}, {"attrs": {``.  No scalar row contains it: outside strings
its only braces are its own and its attrs', and inside one the encoder
escapes every quote.  Any other row is converted and encoded alone.
"""

from __future__ import annotations

import json
from itertools import islice
from pathlib import Path
from typing import IO, Any, Dict, Iterable, Iterator, Optional, Union

from repro.netsim.trace import TraceEntry, TraceRecorder


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool, type(None))):
        return value
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def _from_jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"__bytes__"}:
            return bytes.fromhex(value["__bytes__"])
        return {k: _from_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_from_jsonable(v) for v in value]
    return value


#: attributes that are process-global bookkeeping rather than experiment
#: state: message uids keep counting across runs in one process, so two
#: otherwise-identical runs differ in them.  ``original`` and ``parent``
#: are lineage edges (uid-valued) and share the same volatility.
VOLATILE_ATTRS = ("uid", "original", "parent")


def _entry_dict(time: float, kind: str, attrs: Dict[str, Any],
                excluded: frozenset) -> Dict[str, Any]:
    return {"t": time, "kind": kind,
            "attrs": {k: _jsonable(v) for k, v in attrs.items()
                      if k not in excluded}}


def entry_to_dict(entry: TraceEntry, *,
                  exclude_attrs: Iterable[str] = ()) -> Dict[str, Any]:
    """One trace entry as a plain JSON-compatible dict."""
    return _entry_dict(entry.time, entry.kind, entry.attrs,
                       frozenset(exclude_attrs))


#: value types rendered alike with and without ``_jsonable``, and never
#: as the row boundary, which ``sort_keys`` puts before ``attrs``
_SCALARS = frozenset((str, int, float, bool, type(None)))
_ROW_BREAK, _LINE_BREAK = '}, {"attrs": {', '}\n{"attrs": {'


#: value types no value of another type equals: ``True == 1 == 1.0``
#: and ``0.0 == -0.0`` render apart, so bools and floats are left out
_EXACT = frozenset((str, int, type(None)))


def line_key(time: Any, kind: Any, attrs: Dict[str, Any],
             excluded: frozenset) -> Optional[tuple]:
    """A hashable key two rows share only if :func:`render_rows` renders
    them to the same line, or ``None`` for a row it does not key.

    A row is keyed when its time is a positive float (so neither a zero,
    whose sign its line shows, nor NaN), its kind a ``str`` and every
    attribute value an :data:`_EXACT` type or a flat tuple of them: equal
    keys then hold values of equal types, which render alike.  A row
    with a bool, a float, a list, a nested tuple or any other attribute
    value is not keyed.  ``excluded`` attributes leave the key as they
    leave the line.  Attribute names are ``str``: rows are recorded with
    them as keywords.
    """
    if not excluded.isdisjoint(attrs):
        attrs = {k: v for k, v in attrs.items() if k not in excluded}
    if not (type(time) is float and time > 0.0 and type(kind) is str):
        return None
    values = attrs.values()
    if _EXACT.issuperset(map(type, values)) or all(
            type(v) in _EXACT
            or (type(v) is tuple and _EXACT.issuperset(map(type, v)))
            for v in values):
        return (time, kind, *attrs, *values)
    return None


#: one encoder for every line; ``sort_keys`` makes a line canonical, and
#: rows are acyclic (``_jsonable`` builds fresh values), so no cycle check
_encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode


def render_rows(rows: Iterable[tuple], excluded: Iterable[str] = ()) -> str:
    """``(time, kind, attrs)`` rows as canonical JSON lines joined by
    newlines: the one renderer behind :func:`entry_line`, :func:`dump_trace`,
    :func:`stream_trace`, :func:`traces_equal` and the explorer's outcome
    digest, so their bytes cannot drift apart."""
    excluded = frozenset(excluded)
    # runs of scalar rows (lists) and converted rows (dicts), in order
    pieces: list = []
    run = None
    for time, kind, attrs in rows:
        if (type(time) in _SCALARS and type(kind) in _SCALARS
                and _SCALARS.issuperset(map(type, attrs.values()))):
            if excluded and not excluded.isdisjoint(attrs):
                attrs = {k: v for k, v in attrs.items() if k not in excluded}
            if run is None:
                run = []
                pieces.append(run)
            run.append({"t": time, "kind": kind, "attrs": attrs})
        else:
            run = None
            pieces.append(_entry_dict(time, kind, attrs, excluded))
    return "\n".join(
        _encode(piece)[1:-1].replace(_ROW_BREAK, _LINE_BREAK)
        if type(piece) is list else _encode(piece)
        for piece in pieces)


def _rows(trace: Iterable[TraceEntry]) -> Iterator[tuple]:
    if isinstance(trace, TraceRecorder):
        return trace.rows()
    return ((entry.time, entry.kind, entry.attrs) for entry in trace)


def entry_line(entry: TraceEntry, excluded: Iterable[str] = ()) -> str:
    """One trace entry as its canonical JSON line."""
    return render_rows(((entry.time, entry.kind, entry.attrs),), excluded)


def dump_trace(trace: Iterable[TraceEntry],
               fp: Optional[IO[str]] = None, *,
               exclude_attrs: Iterable[str] = ()) -> str:
    """Serialize a trace to JSON lines; returns the text (and writes to
    ``fp`` if given).

    ``exclude_attrs`` drops named attributes from every entry; pass
    :data:`VOLATILE_ATTRS` when the dump is for run-to-run comparison.
    """
    text = render_rows(_rows(trace), exclude_attrs)
    if fp is not None:
        fp.write(text)
        if text:
            fp.write("\n")
    return text


def stream_trace(trace: Iterable[TraceEntry], fp: IO[str], *,
                 exclude_attrs: Iterable[str] = (),
                 buffer_lines: int = 1024) -> int:
    """Write a trace to ``fp`` as JSON lines without building the full text.

    Lines are flushed in batches of ``buffer_lines``, so exporting a
    million-entry campaign trace holds at most one batch of rendered lines
    in memory instead of the whole dump (:func:`dump_trace` materializes
    everything because it also returns the text).  The byte output is
    identical to ``dump_trace(trace, fp)``.  Returns the entry count.
    """
    excluded = frozenset(exclude_attrs)
    rows = _rows(trace)
    count = 0
    while True:
        batch = list(islice(rows, max(buffer_lines, 1)))
        if not batch:
            return count
        fp.write(render_rows(batch, excluded))
        fp.write("\n")
        count += len(batch)


def export_trace(trace: Iterable[TraceEntry], path: Union[str, Path], *,
                 exclude_attrs: Iterable[str] = ()) -> int:
    """Stream a trace to a JSONL file on disk; returns the entry count."""
    with open(path, "w", encoding="utf-8") as fp:
        return stream_trace(trace, fp, exclude_attrs=exclude_attrs)


def load_trace(source: Union[str, IO[str]]) -> TraceRecorder:
    """Parse JSON lines back into a queryable TraceRecorder."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = source
    trace = TraceRecorder(clock=lambda: 0.0)
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        attrs = {k: _from_jsonable(v)
                 for k, v in record.get("attrs", {}).items()}
        trace.record(record["kind"], t=record["t"], **attrs)
    return trace


def traces_equal(a: Iterable[TraceEntry], b: Iterable[TraceEntry]) -> bool:
    """Compare two traces modulo JSON round-trip normalization.

    Useful for regression pinning: run an experiment twice (or across
    versions) and assert the traces match exactly.
    """
    return render_rows(_rows(a)) == render_rows(_rows(b))
