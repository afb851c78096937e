"""Trace export/import: JSON-lines dumps for external analysis.

Experiments produce :class:`~repro.netsim.trace.TraceRecorder` objects;
this module serializes them to the JSON-lines format (one entry per line)
so runs can be archived, diffed between versions, or analyzed with
external tooling, and loads them back for offline queries.

Non-JSON-native attribute values (tuples, sets, bytes) are converted to
JSON-friendly forms on export; tuples come back as lists, which the
comparison helpers normalize.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any, Container, Dict, Iterable, Optional, Union

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


def _entry_dict(entry: TraceEntry,
                excluded: Container[str]) -> Dict[str, Any]:
    return {"t": entry.time, "kind": entry.kind,
            "attrs": {k: _jsonable(v) for k, v in entry.attrs.items()
                      if k not in excluded}}


def entry_to_dict(entry: TraceEntry, *,
                  exclude_attrs: Iterable[str] = ()) -> Dict[str, Any]:
    """One trace entry as a plain JSON-compatible dict."""
    return _entry_dict(entry, frozenset(exclude_attrs))


#: one encoder for every line (``json.dumps`` with options builds a new
#: one per call); ``sort_keys`` is what makes a line canonical
_encode_line = json.JSONEncoder(sort_keys=True).encode


def entry_line(entry: TraceEntry, excluded: Container[str] = ()) -> str:
    """One trace entry as its canonical JSON line.

    The only renderer of the JSON-lines format: :func:`dump_trace`,
    :func:`stream_trace`, :func:`traces_equal` and the explorer's
    incremental outcome digest all go through it, so their bytes cannot
    drift apart.  ``excluded`` is tested per attribute -- callers with
    a whole trace to render build one ``frozenset`` and pass it to
    every call.
    """
    return _encode_line(_entry_dict(entry, excluded))


def dump_trace(trace: Iterable[TraceEntry],
               fp: Optional[IO[str]] = None, *,
               exclude_attrs: Iterable[str] = ()) -> str:
    """Serialize a trace to JSON lines; returns the text (and writes to
    ``fp`` if given).

    ``exclude_attrs`` drops named attributes from every entry; pass
    :data:`VOLATILE_ATTRS` when the dump is for run-to-run comparison.
    """
    excluded = frozenset(exclude_attrs)
    lines = [entry_line(entry, excluded) for entry in trace]
    text = "\n".join(lines)
    if fp is not None:
        fp.write(text)
        if lines:
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
    buffer: list = []
    count = 0
    for entry in trace:
        buffer.append(entry_line(entry, excluded))
        count += 1
        if len(buffer) >= buffer_lines:
            fp.write("\n".join(buffer))
            fp.write("\n")
            buffer.clear()
    if buffer:
        fp.write("\n".join(buffer))
        fp.write("\n")
    return count


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
    return [entry_line(e) for e in a] == [entry_line(e) for e in b]
