"""Content-addressed cross-run history: sweeps compared across PRs.

One journal is one flight; the history store is the logbook.
:class:`HistoryStore` folds each recorded journal into a per-sweep
summary row (engine, config fingerprint, scorecard headline numbers,
coverage, duration) stored content-addressed under ``entries/<id>.json``
-- the id is the hash of the row itself, so re-recording an unchanged
sweep is a no-op and the store never holds two copies of one result.
An append-only ``index.jsonl`` keeps recording order; ``repro history``
renders the log with per-sweep deltas (findings, coverage, rate)
between consecutive recordings of the same experiment fingerprint,
which is how a PR shows what its change bought or cost.

Bench trajectories ride along: :meth:`HistoryStore.record_bench` folds
a ``BENCH_*.json`` payload into a row the same way, so benchmark
numbers become a tracked series instead of a file that overwrites
itself.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.netsim import kinds as K
from repro.obs.campaign_report import (CampaignSummary, summarize_journal,
                                       summary_to_json)
from repro.obs.journal import last_flight

#: fields a history row carries; bump when the row shape changes
ROW_VERSION = 2

#: headline metrics deltas are computed over, with render precision
_DELTA_FIELDS = (("findings", 0), ("coverage_total", 0), ("executed", 0),
                 ("rate_per_s", 1))


def _row_id(row: Dict[str, Any]) -> str:
    """Content address of a row: hash of its deterministic fields.

    Wall-clock fields (duration, rates, recording metadata) are
    excluded so the same deterministic sweep recorded twice maps to the
    same entry.
    """
    stable = {k: v for k, v in row.items()
              if k not in ("duration_s", "rate_per_s", "recorded", "id",
                           "version")}
    blob = json.dumps(stable, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class HistoryError(ValueError):
    """A file handed to the store is not the journal or benchmark payload
    it was named as; nothing is recorded."""


def journal_row(journal: Union[str, Path, CampaignSummary]
                ) -> Dict[str, Any]:
    """The history row of one campaign journal (path or summary).

    A path is folded as its last flight, as :func:`summarize_journal`
    folds it: after a resume the row is the flight ``repro report
    --campaign`` shows, whatever an earlier flight left torn before it.
    """
    if not isinstance(journal, CampaignSummary):
        flight = last_flight(journal)
        if not flight.of(K.CAMPAIGN_START):
            raise HistoryError(f"{journal}: not a campaign journal (no "
                               f"{K.CAMPAIGN_START} event)")
        journal = summarize_journal(flight)
    full = summary_to_json(journal)
    return {
        "kind": "campaign",
        "engine": full["engine"],
        "fingerprint": full["fingerprint"],
        "start": full["start"],
        "completed": full["completed"],
        "status": full["status"],
        "executed": full["executed"],
        "total": full["total"],
        "findings": full["findings"],
        "coverage_total": full["coverage_total"],
        "corpus_size": full["corpus_size"],
        "codes": full["codes"],
        "worker_errors": len(full["worker_errors"]),
        "shrink_steps": full["shrink_steps"],
        "duration_s": round(full["duration_s"], 4),
        "rate_per_s": full["rate_per_s"],
        "scorecard": [
            {"label": run["label"], "codes": run["codes"],
             "new_coverage": run["new_coverage"]}
            for run in full["runs"]],
    }


def bench_row(path: Union[str, Path]) -> Dict[str, Any]:
    """The history row of one ``BENCH_*.json`` payload."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except ValueError:
        payload = None
    if not isinstance(payload, dict):
        raise HistoryError(f"{path}: not a JSON benchmark payload")
    blob = json.dumps(payload, sort_keys=True)
    return {
        "kind": "bench",
        "engine": path.stem.lower(),
        "fingerprint": hashlib.sha256(
            path.stem.lower().encode()).hexdigest()[:16],
        "payload": payload,
        "findings": 0,
        "coverage_total": 0,
        "executed": 0,
        "rate_per_s": 0.0,
        "digest": hashlib.sha256(blob.encode()).hexdigest()[:16],
    }


@dataclass
class HistoryRow:
    """One recorded sweep (or bench payload), replayed from the store."""

    id: str
    data: Dict[str, Any] = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        return str(self.data.get("fingerprint", ""))

    @property
    def engine(self) -> str:
        return str(self.data.get("engine", "unknown"))

    def metric(self, key: str) -> Optional[float]:
        value = self.data.get(key)
        return float(value) if isinstance(value, (int, float)) else None


class HistoryStore:
    """A directory of content-addressed sweep summaries plus an index."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.entries = self.root / "entries"
        self.index = self.root / "index.jsonl"

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def put(self, row: Dict[str, Any]) -> HistoryRow:
        """Store one row (from :func:`journal_row` / :func:`bench_row`)."""
        row_id = _row_id(row)
        row = dict(row, id=row_id, version=ROW_VERSION)
        self.entries.mkdir(parents=True, exist_ok=True)
        entry = self.entries / f"{row_id}.json"
        fresh = not entry.exists()
        if fresh:
            entry.write_text(json.dumps(row, sort_keys=True, indent=1))
            with open(self.index, "a") as fp:
                fp.write(json.dumps({"id": row_id,
                                     "engine": row.get("engine"),
                                     "fingerprint": row.get("fingerprint")})
                         + "\n")
        return HistoryRow(id=row_id, data=row)

    def record_journal(self, journal: Union[str, Path, CampaignSummary]
                       ) -> HistoryRow:
        """Fold one journal (path or summary) into a history row.

        Idempotent: recording the same deterministic sweep twice adds
        nothing (the content address collides on purpose).
        """
        return self.put(journal_row(journal))

    def record_bench(self, path: Union[str, Path]) -> HistoryRow:
        """Fold one ``BENCH_*.json`` payload into a history row."""
        return self.put(bench_row(path))

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def rows(self) -> List[HistoryRow]:
        """Every recorded row, in recording order."""
        if not self.index.exists():
            return []
        out: List[HistoryRow] = []
        for line in self.index.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                pointer = json.loads(line)
            except ValueError:
                continue
            entry = self.entries / f"{pointer.get('id')}.json"
            if not entry.exists():
                continue
            data = json.loads(entry.read_text())
            out.append(HistoryRow(id=str(pointer.get("id")), data=data))
        return out

    def deltas(self) -> List[Dict[str, Any]]:
        """Per-sweep deltas: each row vs the previous same-fingerprint row.

        The fingerprint pairs recordings of the same experiment, so the
        delta column answers "what changed since the last time this
        sweep ran" -- across PRs when the store is committed, across
        reruns locally.
        """
        latest: Dict[str, HistoryRow] = {}
        out: List[Dict[str, Any]] = []
        for row in self.rows():
            previous = latest.get(row.fingerprint)
            delta: Dict[str, Any] = {}
            if previous is not None:
                for key, _digits in _DELTA_FIELDS:
                    now, before = row.metric(key), previous.metric(key)
                    if now is not None and before is not None:
                        delta[key] = now - before
            out.append({"row": row, "previous": previous, "delta": delta})
            latest[row.fingerprint] = row
        return out

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def render(self) -> str:
        """The history log, one line per recorded sweep, with deltas."""
        entries = self.deltas()
        if not entries:
            return f"history {self.root}: empty (no sweeps recorded)"
        lines = [f"history {self.root}: {len(entries)} recorded sweep(s)"]
        for position, entry in enumerate(entries, 1):
            row = entry["row"]
            parts = [f"{position:>3}. {row.engine:<10} {row.id}"]
            if row.data.get("kind") == "bench":
                parts.append("bench payload")
            else:
                total = row.data.get("total")
                executed = row.data.get("executed", 0)
                progress = (f"{executed}/{total}" if total is not None
                            else f"{executed}")
                parts.append(f"runs {progress}")
                parts.append(f"findings {row.data.get('findings', 0)}")
                parts.append(f"coverage {row.data.get('coverage_total', 0)}")
                if not row.data.get("completed", True):
                    # a flight that ended, but not ok, names how
                    parts.append(row.data.get("status") or "INTERRUPTED")
            delta = entry["delta"]
            if delta:
                shifts = []
                for key, digits in _DELTA_FIELDS:
                    value = delta.get(key)
                    if value:
                        shifts.append(f"{key} {value:+.{digits}f}")
                parts.append("delta vs previous: "
                             + (", ".join(shifts) if shifts else "none"))
            elif entry["previous"] is None and row.data.get("kind") != "bench":
                parts.append("first recording")
            lines.append("  ".join(parts))
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        """Machine-readable history (``repro history --json``)."""
        return {
            "root": str(self.root),
            "rows": [
                {"id": entry["row"].id,
                 "engine": entry["row"].engine,
                 "fingerprint": entry["row"].fingerprint,
                 "data": entry["row"].data,
                 "delta": entry["delta"],
                 "previous": (entry["previous"].id
                              if entry["previous"] else None)}
                for entry in self.deltas()],
        }
