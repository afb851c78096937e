"""Fold a fabric campaign directory's journals into one summary.

A fabric sweep's record is spread over one coordinator journal (sweep
lifecycle, cached rows, lease losses) and one journal per shard lease
(``shard-NNNN-tryA-WORKER.jsonl``: run starts/ends, prefix captures); a
local sweep's directory holds the coordinator journal alone, with its
runs and captures in it.  :func:`merge_campaign_dir` folds each file
once -- the coordinator's one summary gives the lifecycle as well as its
rows -- into a single :class:`~repro.obs.campaign_report.CampaignSummary`
the existing renderers -- scorecard text, JSON, HTML, and the merged
per-group capture-hits table -- consume unchanged.

Deduplication is by configuration index: a shard that was stolen but
whose original holder finished anyway yields two rows for the same
index, and a resumed attempt re-journals completed rows as cached hits.
Determinism makes every duplicate byte-identical on
:meth:`~repro.obs.campaign_report.RunRow.stable_key`, so the merge keeps
the first row per index in deterministic file order and the result is
the serial sweep's scorecard exactly -- which is the fabric's acceptance
oracle, not a convenience.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Union

from repro.obs.campaign_report import (CampaignSummary, RunRow,
                                       summarize_journal)


def campaign_journals(path: Union[str, Path]) -> List[Path]:
    """The journal files of a campaign directory, coordinator first.

    Accepts the fabric directory itself (looks in its ``journals/``
    subdirectory) or a bare directory of journal files.  Shard journals
    sort by name, which orders them (shard id, attempt, worker) --
    deterministic regardless of which worker raced ahead.
    """
    root = Path(path)
    journals = root / "journals"
    if not journals.is_dir():
        journals = root
    files = sorted(p for p in journals.glob("*.jsonl") if p.is_file())
    coordinator = [p for p in files if p.name == "coordinator.jsonl"]
    shards = [p for p in files if p.name != "coordinator.jsonl"]
    return coordinator + shards


def merge_campaign_dir(path: Union[str, Path]) -> CampaignSummary:
    """One :class:`CampaignSummary` for a directory of shard journals.

    The coordinator journal's last flight provides the sweep lifecycle
    (``campaign.start`` payload, phases, end status, worker-loss
    events); every journal contributes run rows, captures and errors,
    deduplicated by config index.  Works on partial directories too --
    a killed sweep merges into an INTERRUPTED summary listing exactly
    the rows that were durably recorded, the same contract a
    single-file journal has under ``repro report --campaign``.
    """
    root = Path(path)
    files = campaign_journals(root)
    if not files:
        raise FileNotFoundError(
            f"no campaign journals (*.jsonl) under {root}")
    merged = CampaignSummary(path=root)
    rows: Dict[int, RunRow] = {}
    for file in files:
        # a shard journal has no campaign.start of its own; the same
        # fold still decodes its rows, so merged rows and single-journal
        # rows can never drift apart on stable keys
        summary = summarize_journal(file)
        if file.name == "coordinator.jsonl":
            merged.engine = summary.engine
            merged.schema = summary.schema
            merged.start = summary.start
            merged.end = summary.end
            merged.phases = summary.phases
            merged.duration_s = summary.duration_s
        for row in summary.runs:
            rows.setdefault(row.index, row)
        merged.checkpoints.extend(summary.checkpoints)
        merged.worker_errors.extend(summary.worker_errors)
        merged.torn_tail_bytes += summary.torn_tail_bytes
    merged.runs = [rows[index] for index in sorted(rows)]
    return merged
