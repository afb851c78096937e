"""repro.obs: the unified observability layer.

The paper derives every result from monitoring -- "each packet was logged
with a timestamp by the receive filter script" is the entire evidence
pipeline -- and this package is that pipeline grown up.  It threads four
capabilities through every layer of the toolchain:

- :mod:`~repro.obs.metrics` -- a labelled counter/gauge registry, the
  form ``repro report`` gives the counts it reads off a trace (the PFI
  layer's own record is the trace: its ``stats`` are read from there);
- :mod:`~repro.obs.lineage` -- causal parent->child message derivation
  reconstructed from a trace (duplicates, injections, retransmits), so
  "where did this packet come from?" has an answer;
- :mod:`~repro.obs.profiler` -- an opt-in tclish script profiler
  reporting per-command and per-script wall time, hooked into the
  compiled execution path;
- :mod:`~repro.obs.telemetry` -- per-configuration campaign timing
  (wall/virtual-time ratio, event counts) rendered as a scorecard;
- :mod:`~repro.obs.journal` -- the campaign flight recorder: a
  crash-safe, append-only JSONL event journal every long-running engine
  can attach (``journal=``), read back as a list of flights by one
  damage-tolerant reader behind every command;
- :mod:`~repro.obs.progress` -- the one shared live-progress renderer
  behind ``--progress`` everywhere;
- :mod:`~repro.obs.campaign_report` -- folds a journal into a summary,
  partial scorecard, JSON and self-contained HTML ranking fault
  scenarios by bug yield;
- :mod:`~repro.obs.history` -- content-addressed cross-run history with
  per-sweep deltas (``repro history``);
- :mod:`~repro.obs.chrometrace` / :mod:`~repro.obs.report` -- exporters:
  Chrome-trace/Perfetto JSON (simulator traces and campaign journals)
  and the ``repro report`` text rendering.

Everything here is read-side or explicitly opt-in: with no trace bound
and no profiler attached the instrumented hot paths stay guard-only (one
``is not None`` test, no allocation), and an engine with no journal
attached records into a no-op one (:data:`~repro.obs.journal
.NULL_JOURNAL`).
"""

from repro.obs.campaign_report import (CampaignSummary, rank_scenarios,
                                       render_html, render_text,
                                       summarize_journal, summary_to_json)
from repro.obs.chrometrace import (chrome_trace, dump_chrome_trace,
                                   journal_chrome_trace)
from repro.obs.history import HistoryRow, HistoryStore
from repro.obs.journal import (JOURNAL_KINDS, NULL_JOURNAL, SCHEMA_VERSION,
                               Flight, Journal, JournalEvent, JournalFlight,
                               JournalReplay, follow_journal, last_flight,
                               read_flights, replay_journal)
from repro.obs.lineage import Lineage, LineageNode
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.profiler import ScriptProfiler
from repro.obs.progress import ProgressRenderer, format_eta, rate_of
from repro.obs.report import render_report
from repro.obs.telemetry import (RunTelemetry, render_scorecard,
                                 render_scorecard_rows)

__all__ = [
    "JOURNAL_KINDS",
    "NULL_JOURNAL",
    "SCHEMA_VERSION",
    "CampaignSummary",
    "Counter",
    "Flight",
    "Gauge",
    "HistoryRow",
    "HistoryStore",
    "Journal",
    "JournalEvent",
    "JournalFlight",
    "JournalReplay",
    "Lineage",
    "LineageNode",
    "MetricsRegistry",
    "ProgressRenderer",
    "RunTelemetry",
    "ScriptProfiler",
    "chrome_trace",
    "dump_chrome_trace",
    "follow_journal",
    "format_eta",
    "journal_chrome_trace",
    "last_flight",
    "rank_scenarios",
    "rate_of",
    "read_flights",
    "render_html",
    "render_report",
    "render_scorecard",
    "render_scorecard_rows",
    "render_text",
    "replay_journal",
    "summarize_journal",
    "summary_to_json",
]
