"""Fold a campaign journal into summaries, scorecards and reports.

A journal (:mod:`repro.obs.journal`) is the durable, append-ordered
record of one sweep; this module is its read side.
:func:`summarize_journal` folds the event stream into a
:class:`CampaignSummary` -- per-run rows, violation-code histogram,
phases, checkpoint captures, completion state, torn-tail forensics --
from which the renderers produce:

- :func:`render_text` -- the partial (or complete) scorecard.  For a
  sweep killed mid-run this reproduces exactly what the in-memory
  report knew at the moment of the last complete ``campaign.run_end``
  event, which is the acceptance contract of the flight recorder;
- :func:`summary_to_json` -- machine-readable form (``repro report
  --campaign --format json``), also what the history store
  (:mod:`repro.obs.history`) folds into its per-sweep rows;
- :func:`render_html` -- a self-contained single-file report ranking
  fault scenarios by bug yield.

Bug-yield ranking (:func:`rank_scenarios`) orders scenarios by what
they bought the campaign: oracle violations first (weight 10 per
violation), then coverage keys the run contributed, then outcome
rarity -- a run whose violation-code signature is shared by few other
runs outranks one reproducing a common outcome (``1/frequency``).
"""

from __future__ import annotations

import hashlib
import html as _html
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.netsim import kinds as K
from repro.obs.journal import (SCHEMA_VERSION, JournalFlight, JournalReplay,
                               last_flight)
from repro.obs.progress import rate_of

#: ranking weight of one oracle violation, relative to one coverage key
VIOLATION_WEIGHT = 10.0


@dataclass
class RunRow:
    """One executed configuration/case/schedule, replayed."""

    index: int
    label: str
    t: float
    target: Optional[str] = None
    codes: List[str] = field(default_factory=list)
    violations: int = 0
    new_coverage: int = 0
    corpus: bool = False
    cached: bool = False
    ok: bool = True
    outcome: Optional[str] = None
    telemetry: Optional[Dict[str, Any]] = None
    data: Dict[str, Any] = field(default_factory=dict)

    def stable_key(self) -> Tuple:
        """The wall-clock-free identity of this row.

        Two replays of the same deterministic sweep agree on this key
        even though ``t`` and telemetry wall times differ -- the
        kill-and-replay test compares prefixes of these.
        """
        return (self.index, self.label, self.target, tuple(self.codes),
                self.violations, self.new_coverage, self.corpus,
                self.ok, self.outcome)


@dataclass
class CampaignSummary:
    """Everything one journal says about its sweep."""

    path: Optional[Path]
    engine: str = "unknown"
    schema: Optional[int] = None
    start: Dict[str, Any] = field(default_factory=dict)
    runs: List[RunRow] = field(default_factory=list)
    worker_errors: List[Dict[str, Any]] = field(default_factory=list)
    checkpoints: List[Dict[str, Any]] = field(default_factory=list)
    shrink_steps: int = 0
    #: (name, start t, end t or None) per recorded phase span
    phases: List[Tuple[str, float, Optional[float]]] = field(
        default_factory=list)
    end: Optional[Dict[str, Any]] = None
    duration_s: float = 0.0
    torn_tail_bytes: int = 0

    # -- derived ---------------------------------------------------------

    @property
    def status(self) -> Optional[str]:
        """How the flight ended -- its ``campaign.end`` status -- or
        ``None`` when it never did (killed: no ``campaign.end``)."""
        return None if self.end is None else str(self.end.get("status", "ok"))

    @property
    def completed(self) -> bool:
        """True only for a flight that ended ``ok``: one that was
        refused, raised or lost its workers ended, but did not complete."""
        return self.status == "ok"

    @property
    def executed(self) -> int:
        return len(self.runs)

    @property
    def total(self) -> Optional[int]:
        for key in ("budget", "configs", "max_schedules"):
            value = self.start.get(key)
            if isinstance(value, int):
                return value
        return None

    @property
    def findings(self) -> List[RunRow]:
        return [row for row in self.runs if row.codes]

    @property
    def coverage_total(self) -> int:
        latest = 0
        for row in self.runs:
            value = row.data.get("coverage_total")
            if isinstance(value, int):
                latest = value
        return latest

    @property
    def corpus_size(self) -> int:
        return sum(1 for row in self.runs if row.corpus)

    @property
    def rate(self) -> float:
        """Runs per wall second, from journal timestamps."""
        return rate_of(self.executed, self.duration_s)

    def codes_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for row in self.runs:
            for code in row.codes:
                histogram[code] = histogram.get(code, 0) + 1
        return histogram

    def prefix_sharing(self) -> Optional[Dict[str, Any]]:
        """Amortization scorecard when the sweep ran prefix-grouped.

        Folds the grouped dispatcher's journal trail -- capture events
        carrying a ``prefix`` key, run rows flagged ``forked``, and the
        ``campaign.end`` counters -- into per-group "capture hits /
        forks" rows; cold fallbacks default to the prefixed rows that
        were neither forked nor cached.  ``None`` for sweeps that never
        grouped (flat campaigns), so renderers stay byte-identical for
        historical journals.
        """
        captures = [c for c in self.checkpoints if c.get("prefix")]
        rows = [row for row in self.runs
                if row.data.get("prefix") is not None]
        end = self.end or {}
        if not captures and not rows and "prefix_captures" not in end:
            return None
        groups: Dict[str, Dict[str, int]] = {}

        def group(key: str) -> Dict[str, int]:
            return groups.setdefault(
                key, {"captures": 0, "runs": 0, "forks": 0, "cached": 0})

        for capture in captures:
            group(str(capture.get("prefix")))["captures"] += 1
        for row in rows:
            stats = group(str(row.data["prefix"]))
            stats["runs"] += 1
            if row.data.get("forked"):
                stats["forks"] += 1
            if row.cached:
                stats["cached"] += 1
        return {
            "captures": int(end.get("prefix_captures", len(captures))),
            "forks": int(end.get("prefix_forks",
                                 sum(g["forks"]
                                     for g in groups.values()))),
            "fallbacks": int(end.get("prefix_fallbacks", sum(
                g["runs"] - g["forks"] - g["cached"]
                for g in groups.values()))),
            "groups": groups,
        }

    def fingerprint(self) -> str:
        """Content hash of the sweep configuration (not its outcome).

        Two sweeps with the same engine and ``campaign.start`` payload
        are runs of the same experiment; the history store uses this to
        pair sweeps for delta reporting.
        """
        payload = {k: v for k, v in sorted(self.start.items())}
        blob = json.dumps({"engine": self.engine, "start": payload},
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def summarize_journal(source: Union[str, Path, JournalFlight,
                                    JournalReplay]) -> CampaignSummary:
    """Fold one flight (a path or a replay: its last flight) into a
    :class:`CampaignSummary`.

    A journal resumed many times costs one flight to fold
    (:func:`~repro.obs.journal.last_flight`), and damage before the
    last ``campaign.start`` (a torn line an earlier flight left) cannot
    hide the flight.
    """
    flight = (source.flights[-1] if isinstance(source, JournalReplay)
              else source if isinstance(source, JournalFlight)
              else last_flight(source))
    summary = CampaignSummary(path=flight.path)
    open_phases: Dict[str, float] = {}
    for event in flight.events:
        data = event.data
        if event.kind == K.CAMPAIGN_START:
            summary.engine = str(data.get("engine", "unknown"))
            summary.schema = data.get("schema")
            summary.start = {k: v for k, v in data.items()
                             if k not in ("engine", "schema")}
        elif event.kind == K.CAMPAIGN_RUN_END:
            summary.runs.append(RunRow(
                index=int(data.get("index", len(summary.runs))),
                label=str(data.get("label", data.get("case", "?"))),
                t=event.t,
                target=data.get("target"),
                codes=[str(c) for c in data.get("codes", [])],
                violations=int(data.get("violations", 0)),
                new_coverage=int(data.get("new_coverage", 0)),
                corpus=bool(data.get("corpus", False)),
                cached=bool(data.get("cached", False)),
                ok=bool(data.get("ok", not data.get("codes"))),
                outcome=data.get("outcome"),
                telemetry=data.get("telemetry"),
                data=data))
        elif event.kind == K.CAMPAIGN_WORKER_ERROR:
            summary.worker_errors.append(data)
        elif event.kind == K.CAMPAIGN_CHECKPOINT_CAPTURE:
            summary.checkpoints.append(data)
        elif event.kind == K.CAMPAIGN_SHRINK_STEP:
            summary.shrink_steps += 1
        elif event.kind == K.CAMPAIGN_PHASE_START:
            open_phases[str(data.get("name", "?"))] = event.t
        elif event.kind == K.CAMPAIGN_PHASE_END:
            name = str(data.get("name", "?"))
            summary.phases.append((name, open_phases.pop(name, event.t),
                                   event.t))
        elif event.kind == K.CAMPAIGN_END:
            summary.end = data
        summary.duration_s = event.t
    for name, started in open_phases.items():
        summary.phases.append((name, started, None))
    if flight.torn is not None:
        summary.torn_tail_bytes = len(flight.torn)
    return summary


# ----------------------------------------------------------------------
# bug-yield ranking
# ----------------------------------------------------------------------

@dataclass
class RankedScenario:
    """One scenario with its bug-yield decomposition."""

    row: RunRow
    rarity: float
    score: float


def rank_scenarios(summary: CampaignSummary,
                   limit: Optional[int] = None) -> List[RankedScenario]:
    """Scenarios ordered by bug yield, best first.

    ``score = violations * 10 + coverage keys contributed + 1/outcome
    frequency``: violations dominate, coverage breaks ties among clean
    runs, and a rare outcome signature (violation codes + outcome hash)
    outranks a common one.  Deterministic: ties resolve by run index.
    """
    frequency: Dict[Tuple, int] = {}
    for row in summary.runs:
        signature = (tuple(row.codes), row.outcome)
        frequency[signature] = frequency.get(signature, 0) + 1
    ranked = []
    for row in summary.runs:
        rarity = 1.0 / frequency[(tuple(row.codes), row.outcome)]
        score = (row.violations * VIOLATION_WEIGHT + row.new_coverage
                 + rarity)
        ranked.append(RankedScenario(row=row, rarity=rarity, score=score))
    ranked.sort(key=lambda r: (-r.score, r.row.index))
    return ranked if limit is None else ranked[:limit]


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------

#: what each unsuccessful ``campaign.end`` status means for the operator
#: (docs/campaign-journal.md has the full table)
_STATUS_NOTES = {
    "preflight_failed": "refused before anything ran",
    "failed": "the engine raised; see worker errors",
    "worker_error": "the body raised in a worker; a resume raises it again",
    "workers_lost": "resumable: repro sweep --resume DIR",
    "spec_mismatch": "the directory holds a different sweep",
}


def _status_line(summary: CampaignSummary) -> str:
    """``completed`` for a flight that ended ``ok``, the status (and
    what it means) for one that ended any other way, ``INTERRUPTED``
    for one that never ended."""
    status = summary.status
    if status == "ok":
        return "completed"
    if status is not None:
        note = _STATUS_NOTES.get(status)
        return f"ended {status}" + (f" ({note})" if note else "")
    if summary.torn_tail_bytes:
        return (f"INTERRUPTED (torn tail: {summary.torn_tail_bytes} "
                f"bytes cut mid-append)")
    return "INTERRUPTED (no campaign.end recorded)"


def _scorecard_lines(summary: CampaignSummary) -> List[str]:
    """The engine-shaped scorecard body, one line per headline number."""
    total = summary.total
    progress = (f"{summary.executed}/{total}" if total is not None
                else f"{summary.executed}")
    parts = [f"executed {progress} runs"]
    if any(row.data.get("coverage_total") is not None
           for row in summary.runs):
        parts.append(f"coverage {summary.coverage_total} keys")
        parts.append(f"corpus {summary.corpus_size}")
    parts.append(f"findings {len(summary.findings)}")
    if summary.duration_s > 0:
        parts.append(f"{summary.rate:.1f} runs/s")
    lines = ["  " + ", ".join(parts)]
    for row in summary.findings:
        target = f" [target={row.target}]" if row.target else ""
        lines.append(f"    {row.label}{target} -> {','.join(row.codes)} "
                     f"({row.violations} violations)")
    return lines


def _telemetry_table(summary: CampaignSummary) -> List[str]:
    """A per-run telemetry scorecard when run_end events carried one."""
    rows = [(row.label, row.telemetry) for row in summary.runs
            if row.telemetry is not None]
    if not rows:
        return []
    from repro.obs.telemetry import RunTelemetry, render_scorecard_rows
    return ["", render_scorecard_rows(
        [(label, RunTelemetry.from_dict(telemetry))
         for label, telemetry in rows])]


def plans_line(census) -> str:
    """An exploration's plan census: ``plans: 47 of 54 singles, 0 of
    1,404 pairs`` from ``(run, existed)`` per plan size.

    Rendered here for both the live ``ExploreReport`` and the replayed
    ``campaign.end`` payload, so the two cannot disagree.
    """
    sizes = ("singles", "pairs")
    return "plans: " + ", ".join(
        f"{run:,} of {existed:,} {sizes[size]}"
        for size, (run, existed) in enumerate(census))


def render_text(summary: CampaignSummary, *, rank: int = 10) -> str:
    """The flight-record scorecard, faithful to the journal's last event."""
    header = f"campaign flight record: {summary.engine}"
    described = ", ".join(
        f"{key}={summary.start[key]}" for key in
        ("protocol", "target", "seed", "checkpoint_depth")
        if summary.start.get(key) is not None)
    if described:
        header += f" ({described})"
    lines = [header,
             f"  schema {summary.schema}, {_status_line(summary)}"]
    lines.extend(_scorecard_lines(summary))
    if summary.worker_errors:
        lines.append(f"  worker errors: {len(summary.worker_errors)}")
    if summary.checkpoints:
        labels = ", ".join(str(c.get("label", "?"))
                           for c in summary.checkpoints)
        lines.append(f"  checkpoints captured: {labels}")
        fallback = Counter(name for c in summary.checkpoints
                           for name in c.get("fallback") or ())
        if fallback:
            # classes the clone plan copies with copy.deepcopy per fork
            lines.append("  fallback: " + " ".join(
                f"{name}×{fallback[name]}" for name in sorted(fallback)))
    sharing = summary.prefix_sharing()
    if sharing is not None:
        lines.append(f"  prefix sharing: {sharing['captures']} captures, "
                     f"{sharing['forks']} forked runs, "
                     f"{sharing['fallbacks']} cold fallbacks")
        if sharing["groups"]:
            lines.append("  prefix group                     "
                         "capture hits / forks")
            for key in sorted(sharing["groups"]):
                group = sharing["groups"][key]
                extra = (f", {group['cached']} cached"
                         if group["cached"] else "")
                lines.append(
                    f"    {key:<28} {group['captures']:>12} / "
                    f"{group['forks']} over {group['runs']} runs{extra}")
    end = summary.end or {}
    if end.get("simulated_events") is not None:
        # journals written before explore forked every schedule from
        # its root carry the checkpoint tree's counts
        tree = (f" ({end.get('ancestor_forks', 0)} ancestor forks, "
                f"{end['nested_captures']} nested checkpoints)"
                if "nested_captures" in end else "")
        lines.append(f"  simulated {end['simulated_events']} events{tree}")
    if end.get("plans"):
        lines.append(f"  {plans_line(end['plans'])}")
    if summary.shrink_steps:
        lines.append(f"  shrink probes: {summary.shrink_steps}")
    if summary.phases:
        spans = ", ".join(
            f"{name} {((end - start) if end is not None else summary.duration_s - start) * 1000:.0f}ms"
            for name, start, end in summary.phases)
        lines.append(f"  phases: {spans}")
    ranked = [r for r in rank_scenarios(summary, limit=rank)
              if r.score > 0]
    if ranked:
        lines.append("  top scenarios by bug yield:")
        for place, scenario in enumerate(ranked, 1):
            row = scenario.row
            verdict = ",".join(row.codes) if row.codes else "conformant"
            lines.append(
                f"    {place:>2}. {row.label:<32} {verdict:<24} "
                f"score {scenario.score:6.1f} "
                f"(viol {row.violations}, +cov {row.new_coverage}, "
                f"rarity {scenario.rarity:.2f})")
    lines.extend(_telemetry_table(summary))
    return "\n".join(lines)


def render_stable(summary: CampaignSummary) -> str:
    """The wall-clock-free scorecard: every deterministic row identity.

    Renders only :meth:`RunRow.stable_key` material (rows sorted by
    config index) plus the violation-code histogram -- no timestamps,
    rates, phase spans or capture counts, all of which legitimately
    differ between a serial run and a distributed or resumed one.  Two
    sweeps of the same campaign agree on this text byte for byte
    however they executed, which is the fabric's acceptance oracle
    (``tests/fabric/``): serial == sockets == killed-and-resumed.
    """
    rows = sorted(summary.runs, key=lambda row: row.index)
    lines = [f"stable scorecard: {len(rows)} rows, "
             f"{sum(1 for row in rows if row.codes)} findings"]
    for row in rows:
        verdict = ",".join(row.codes) if row.codes else "conformant"
        target = f" target={row.target}" if row.target else ""
        outcome = f" outcome={row.outcome}" if row.outcome else ""
        lines.append(
            f"  [{row.index:>4}] {row.label:<36} {verdict:<24} "
            f"viol={row.violations} +cov={row.new_coverage} "
            f"corpus={int(row.corpus)} ok={int(row.ok)}"
            f"{target}{outcome}")
    histogram = summary.codes_histogram()
    for code in sorted(histogram):
        lines.append(f"  code {code}: {histogram[code]}")
    return "\n".join(lines)


def summary_to_json(summary: CampaignSummary, *, rank: int = 10
                    ) -> Dict[str, Any]:
    """Machine-readable summary (also the history store's row source)."""
    return {
        "schema": summary.schema if summary.schema is not None
        else SCHEMA_VERSION,
        "engine": summary.engine,
        "start": summary.start,
        "fingerprint": summary.fingerprint(),
        "completed": summary.completed,
        "status": summary.status,
        "torn_tail_bytes": summary.torn_tail_bytes,
        "duration_s": summary.duration_s,
        "executed": summary.executed,
        "total": summary.total,
        "findings": len(summary.findings),
        "coverage_total": summary.coverage_total,
        "corpus_size": summary.corpus_size,
        "rate_per_s": round(summary.rate, 3),
        "codes": summary.codes_histogram(),
        "worker_errors": summary.worker_errors,
        "checkpoints": summary.checkpoints,
        "prefix_sharing": summary.prefix_sharing(),
        "shrink_steps": summary.shrink_steps,
        "phases": [{"name": name, "start_s": start, "end_s": end}
                   for name, start, end in summary.phases],
        "runs": [
            {"index": row.index, "label": row.label, "target": row.target,
             "codes": row.codes, "violations": row.violations,
             "new_coverage": row.new_coverage, "corpus": row.corpus,
             "cached": row.cached, "ok": row.ok, "outcome": row.outcome,
             "telemetry": row.telemetry}
            for row in summary.runs],
        "ranking": [
            {"index": s.row.index, "label": s.row.label,
             "codes": s.row.codes, "violations": s.row.violations,
             "new_coverage": s.row.new_coverage,
             "rarity": round(s.rarity, 4), "score": round(s.score, 3)}
            for s in rank_scenarios(summary, limit=rank)],
    }


_HTML_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; color: #1a1a1a; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; font-size: 0.85rem; }
th, td { text-align: left; padding: 0.3rem 0.6rem;
         border-bottom: 1px solid #ddd; }
th { background: #f5f5f5; } tr:hover td { background: #fafafa; }
.bad { color: #b00020; font-weight: 600; }
.ok { color: #2e7d32; }
.muted { color: #777; }
.banner { padding: 0.5rem 0.8rem; border-radius: 4px; margin: 1rem 0; }
.banner.completed { background: #e8f5e9; }
.banner.interrupted { background: #fff3e0; }
.banner.failed { background: #ffebee; }
"""


def render_html(summary: CampaignSummary, *, rank: int = 20) -> str:
    """A self-contained single-file HTML report (no external assets)."""
    esc = _html.escape
    title = f"campaign flight record: {summary.engine}"
    status = _status_line(summary)
    banner_class = ("completed" if summary.completed
                    else "interrupted" if summary.status is None
                    else "failed")
    rows: List[str] = []
    for place, scenario in enumerate(rank_scenarios(summary, limit=rank), 1):
        row = scenario.row
        verdict = (f'<span class="bad">{esc(",".join(row.codes))}</span>'
                   if row.codes else '<span class="ok">conformant</span>')
        rows.append(
            f"<tr><td>{place}</td><td>{esc(row.label)}</td>"
            f"<td>{esc(row.target or '-')}</td><td>{verdict}</td>"
            f"<td>{row.violations}</td><td>{row.new_coverage}</td>"
            f"<td>{scenario.rarity:.2f}</td><td>{scenario.score:.1f}</td>"
            f"</tr>")
    codes = summary.codes_histogram()
    code_rows = "".join(
        f"<tr><td>{esc(code)}</td><td>{count}</td></tr>"
        for code, count in sorted(codes.items(),
                                  key=lambda kv: (-kv[1], kv[0])))
    phase_rows = "".join(
        f"<tr><td>{esc(name)}</td><td>{start:.3f}</td>"
        f"<td>{'-' if end is None else f'{end:.3f}'}</td></tr>"
        for name, start, end in summary.phases)
    start_rows = "".join(
        f"<tr><td>{esc(str(key))}</td><td>{esc(str(value))}</td></tr>"
        for key, value in sorted(summary.start.items()))
    sharing = summary.prefix_sharing()
    sharing_section = ""
    if sharing is not None:
        sharing_rows = "".join(
            f"<tr><td>{esc(key)}</td><td>{group['captures']}</td>"
            f"<td>{group['forks']}</td><td>{group['runs']}</td>"
            f"<td>{group['cached']}</td></tr>"
            for key, group in sorted(sharing["groups"].items()))
        sharing_section = f"""
<h2>Prefix sharing</h2>
<p class="muted">{sharing['captures']} captures &middot;
 {sharing['forks']} forked runs &middot;
 {sharing['fallbacks']} cold fallbacks</p>
<table><thead><tr><th>prefix group</th><th>capture hits</th>
<th>forks</th><th>runs</th><th>cached</th></tr></thead>
<tbody>{sharing_rows or
        '<tr><td colspan="5" class="muted">none</td></tr>'}</tbody></table>"""
    total = summary.total
    progress = (f"{summary.executed}/{total}" if total is not None
                else str(summary.executed))
    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>{esc(title)}</title><style>{_HTML_STYLE}</style></head><body>
<h1>{esc(title)}</h1>
<div class="banner {banner_class}">{esc(status)} &middot;
 schema {summary.schema} &middot; {progress} runs &middot;
 {len(summary.findings)} finding(s) &middot;
 coverage {summary.coverage_total} keys &middot;
 {summary.rate:.1f} runs/s</div>
<h2>Configuration</h2>
<table><tbody>{start_rows}</tbody></table>
<h2>Scenarios ranked by bug yield</h2>
<p class="muted">score = violations &times; {VIOLATION_WEIGHT:g}
 + coverage keys contributed + 1/outcome frequency</p>
<table><thead><tr><th>#</th><th>scenario</th><th>target</th>
<th>verdict</th><th>violations</th><th>+coverage</th><th>rarity</th>
<th>score</th></tr></thead><tbody>{"".join(rows)}</tbody></table>
<h2>Violations by code</h2>
<table><thead><tr><th>code</th><th>runs</th></tr></thead>
<tbody>{code_rows or '<tr><td colspan="2" class="ok">none</td></tr>'}</tbody>
</table>
{sharing_section}
<h2>Campaign phases</h2>
<table><thead><tr><th>phase</th><th>start&nbsp;s</th><th>end&nbsp;s</th>
</tr></thead><tbody>{phase_rows or
                     '<tr><td colspan="3" class="muted">none recorded</td></tr>'}</tbody></table>
<p class="muted">generated by repro.obs.campaign_report from
 {esc(str(summary.path or 'journal'))}</p>
</body></html>
"""
