"""``repro report``: the text rendering of an archived run.

Given any trace -- live, or loaded back from a JSON-lines archive with
:func:`repro.analysis.export.load_trace` -- this module produces the
run's scorecard in four sections:

1. **summary**: entry count, virtual-time span, distinct nodes;
2. **metrics**: per-kind event counts plus the PFI action counters
   reconstructed from the trace itself (drops, delays, duplicates,
   holds, releases, injections, per node);
3. **conformance** (with ``--oracle``): the invariant-pack verdict over
   the trace (see :mod:`repro.oracle`);
4. **lineage**: every derivation tree with at least one parent->child
   edge (see :mod:`repro.obs.lineage`);
5. **timeline**: the trace tail, one line per entry.

Everything is computed from the trace alone, so a run archived last
month reports identically to the live object it came from.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.netsim import kinds as K
from repro.netsim.trace import TraceEntry, TraceRecorder
from repro.obs.lineage import Lineage
from repro.obs.metrics import MetricsRegistry

#: pfi trace kind -> counter name recovered from an archived run: the
#: PFI layer's action stats, plus the message log
_PFI_KIND_COUNTERS = {kind: f"pfi_{name}" for kind, name in
                      {**K.PFI_ACTION_STATS, K.PFI_LOG: "logged"}.items()}


def trace_metrics(trace: Iterable[TraceEntry]) -> MetricsRegistry:
    """Reconstruct a metrics registry from trace entries alone.

    Produces ``trace_entries{kind=...}`` counters for every kind plus the
    per-node PFI action counters for ``pfi.*`` entries, named as
    :attr:`repro.core.pfi.PFILayer.stats` names them.
    """
    registry = MetricsRegistry()
    for entry in trace:
        registry.counter("trace_entries", kind=entry.kind).inc()
        counter = _PFI_KIND_COUNTERS.get(entry.kind)
        if counter is not None:
            registry.counter(counter,
                             node=entry.get("node", "unknown")).inc()
    return registry


def _section(title: str) -> str:
    return f"{title}\n{'-' * len(title)}"


def _summary(entries: List[TraceEntry]) -> str:
    if not entries:
        return "empty trace"
    t0 = min(e.time for e in entries)
    t1 = max(e.time for e in entries)
    nodes = sorted({str(e.get("node")) for e in entries
                    if e.get("node") is not None})
    kinds = {e.kind for e in entries}
    lines = [f"entries       : {len(entries)}",
             f"virtual span  : {t0:.3f} .. {t1:.3f} s "
             f"({t1 - t0:.3f} s)",
             f"event kinds   : {len(kinds)}"]
    if nodes:
        lines.append(f"nodes         : {', '.join(nodes)}")
    return "\n".join(lines)


def _timeline(entries: List[TraceEntry], tail: int) -> str:
    shown = entries[-tail:] if tail and len(entries) > tail else entries
    lines = []
    if len(shown) < len(entries):
        lines.append(f"... {len(entries) - len(shown)} earlier "
                     f"entries elided (--tail to widen)")
    lines.extend(repr(e) for e in shown)
    return "\n".join(lines) if lines else "(no entries)"


def render_report(trace: TraceRecorder, *, tail: int = 40,
                  kind_prefix: str = "",
                  max_lineage_roots: int = 20,
                  oracle=None) -> str:
    """The full text report for one run's trace.

    ``oracle`` (a list of :class:`~repro.oracle.Invariant` instances,
    e.g. from :func:`repro.oracle.packs_by_name`) adds a **conformance**
    section: the oracle verdict over the full trace, plus
    ``oracle_violations{code=...}`` counters in the metrics section.
    Evaluation always sees the unfiltered trace -- ``kind_prefix``
    narrows what is *displayed*, not what the invariants check.
    """
    entries = [e for e in trace if e.kind.startswith(kind_prefix)]
    lineage = Lineage.from_trace(entries)
    registry = trace_metrics(entries)

    oracle_block: Optional[Tuple[str, str]] = None
    if oracle is not None:
        from repro.oracle import evaluate
        report = evaluate(trace, oracle)
        report.fill_metrics(registry)
        oracle_block = ("conformance", report.render())

    blocks: List[Tuple[str, str]] = [("run summary", _summary(entries)),
                                     ("metrics", registry.render())]
    if oracle_block is not None:
        blocks.append(oracle_block)

    roots = lineage.roots()
    if roots:
        shown = roots[:max_lineage_roots]
        body = "\n".join(lineage.render(root) for root in shown)
        if len(roots) > len(shown):
            body += (f"\n... {len(roots) - len(shown)} more derivation "
                     f"tree(s)")
        header = (f"message lineage ({len(roots)} derivation root(s), "
                  f"{lineage.derived_count()} edge(s))")
        blocks.append((header, body))
    else:
        blocks.append(("message lineage",
                       "(no derived messages in this trace)"))

    blocks.append((f"timeline (last {min(tail, len(entries))} of "
                   f"{len(entries)} entries)", _timeline(entries, tail)))

    return "\n\n".join(f"{_section(title)}\n{body}"
                       for title, body in blocks)


def kind_counts(trace: Iterable[TraceEntry]) -> Dict[str, int]:
    """``{kind: count}`` over a trace, sorted by kind."""
    counts: Dict[str, int] = {}
    for entry in trace:
        counts[entry.kind] = counts.get(entry.kind, 0) + 1
    return dict(sorted(counts.items()))
