"""The trace-invariant engine.

The paper's second payoff -- "identification of specification
violations" -- is mechanized here: an :class:`Invariant` subscribes to
trace kinds (exact names or dotted prefixes), consumes every subscribed
entry in capture order, and yields structured :class:`Violation` objects.
:func:`evaluate` runs a whole pack of invariants in **one pass** over the
trace's rows, dispatching each subscribed entry to its subscribers
through a kind-keyed table resolved against the kinds the trace
recorded (:meth:`~repro.netsim.trace.TraceRecorder.kinds`).

Invariants are stateful (they fold trace history per connection / per
node), so a pack is always a *factory* returning fresh instances --
``evaluate(trace, tcp_pack())`` -- never a shared list of singletons.

Violations are deterministic given a deterministic trace: messages must
never embed message ``uid`` values (those are process-global counters, see
:data:`repro.analysis.export.VOLATILE_ATTRS`); the uid travels in the
dedicated :attr:`Violation.uid` field and :meth:`Violation.fingerprint`
excludes it, which is what makes shrunk reproduction artifacts comparable
across processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.netsim.trace import TraceEntry, TraceRecorder

#: tolerance for floating-point timer comparisons (RTO doubling, probe
#: cadence): virtual times are exact in the simulator, but derived
#: quantities like ``rto_for(shift)`` go through float multiplication
EPS = 1e-9


@dataclass(frozen=True)
class Violation:
    """One specification violation found in a trace.

    ``uid`` is the lineage uid of the offending message when the trace
    entry carries one (PFI entries do; protocol entries identify
    themselves by ``conn``/``node``, surfaced as ``subject``).
    """

    code: str             # stable identifier, e.g. "TCP-STATE"
    message: str          # human-readable statement of what was violated
    time: float           # virtual time of the offending entry
    kind: str             # trace kind of the offending entry
    subject: str = ""     # connection name / node address the check keyed on
    uid: Optional[int] = None

    def fingerprint(self) -> Tuple[str, str, str, float, str]:
        """Identity for cross-process comparison.

        Excludes ``uid`` (a process-global counter that differs between
        otherwise byte-identical runs); everything else is deterministic
        for a deterministic trace.
        """
        return (self.code, self.subject, self.kind, self.time, self.message)

    def __str__(self) -> str:
        where = f" [{self.subject}]" if self.subject else ""
        return (f"{self.code}{where} at t={self.time:.6f} "
                f"({self.kind}): {self.message}")


class Invariant:
    """Base class for one declarative trace invariant.

    Subclasses declare their subscription (``kinds`` for exact trace
    kinds, ``prefixes`` for dotted-prefix families), then implement
    :meth:`on_entry` -- called once per subscribed entry in capture order
    -- and optionally :meth:`finish` for end-of-trace checks.  Both may
    return an iterable of violations or ``None``.
    """

    #: stable violation code, e.g. "TCP-RTO-BACKOFF"
    code: str = "INV"
    #: one-line statement of the invariant (shows up in reports/docs)
    description: str = ""
    #: exact trace kinds this invariant consumes
    kinds: Tuple[str, ...] = ()
    #: dotted kind prefixes this invariant consumes ("tcp." etc.)
    prefixes: Tuple[str, ...] = ()

    def on_entry(self, entry: TraceEntry) -> Optional[Iterable[Violation]]:
        return None

    def finish(self) -> Optional[Iterable[Violation]]:
        return None

    # ------------------------------------------------------------------
    # helpers for subclasses
    # ------------------------------------------------------------------

    def violation(self, entry: TraceEntry, message: str, *,
                  subject: str = "", code: Optional[str] = None) -> Violation:
        """Build a violation anchored on ``entry``."""
        return Violation(code=code or self.code, message=message,
                         time=entry.time, kind=entry.kind,
                         subject=subject or _subject_of(entry),
                         uid=entry.get("uid"))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} code={self.code}>"


def _subject_of(entry: TraceEntry) -> str:
    """Default subject: the connection name or node address, if present."""
    conn = entry.get("conn")
    if conn is not None:
        return str(conn)
    node = entry.get("node")
    if node is not None:
        return str(node)
    return ""


@dataclass
class OracleReport:
    """The outcome of evaluating an invariant pack over one trace."""

    violations: List[Violation] = field(default_factory=list)
    invariant_codes: Tuple[str, ...] = ()
    entries_scanned: int = 0
    trace_entries: int = 0

    def ok(self) -> bool:
        return not self.violations

    def by_code(self) -> Dict[str, List[Violation]]:
        grouped: Dict[str, List[Violation]] = {}
        for violation in self.violations:
            grouped.setdefault(violation.code, []).append(violation)
        return grouped

    def codes(self) -> Tuple[str, ...]:
        """Distinct violation codes, in first-occurrence order."""
        return tuple(self.by_code())

    def fingerprints(self) -> List[Tuple[str, str, str, float, str]]:
        return [violation.fingerprint() for violation in self.violations]

    def fill_metrics(self, registry, **labels: Any) -> None:
        """Absorb the verdict into a metrics registry.

        One ``oracle_violations`` counter per violation code plus the
        scan-volume gauges, so a campaign's conformance result lands in
        the same snapshot as its scheduler/trace series.
        """
        registry.gauge("oracle_entries_scanned", **labels).set(
            self.entries_scanned)
        registry.gauge("oracle_invariants", **labels).set(
            len(self.invariant_codes))
        for code, group in self.by_code().items():
            registry.counter("oracle_violations", code=code,
                             **labels).inc(len(group))

    def render(self) -> str:
        """Human-readable verdict block (used by ``repro report``)."""
        lines = [f"conformance: {len(self.invariant_codes)} invariant(s) "
                 f"over {self.entries_scanned}/{self.trace_entries} "
                 f"entries -> "
                 + ("OK" if self.ok() else
                    f"{len(self.violations)} violation(s)")]
        for code, group in sorted(self.by_code().items()):
            lines.append(f"  {code}: {len(group)}")
            for violation in group[:5]:
                lines.append(f"    {violation}")
            if len(group) > 5:
                lines.append(f"    ... {len(group) - 5} more")
        return "\n".join(lines)


def evaluate(trace: TraceRecorder,
             invariants: Iterable[Invariant]) -> OracleReport:
    """Run an invariant pack over a trace in one pass.

    Builds a kind -> subscribers dispatch table over the kinds the trace
    recorded (prefix subscriptions resolved against them), walks the
    rows once in capture order -- one table lookup per row, and an
    entry view only for a row someone subscribed to -- and collects
    every violation, ending with each invariant's
    :meth:`~Invariant.finish`.
    """
    pack = list(invariants)
    dispatch: Dict[str, List[Invariant]] = {}
    for kind in trace.kinds():
        for invariant in pack:
            if (kind in invariant.kinds
                    or kind.startswith(tuple(invariant.prefixes))):
                dispatch.setdefault(kind, []).append(invariant)

    subscribed = dispatch.get
    violations: List[Violation] = []
    scanned = 0
    for time, kind, attrs in trace.rows():
        subscribers = subscribed(kind)
        if subscribers is None:
            continue
        scanned += 1
        entry = TraceEntry(time, kind, attrs)
        for invariant in subscribers:
            found = invariant.on_entry(entry)
            if found:
                violations.extend(found)
    for invariant in pack:
        found = invariant.finish()
        if found:
            violations.extend(found)
    return OracleReport(violations=violations,
                        invariant_codes=tuple(inv.code for inv in pack),
                        entries_scanned=scanned,
                        trace_entries=len(trace))


class PfiScriptError(Invariant):
    """A filter script failed: the run ended on a ``TclError`` its own
    script raised (``pfi.script_error``), so the script is at fault,
    not the protocol."""

    code = "PFI-SCRIPT-ERROR"
    description = "the run's filter script ran without a script error"
    kinds = ("pfi.script_error",)

    def on_entry(self, entry: TraceEntry) -> Optional[Iterable[Violation]]:
        attrs = entry.attrs
        return [self.violation(
            entry, f"{attrs['direction']} filter, line {attrs['line']}: "
                   f"{attrs['message']}")]


def script_error_violations(trace: TraceRecorder) -> List[Violation]:
    """The ``PFI-SCRIPT-ERROR`` verdict on a run its filter script
    ended (see :func:`~repro.core.orchestrator.run_one`)."""
    return evaluate(trace, [PfiScriptError()]).violations


def describe(invariants: Iterable[Invariant]) -> Iterator[Tuple[str, str]]:
    """``(code, description)`` pairs for a pack (docs/CLI listings)."""
    for invariant in invariants:
        yield invariant.code, invariant.description
