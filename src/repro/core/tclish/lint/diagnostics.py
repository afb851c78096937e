"""Diagnostic objects produced by the tclish static analyzer.

A :class:`Diagnostic` pins one finding to a source position.  Codes are
stable identifiers (``SL001`` ...) so campaign logs, CI output and the
troubleshooting table in ``docs/scriptlint.md`` can reference them; the
default severity of each code lives in :data:`CODES` so callers can ask
"would this stop a campaign?" without string matching.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

#: severity levels, ordered weakest to strongest
INFO = "info"
WARNING = "warning"
ERROR = "error"

_SEVERITY_RANK = {INFO: 0, WARNING: 1, ERROR: 2}

#: code -> (default severity, short title)
#:
#: SL0xx are scriptlint (tclish) codes; SC1xx are the Python
#: determinism/checkpoint-safety pass and SC2xx the trace-schema drift
#: pass of :mod:`repro.staticcheck`.  All three passes share this table
#: (and :class:`Diagnostic`) so reports, SARIF export and the docs code
#: tables have one source of truth.
CODES: Dict[str, tuple] = {
    "SL000": (ERROR, "syntax error"),
    "SL001": (ERROR, "unknown command"),
    "SL002": (ERROR, "wrong number of arguments"),
    "SL003": (ERROR, "variable read before it is set"),
    "SL004": (WARNING, "unreachable code"),
    "SL005": (ERROR, "conflicting or dead action after xDrop"),
    "SL006": (ERROR, "constant out of range"),
    "SL007": (ERROR, "negative count or duration"),
    "SL008": (WARNING, "unbalanced xHold/xRelease tag"),
    "SL009": (WARNING, "peer_set/peer_get key mismatch"),
    "SL010": (WARNING, "sync_set/sync_get key mismatch"),
    "SL011": (WARNING, "variable written but never read"),
    "SL012": (WARNING, "condition is constant"),
    "SL013": (WARNING, "clause is unreachable"),
    "SC101": (ERROR, "closure or lambda scheduled as a callback"),
    "SC102": (ERROR, "world state smuggled through a default argument"),
    "SC103": (ERROR, "wall-clock time in simulation code"),
    "SC104": (ERROR, "unseeded module-level random"),
    "SC105": (WARNING, "unordered set iteration feeds trace records"),
    "SC106": (WARNING, "id() in a hash or fingerprint"),
    "SC107": (ERROR, "write to a read-only (possibly aliased) header"),
    "SC201": (ERROR, "subscription to a never-emitted trace kind"),
    "SC202": (INFO, "emitted trace kind has no oracle coverage"),
    "SC203": (ERROR, "registry kind no emit site produces"),
    "SC204": (ERROR, "emitted kind missing from the registry"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding, pinned to a source location."""

    code: str
    severity: str
    line: int
    col: int
    message: str
    hint: str = ""
    #: which script of a pair produced it ("send"/"receive"/"" for single)
    script: str = ""

    def format(self, source_name: str = "<script>") -> str:
        """Render the conventional one-line ``file:line:col`` form."""
        where = source_name
        if self.script:
            where = f"{source_name}[{self.script}]"
        text = (f"{where}:{self.line}:{self.col}: {self.severity} "
                f"{self.code}: {self.message}")
        if self.hint:
            text += f" ({self.hint})"
        return text

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (CLI ``--json`` output)."""
        entry: Dict[str, object] = {
            "code": self.code, "severity": self.severity,
            "line": self.line, "col": self.col, "message": self.message,
            "fingerprint": self.fingerprint(),
        }
        if self.hint:
            entry["hint"] = self.hint
        if self.script:
            entry["script"] = self.script
        return entry

    def fingerprint(self, source_name: str = "") -> str:
        """Stable identity of this finding across runs and processes.

        Hashes the code, script tag, message and position (plus the
        source name when the caller scopes by file), so CI can track a
        finding across re-runs -- this is what lands in SARIF
        ``partialFingerprints``.  Hints are excluded: wording tweaks to
        advice must not change a finding's identity.
        """
        basis = "\x1f".join((source_name, self.script, self.code,
                             str(self.line), str(self.col), self.message))
        return hashlib.sha256(basis.encode()).hexdigest()[:16]


@dataclass
class LintReport:
    """All diagnostics for one script (or send/receive pair)."""

    source_name: str = "<script>"
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def sorted(self) -> List[Diagnostic]:
        """Diagnostics in source order (line, col, code)."""
        return sorted(self.diagnostics,
                      key=lambda d: (d.script, d.line, d.col, d.code))

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    def at_least(self, severity: str) -> List[Diagnostic]:
        """Diagnostics at or above the given severity."""
        floor = _SEVERITY_RANK[severity]
        return [d for d in self.diagnostics
                if _SEVERITY_RANK[d.severity] >= floor]

    def ok(self, *, severity: str = ERROR) -> bool:
        """True when nothing at or above ``severity`` was found."""
        return not self.at_least(severity)


def make(code: str, line: int, col: int, message: str, hint: str = "",
         *, severity: Optional[str] = None, script: str = "") -> Diagnostic:
    """Build a diagnostic, defaulting severity from the code table."""
    if severity is None:
        severity = CODES[code][0]
    return Diagnostic(code=code, severity=severity, line=line, col=col,
                      message=message, hint=hint, script=script)
