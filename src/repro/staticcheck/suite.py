"""The ``repro check`` suite: all three static passes over one tree.

Pass 1 (scriptlint with dataflow, SL0xx) covers the tclish corpus:
``.tcl``/``.tclish`` files plus the fault scripts embedded in the
regression-corpus JSON artifacts.  Pass 2 (determinism, SC1xx) covers
the simulation Python (``experiments``, ``gmp``, ``tcp``), and holds its
read-only-header rule (SC107) over the rest of ``src/repro``.  Pass 3
(trace-schema drift, SC2xx) is whole-program over ``src/repro``.

Exit-code contract (shared with ``repro lint``):

====  ==========================================================
 0    clean -- no findings at warning severity or above
 1    findings -- at least one warning/error diagnostic
 2    parse or internal errors -- unreadable files, Python/tclish
      syntax errors (SL000), unparseable corpus artifacts
====  ==========================================================
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.tclish.lint import lint_source
from repro.core.tclish.lint.diagnostics import Diagnostic, LintReport

from repro.staticcheck import determinism, drift

#: directories (relative to the repo root) each pass covers by default
DEFAULT_TCL_DIRS = ("examples/filters",)
DEFAULT_CORPUS_DIRS = ("tests/regressions",)
DEFAULT_PY_DIRS = ("src/repro/experiments", "src/repro/gmp",
                   "src/repro/tcp")
#: SC107 alone is held package-wide: ``core`` and ``xkernel`` handle
#: message headers too, but legitimately read the wall clock (telemetry)
DEFAULT_HEADER_RULE_DIRS = ("src/repro",)
DEFAULT_DRIFT_DIRS = ("src/repro",)


def repo_root() -> str:
    """The checkout root, derived from the installed package location."""
    import repro
    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    return os.path.dirname(os.path.dirname(package_dir))


@dataclass
class SuiteResult:
    """Everything one ``repro check`` invocation produced."""

    reports: List[LintReport] = field(default_factory=list)
    #: unreadable/unparseable inputs -- force exit code 2
    internal_errors: List[str] = field(default_factory=list)
    #: how many sources each pass looked at
    checked: Dict[str, int] = field(default_factory=dict)

    def findings(self) -> List[Tuple[str, Diagnostic]]:
        """(source, diagnostic) pairs at warning severity or above."""
        return [(report.source_name, diag)
                for report in self.reports
                for diag in report.at_least("warning")]

    def parse_errors(self) -> List[Tuple[str, Diagnostic]]:
        return [(report.source_name, diag)
                for report in self.reports
                for diag in report.sorted() if diag.code == "SL000"]

    def exit_code(self) -> int:
        if self.internal_errors or self.parse_errors():
            return 2
        return 1 if self.findings() else 0

    def render_text(self, *, verbose: bool = False) -> str:
        lines: List[str] = []
        for error in self.internal_errors:
            lines.append(f"internal: {error}")
        floor = "info" if verbose else "warning"
        for report in self.reports:
            for diag in sorted(report.at_least(floor),
                               key=lambda d: (d.line, d.col, d.code)):
                lines.append(diag.format(report.source_name))
        checked = ", ".join(f"{count} {what}"
                            for what, count in sorted(self.checked.items()))
        findings = self.findings()
        verdict = ("clean" if not findings and not self.internal_errors
                   else f"{len(findings)} finding(s)")
        lines.append(f"repro check: {verdict} ({checked})")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "exit_code": self.exit_code(),
            "internal_errors": self.internal_errors,
            "checked": self.checked,
            "reports": [
                {"source": report.source_name,
                 "diagnostics": [d.to_dict() for d in report.sorted()]}
                for report in self.reports if report.diagnostics
            ],
        }, indent=2, sort_keys=True)


def _walk_suffix(paths: Sequence[str], suffixes: Tuple[str, ...]
                 ) -> List[str]:
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in sorted(os.walk(path)):
                dirs.sort()
                out.extend(os.path.join(root, name)
                           for name in sorted(files)
                           if name.endswith(suffixes))
        elif path.endswith(suffixes) and os.path.exists(path):
            out.append(path)
    return out


def _check_tcl(paths: Sequence[str], result: SuiteResult) -> None:
    files = _walk_suffix(paths, (".tcl", ".tclish"))
    result.checked["tclish scripts"] = len(files)
    for path in files:
        try:
            with open(path, encoding="utf-8") as fp:
                source = fp.read()
        except OSError as err:
            result.internal_errors.append(f"{path}: {err}")
            continue
        result.reports.append(lint_source(source, source_name=path))


def _check_corpus(paths: Sequence[str], result: SuiteResult) -> None:
    """Lint the fault scripts embedded in regression JSON artifacts."""
    from repro.oracle.grammar import FuzzScript
    files = _walk_suffix(paths, (".json",))
    result.checked["corpus scripts"] = len(files)
    for path in files:
        try:
            with open(path, encoding="utf-8") as fp:
                data = json.load(fp)
            script = FuzzScript.from_dict(data["case"]["script"])
        except (OSError, ValueError, KeyError, TypeError) as err:
            result.internal_errors.append(
                f"{path}: unreadable corpus artifact ({err})")
            continue
        result.reports.append(lint_source(
            script.source, init_script=script.init,
            source_name=f"{path}[{script.name}]"))


def _check_python(paths: Sequence[str], header_rule_paths: Sequence[str],
                  result: SuiteResult) -> None:
    files = [p for p in _walk_suffix(paths, (".py",))]
    result.checked["python modules"] = len(files)
    checks = [(path, None) for path in files]
    covered = set(files)
    checks += [(path, ("SC107",))
               for path in _walk_suffix(header_rule_paths, (".py",))
               if path not in covered]
    for path, codes in checks:
        try:
            result.reports.append(determinism.check_file(path, codes=codes))
        except OSError as err:
            result.internal_errors.append(f"{path}: {err}")


def _check_drift(paths: Sequence[str], result: SuiteResult) -> None:
    reports = drift.check_drift(paths)
    result.checked["trace kinds"] = len(
        drift.harvest_paths(paths).emitted_kinds())
    result.reports.extend(reports)


def run_suite(*, root: Optional[str] = None,
              tcl_paths: Optional[Sequence[str]] = None,
              corpus_paths: Optional[Sequence[str]] = None,
              py_paths: Optional[Sequence[str]] = None,
              drift_paths: Optional[Sequence[str]] = None,
              drift_enabled: bool = True) -> SuiteResult:
    """Run the three passes; any ``*_paths`` override replaces defaults.

    With no overrides the suite checks the standard repo layout under
    ``root`` (default: the checkout containing the installed package),
    silently skipping default directories that do not exist so the suite
    also works from an installed wheel.
    """
    base = repo_root() if root is None else root

    def defaults(relative: Sequence[str]) -> List[str]:
        found = [os.path.join(base, rel) for rel in relative]
        return [path for path in found if os.path.exists(path)]

    result = SuiteResult()
    _check_tcl(defaults(DEFAULT_TCL_DIRS) if tcl_paths is None
               else tcl_paths, result)
    _check_corpus(defaults(DEFAULT_CORPUS_DIRS) if corpus_paths is None
                  else corpus_paths, result)
    if py_paths is None:
        _check_python(defaults(DEFAULT_PY_DIRS),
                      defaults(DEFAULT_HEADER_RULE_DIRS), result)
    else:
        _check_python(py_paths, (), result)
    if drift_enabled:
        _check_drift(defaults(DEFAULT_DRIFT_DIRS) if drift_paths is None
                     else drift_paths, result)
    return result
