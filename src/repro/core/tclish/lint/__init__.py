"""scriptlint: static analysis for tclish fault-injection scripts.

A buggy filter script silently invalidates an entire experiment -- a
misspelled ``xDrop`` never fires, ``chance 1.5`` drops everything, an
``xHold`` that is never released starves the protocol.  The runtime only
notices when (or if) the broken command executes, possibly minutes into a
parallel campaign.  This package reuses the tclish lexer/compiler as a
front end and finds those mistakes in milliseconds, before anything runs.

Entry points:

- :func:`lint_source` -- analyze one script (plus its init script);
- :func:`lint_pair` -- analyze a send/receive pair, adding peer/sync
  key-consistency checks across the two interpreters;
- :func:`lint_file` -- analyze a ``.tcl`` file from disk.

Diagnostics carry a stable code (``SL001`` ...), severity, 1-based
line/column, message and hint; see ``docs/scriptlint.md`` for the table.
Wired into the stack at three layers: :class:`~repro.core.script.
TclishFilter` validates at construction, :class:`~repro.core.
orchestrator.Campaign` refuses configs with broken scripts before any
worker starts, and ``repro lint`` exposes the analyzer from the shell.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.tclish import compiler
from repro.core.tclish.lint.checks import Analyzer, ScriptSummary
from repro.core.tclish.lint.diagnostics import (
    CODES,
    ERROR,
    INFO,
    WARNING,
    Diagnostic,
    LintReport,
)
from repro.core.tclish.lint.pair import analyze_pair
from repro.core.tclish.lint.registry import (
    CommandRegistry,
    CommandSignature,
    builtin_registry,
    default_registry,
)
from repro.core.tclish.lint.reporting import (
    TclishLintError,
    render_json,
    render_text,
)

__all__ = [
    "Analyzer",
    "CODES",
    "CommandRegistry",
    "CommandSignature",
    "Diagnostic",
    "ERROR",
    "INFO",
    "LintReport",
    "ScriptSummary",
    "TclishLintError",
    "WARNING",
    "builtin_registry",
    "default_registry",
    "lint_file",
    "lint_pair",
    "lint_source",
    "render_json",
    "render_text",
]


def lint_source(source: str, *, init_script: str = "",
                registry: Optional[CommandRegistry] = None,
                predefined: Sequence[str] = (),
                source_name: str = "<script>") -> LintReport:
    """Statically analyze one tclish filter script.

    ``init_script`` is analyzed first with shared dataflow state, exactly
    as :class:`~repro.core.script.TclishFilter` evaluates it once before
    the body ever runs.  ``predefined`` names variables the harness sets
    directly on the interpreter.

    Against the default registry the verdict is a pure function of
    ``(source, init_script, predefined)``, so it is analyzed once per
    process and remembered in the compile-cache family
    (:func:`repro.core.tclish.compiler.lookup_verdict`); a campaign that
    feeds one script to many targets, and its preflight, filter build and
    forked workers, share that one analysis.  The report is fresh per
    call -- ``source_name`` is the caller's, and ``report.add`` touches
    no other caller -- while the :class:`Diagnostic` objects in it are
    shared and immutable.  A caller-supplied ``registry`` is analyzed
    every time and never reads or writes the memo.
    """
    def analyze() -> tuple:
        analyzer = Analyzer(registry=registry, predefined=predefined)
        return tuple(analyzer.analyze(source, init_script).diagnostics)

    if registry is None:
        verdict = compiler.lookup_verdict(
            (source, init_script, tuple(predefined)), analyze)
    else:
        verdict = analyze()
    report = LintReport(source_name=source_name)
    report.extend(verdict)
    return report


def lint_pair(send_source: str, receive_source: str, *,
              send_init: str = "", receive_init: str = "",
              registry: Optional[CommandRegistry] = None,
              predefined: Sequence[str] = (),
              source_name: str = "<pair>") -> LintReport:
    """Analyze a send/receive script pair, including cross-script checks."""
    send_an = Analyzer(registry=registry, predefined=predefined,
                       label="send")
    receive_an = Analyzer(registry=registry, predefined=predefined,
                          label="receive")
    send_summary = send_an.analyze(send_source, send_init)
    receive_summary = receive_an.analyze(receive_source, receive_init)
    report = LintReport(source_name=source_name)
    report.extend(send_summary.diagnostics)
    report.extend(receive_summary.diagnostics)
    report.extend(analyze_pair(send_summary, receive_summary))
    return report


def lint_file(path: str, *,
              registry: Optional[CommandRegistry] = None,
              predefined: Sequence[str] = ()) -> LintReport:
    """Analyze a tclish script file from disk."""
    with open(path) as fp:
        source = fp.read()
    return lint_source(source, registry=registry, predefined=predefined,
                       source_name=path)
