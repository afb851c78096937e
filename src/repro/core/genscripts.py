"""Automatic generation of test scripts from a protocol specification.

The paper's §6 names this as future work: "automatic generation of test
scripts from a protocol specification".  This module implements it: given
a protocol's packet stubs (:class:`~repro.core.stubs.PacketStubs`: its
message types, which are control-critical, and its corruption rows)
:func:`generate_campaign` derives a systematic battery of filter scripts
covering the §2.2 failure models:

- per-type **drop** scripts (omission of each message kind),
- per-type **delay** scripts (timing failures),
- per-type **duplicate** scripts,
- per-type **reorder** scripts (hold one, release after the next),
- per-row **corruption** scripts (byzantine), grouped by type,
- probabilistic **omission** scripts,
- a **crash** script (correct prefix, then silence).

A generated script is tclish source and nothing else -- the paper's
"scripts are inputs" form -- written by the module's fault templates
(:func:`type_guard`, :data:`DROP`, :func:`delay`, :data:`DUPLICATE`,
:func:`corrupt_field`, :func:`reorder`, :func:`crash_after`), which the
fuzz grammar renders its clauses from too.  So the campaign is
inspectable and editable by hand, and the text :func:`lint_generated`
(and a campaign's lint gate) checks is the text that runs:
:meth:`GeneratedScript.tclish_filter` installs it, and a campaign config
carries it as ``{"script": tclish_source, "init_script": tclish_init}``.

This module is also the failure-model catalogue: :class:`FailureModel`
names the paper's models, and the severity lattice ("Model B is more
severe than model A if the set of faulty behavior allowed by A is a proper
subset allowed by B") is encoded in :data:`SEVERITY_ORDER` /
:func:`is_at_least_as_severe` and property-tested in
``tests/core/test_faults.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.abp.protocol import ABP_SCHEMA
from repro.core.script import TclishFilter
from repro.core.stubs import PacketStubs
from repro.gmp.messages import GMP_SCHEMA
from repro.tcp.segment import TCP_SCHEMA

#: the protocols scripts are generated for, by name: ``repro campaign``,
#: ``repro lint --gen`` and the fuzz grammar read this table (the grammar
#: draws from each schema's ``vocabulary`` and ``corruptions`` tuples, so
#: their order is part of every draw)
SCHEMAS = {schema.name: schema
           for schema in (TCP_SCHEMA, GMP_SCHEMA, ABP_SCHEMA)}


class FailureModel(enum.Enum):
    """The failure models of paper §2.2, least to most severe.

    1. **process crash** -- halt prematurely, then do nothing;
    2. **link crash** -- a link stops transporting messages (no
       corruption);
    3. **send omission** -- intermittently omit sends;
    4. **receive omission** -- intermittently omit receives;
    5. **general omission** -- send and/or receive omission;
    6. **timing/performance** -- violate timing bounds (too slow or too
       fast);
    7. **arbitrary/byzantine** -- anything: spurious messages, corruption,
       reordering, false claims.
    """

    PROCESS_CRASH = "process_crash"
    LINK_CRASH = "link_crash"
    SEND_OMISSION = "send_omission"
    RECEIVE_OMISSION = "receive_omission"
    GENERAL_OMISSION = "general_omission"
    TIMING = "timing"
    BYZANTINE = "byzantine"


#: Total severity order, least to most severe (the paper presents the
#: models "in the order of severity").
SEVERITY_ORDER = (
    FailureModel.PROCESS_CRASH,
    FailureModel.LINK_CRASH,
    FailureModel.SEND_OMISSION,
    FailureModel.RECEIVE_OMISSION,
    FailureModel.GENERAL_OMISSION,
    FailureModel.TIMING,
    FailureModel.BYZANTINE,
)

#: Strict subset relations between behaviour sets: each model maps to the
#: models whose faulty behaviours it includes.  Tolerating the superset
#: model implies tolerating every model it covers.
COVERS: Dict[FailureModel, Tuple[FailureModel, ...]] = {
    FailureModel.PROCESS_CRASH: (),
    FailureModel.LINK_CRASH: (),
    FailureModel.SEND_OMISSION: (FailureModel.PROCESS_CRASH,),
    FailureModel.RECEIVE_OMISSION: (FailureModel.PROCESS_CRASH,),
    FailureModel.GENERAL_OMISSION: (
        FailureModel.SEND_OMISSION, FailureModel.RECEIVE_OMISSION,
        FailureModel.LINK_CRASH, FailureModel.PROCESS_CRASH),
    FailureModel.TIMING: (
        FailureModel.GENERAL_OMISSION, FailureModel.SEND_OMISSION,
        FailureModel.RECEIVE_OMISSION, FailureModel.LINK_CRASH,
        FailureModel.PROCESS_CRASH),
    FailureModel.BYZANTINE: (
        FailureModel.TIMING, FailureModel.GENERAL_OMISSION,
        FailureModel.SEND_OMISSION, FailureModel.RECEIVE_OMISSION,
        FailureModel.LINK_CRASH, FailureModel.PROCESS_CRASH),
}


def is_at_least_as_severe(a: FailureModel, b: FailureModel) -> bool:
    """True if model ``a`` covers all the faulty behaviours of ``b``."""
    return a == b or b in COVERS[a]


def tolerance_implied(tolerated: FailureModel) -> Tuple[FailureModel, ...]:
    """Models a protocol provably tolerates given it tolerates ``tolerated``.

    "A protocol implementation that tolerates failures of type B also
    tolerates those of type A" when A's behaviours are a subset of B's.
    """
    return (tolerated,) + COVERS[tolerated]


@dataclass
class GeneratedScript:
    """One generated test: metadata plus its tclish source."""

    name: str
    description: str
    direction: str                  # "send" or "receive"
    failure_model: FailureModel
    tclish_source: str
    tclish_init: str = ""

    def tclish_filter(self) -> TclishFilter:
        """The installable filter (a fresh interpreter per call)."""
        return TclishFilter(self.tclish_source, init_script=self.tclish_init,
                            name=self.name)

    def __repr__(self) -> str:
        return (f"GeneratedScript({self.name}, {self.direction}, "
                f"{self.failure_model.value})")


# ----------------------------------------------------------------------
# fault templates
# ----------------------------------------------------------------------
#
# The tclish text of every fault form, written once: the campaign below
# and the fuzz grammar (:mod:`repro.oracle.grammar`) both render their
# faults from these.  The two stateful forms return ``(source, init)``
# and take the names of their variable / hold queue from the caller (the
# campaign's ``holding`` / ``reorder`` / ``seen``, the grammar's
# ``fz_holding`` / ``fzreorder`` / ``fz_seen``).

DROP = "xDrop cur_msg"
DUPLICATE = "xDuplicate cur_msg 1"


def type_guard(type_name: str) -> str:
    """The condition "the current message is a ``type_name``"."""
    return f'[msg_type cur_msg] eq "{type_name}"'


def chance(p: float) -> str:
    """The condition "with probability ``p``"."""
    return f"[chance {p}]"


def when(guard: str, action: str) -> str:
    """``action``, run only when ``guard`` holds."""
    return f"if {{{guard}}} {{ {action} }}"


def delay(seconds: float) -> str:
    return f"xDelay {seconds}"


def corrupt_field(field_name: str, bad_value: Any) -> str:
    return f"msg_set_field {field_name} {bad_value}"


def reorder(type_name: str, flag: str, queue: str) -> Tuple[str, str]:
    """Hold one ``type_name`` message and release it after the next."""
    return (f"if {{{type_guard(type_name)}}} {{\n"
            f"    if {{!${flag}}} {{\n"
            f"        set {flag} 1\n"
            f"        xHold cur_msg {queue}\n"
            f"    }} else {{\n"
            f"        set {flag} 0\n"
            f"        xRelease {queue}\n"
            f"    }}\n"
            f"}}", f"set {flag} 0")


def crash_after(n: int, counter: str) -> Tuple[str, str]:
    """Pass ``n`` messages, then drop every one after."""
    return (f"incr {counter}\n" + when(f"${counter} > {n}", DROP),
            f"set {counter} 0")


# ----------------------------------------------------------------------
# campaign assembly
# ----------------------------------------------------------------------

class GenerationLintError(ValueError):
    """The generator produced a tclish script that fails static analysis.

    This should never fire for the shipped generators -- it is the
    generator's own regression guard: any future template edit that
    produces a broken script is caught at generation time, not minutes
    into a campaign.  ``reports`` holds every failing
    :class:`~repro.core.tclish.lint.LintReport`.
    """

    def __init__(self, reports):
        from repro.core.tclish.lint.reporting import render_text
        self.reports = list(reports)
        text = "\n".join(render_text(report) for report in self.reports)
        super().__init__(
            f"script generator self-check failed: {len(self.reports)} "
            f"generated script(s) failed lint\n{text}")


def lint_generated(scripts: Iterable[GeneratedScript]):
    """Lint the tclish form of every generated script.

    Returns the list of failing
    :class:`~repro.core.tclish.lint.LintReport` objects (empty when the
    whole battery is clean).
    """
    from repro.core.tclish.lint import lint_source
    failing = []
    for script in scripts:
        report = lint_source(script.tclish_source,
                             init_script=script.tclish_init,
                             source_name=script.name)
        if not report.ok():
            failing.append(report)
    return failing


def generate_campaign(schema: PacketStubs, *,
                      directions: Sequence[str] = ("send", "receive"),
                      delay_seconds: float = 3.0,
                      omission_rates: Sequence[float] = (0.3,),
                      crash_after_messages: int = 20,
                      self_check: bool = True) -> List[GeneratedScript]:
    """Derive the systematic test battery for one protocol's schema.

    With ``self_check`` (the default) every generated tclish source is
    statically analyzed and the whole battery is rejected with
    :class:`GenerationLintError` if any script carries an error-level
    diagnostic.
    """
    byzantine = FailureModel.BYZANTINE
    scripts: List[GeneratedScript] = []
    for direction in directions:
        omission = (FailureModel.SEND_OMISSION if direction == "send"
                    else FailureModel.RECEIVE_OMISSION)
        path = f"({direction} path)"
        forms = []     # (name, description, model, source, init)
        for mtype in schema.types:
            kind, low = mtype.name, mtype.name.lower()
            guard = type_guard(kind)
            forms.append((f"drop_{low}",
                          f"drop every {kind} on the {direction} path",
                          omission, when(guard, DROP), ""))
            forms.append((f"delay_{low}",
                          f"delay every {kind} by {delay_seconds}s {path}",
                          FailureModel.TIMING,
                          when(guard, delay(delay_seconds)), ""))
            if mtype.control:
                forms.append((f"duplicate_{low}",
                              f"duplicate every {kind} {path}", byzantine,
                              when(guard, DUPLICATE), ""))
                forms.append((f"reorder_{low}",
                              f"swap each consecutive pair of {kind} "
                              f"messages {path}", byzantine,
                              *reorder(kind, "holding", "reorder")))
            for row_kind, field, bad_value in schema.corruptions:
                if row_kind == kind:
                    forms.append((f"corrupt_{low}_{field}",
                                  f"overwrite {kind}.{field} with "
                                  f"{bad_value!r} {path}", byzantine,
                                  when(guard, corrupt_field(field, bad_value)),
                                  ""))
        for rate in omission_rates:
            forms.append((f"omission_{round(rate * 100)}pct",
                          f"drop each message with probability {rate} {path}",
                          omission, when(chance(rate), DROP), ""))
        forms.append((f"crash_after_{crash_after_messages}",
                      f"behave correctly for {crash_after_messages} "
                      f"messages, then crash {path}",
                      FailureModel.PROCESS_CRASH,
                      *crash_after(crash_after_messages, "seen")))
        scripts.extend(GeneratedScript(f"{name}_{direction}", description,
                                       direction, model, source, init)
                       for name, description, model, source, init in forms)
    if self_check:
        failing = lint_generated(scripts)
        if failing:
            raise GenerationLintError(failing)
    return scripts


def campaign_by_model(scripts: Iterable[GeneratedScript]
                      ) -> Dict[FailureModel, List[GeneratedScript]]:
    """Group a generated campaign by the failure model it exercises."""
    grouped: Dict[FailureModel, List[GeneratedScript]] = {}
    for script in scripts:
        grouped.setdefault(script.failure_model, []).append(script)
    return grouped
