"""Automatic generation of test scripts from a protocol specification.

The paper's §6 names this as future work: "automatic generation of test
scripts from a protocol specification".  This module implements it: given
a :class:`ProtocolSpec` -- the protocol's message types, their fields, and
which types are control-critical -- :func:`generate_campaign` derives a
systematic battery of filter scripts covering the §2.2 failure models:

- per-type **drop** scripts (omission of each message kind),
- per-type **delay** scripts (timing failures),
- per-type **duplicate** scripts,
- per-type **reorder** scripts (hold one, release after the next),
- per-field **corruption** scripts (byzantine),
- probabilistic **omission** scripts,
- a **crash** script (correct prefix, then silence).

A generated script is tclish source and nothing else -- the paper's
"scripts are inputs" form -- so the campaign is inspectable and editable by
hand, and the text :func:`lint_generated` (and a campaign's lint gate)
checks is the text that runs: :meth:`GeneratedScript.tclish_filter`
installs it, and a campaign config carries it as ``{"script":
tclish_source, "init_script": tclish_init}``.

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

from repro.core.script import TclishFilter


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


@dataclass(frozen=True)
class MessageTypeSpec:
    """One message type of the target protocol."""

    name: str
    #: header fields a corruption script may mutate, with a sample
    #: corrupted value per field
    mutable_fields: Tuple[Tuple[str, Any], ...] = ()
    #: control messages get reorder/duplicate coverage; bulk data types
    #: can opt out to keep campaigns focused
    control: bool = True


@dataclass(frozen=True)
class ProtocolSpec:
    """What the generator needs to know about a protocol."""

    name: str
    message_types: Tuple[MessageTypeSpec, ...]

    def type_names(self) -> List[str]:
        return [t.name for t in self.message_types]


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
# individual generators
# ----------------------------------------------------------------------

def _drop_type(type_name: str, direction: str) -> GeneratedScript:
    model = (FailureModel.SEND_OMISSION if direction == "send"
             else FailureModel.RECEIVE_OMISSION)
    return GeneratedScript(
        name=f"drop_{type_name.lower()}_{direction}",
        description=f"drop every {type_name} on the {direction} path",
        direction=direction, failure_model=model,
        tclish_source=(
            f'if {{[msg_type cur_msg] eq "{type_name}"}} '
            f'{{ xDrop cur_msg }}'))


def _delay_type(type_name: str, seconds: float,
                direction: str) -> GeneratedScript:
    return GeneratedScript(
        name=f"delay_{type_name.lower()}_{direction}",
        description=f"delay every {type_name} by {seconds}s "
                    f"({direction} path)",
        direction=direction, failure_model=FailureModel.TIMING,
        tclish_source=(
            f'if {{[msg_type cur_msg] eq "{type_name}"}} '
            f'{{ xDelay {seconds} }}'))


def _duplicate_type(type_name: str, direction: str) -> GeneratedScript:
    return GeneratedScript(
        name=f"duplicate_{type_name.lower()}_{direction}",
        description=f"duplicate every {type_name} ({direction} path)",
        direction=direction, failure_model=FailureModel.BYZANTINE,
        tclish_source=(
            f'if {{[msg_type cur_msg] eq "{type_name}"}} '
            f'{{ xDuplicate cur_msg 1 }}'))


def _reorder_type(type_name: str, direction: str) -> GeneratedScript:
    return GeneratedScript(
        name=f"reorder_{type_name.lower()}_{direction}",
        description=f"swap each consecutive pair of {type_name} messages "
                    f"({direction} path)",
        direction=direction, failure_model=FailureModel.BYZANTINE,
        tclish_source=(
            f'if {{[msg_type cur_msg] eq "{type_name}"}} {{\n'
            f'    if {{!$holding}} {{\n'
            f'        set holding 1\n'
            f'        xHold cur_msg reorder\n'
            f'    }} else {{\n'
            f'        set holding 0\n'
            f'        xRelease reorder\n'
            f'    }}\n'
            f'}}'),
        tclish_init="set holding 0")


def _corrupt_field(type_name: str, field_name: str, bad_value: Any,
                   direction: str) -> GeneratedScript:
    return GeneratedScript(
        name=f"corrupt_{type_name.lower()}_{field_name}_{direction}",
        description=f"overwrite {type_name}.{field_name} with "
                    f"{bad_value!r} ({direction} path)",
        direction=direction, failure_model=FailureModel.BYZANTINE,
        tclish_source=(
            f'if {{[msg_type cur_msg] eq "{type_name}"}} '
            f'{{ msg_set_field {field_name} {bad_value} }}'))


def _omission(p: float, direction: str) -> GeneratedScript:
    model = (FailureModel.SEND_OMISSION if direction == "send"
             else FailureModel.RECEIVE_OMISSION)
    return GeneratedScript(
        name=f"omission_{int(p * 100)}pct_{direction}",
        description=f"drop each message with probability {p} "
                    f"({direction} path)",
        direction=direction, failure_model=model,
        tclish_source=f'if {{[chance {p}]}} {{ xDrop cur_msg }}')


def _crash_after(n: int, direction: str) -> GeneratedScript:
    return GeneratedScript(
        name=f"crash_after_{n}_{direction}",
        description=f"behave correctly for {n} messages, then crash "
                    f"({direction} path)",
        direction=direction, failure_model=FailureModel.PROCESS_CRASH,
        tclish_source=(
            f'incr seen\n'
            f'if {{$seen > {n}}} {{ xDrop cur_msg }}'),
        tclish_init="set seen 0")


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


def generate_campaign(spec: ProtocolSpec, *,
                      directions: Sequence[str] = ("send", "receive"),
                      delay_seconds: float = 3.0,
                      omission_rates: Sequence[float] = (0.3,),
                      crash_after_messages: int = 20,
                      self_check: bool = True) -> List[GeneratedScript]:
    """Derive the systematic test battery for one protocol spec.

    With ``self_check`` (the default) every generated tclish source is
    statically analyzed and the whole battery is rejected with
    :class:`GenerationLintError` if any script carries an error-level
    diagnostic.
    """
    scripts: List[GeneratedScript] = []
    for direction in directions:
        for mtype in spec.message_types:
            scripts.append(_drop_type(mtype.name, direction))
            scripts.append(_delay_type(mtype.name, delay_seconds, direction))
            if mtype.control:
                scripts.append(_duplicate_type(mtype.name, direction))
                scripts.append(_reorder_type(mtype.name, direction))
            for field_name, bad_value in mtype.mutable_fields:
                scripts.append(_corrupt_field(mtype.name, field_name,
                                              bad_value, direction))
        for rate in omission_rates:
            scripts.append(_omission(rate, direction))
        scripts.append(_crash_after(crash_after_messages, direction))
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


# ----------------------------------------------------------------------
# ready-made specs for the bundled protocols (the fuzz grammar's
# message-type vocabulary, too)
# ----------------------------------------------------------------------

def tcp_spec() -> ProtocolSpec:
    """Spec for the bundled TCP (types from the recognition stubs)."""
    return ProtocolSpec(
        name="tcp",
        message_types=(
            MessageTypeSpec("SYN"),
            MessageTypeSpec("SYNACK"),
            MessageTypeSpec("ACK", mutable_fields=(("ack", 0),)),
            MessageTypeSpec("DATA", control=False,
                            mutable_fields=(("seq", 0),)),
            MessageTypeSpec("FIN"),
            MessageTypeSpec("RST"),
        ))


def gmp_spec() -> ProtocolSpec:
    """Spec for the bundled group membership protocol."""
    return ProtocolSpec(
        name="gmp",
        message_types=(
            MessageTypeSpec("HEARTBEAT", control=False),
            MessageTypeSpec("PROCLAIM",
                            mutable_fields=(("originator", 0),)),
            MessageTypeSpec("JOIN"),
            MessageTypeSpec("MEMBERSHIP_CHANGE",
                            mutable_fields=(("group_id", 0),)),
            MessageTypeSpec("ACK"),
            MessageTypeSpec("NACK"),
            MessageTypeSpec("COMMIT"),
            MessageTypeSpec("DEAD_REPORT", mutable_fields=(("subject", 0),)),
        ))
