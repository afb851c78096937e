"""Random fault-script generation over the ``@cmd``-declared PFI commands.

The fuzzer's input space is tclish filter scripts.  Rather than mutating
raw text (almost every random edit of which fails to parse), scripts are
built from a small clause grammar::

    script  := clause+                     (1..MAX_CLAUSES clauses)
    clause  := [guard] action | composite
    guard   := msg-type test | chance | virtual-time test
    action  := drop | delay | duplicate | log | corrupt-field
    composite := reorder (hold/release pair) | crash-after-N

Every command a template may emit is checked against
:data:`~repro.core.script.PFI_COMMANDS` at import time, so the grammar
can never drift from the registered command set, and every generated
script is lint-clean by construction (guarded by the same static
analysis the campaign engine applies -- see
:func:`repro.core.genscripts.lint_generated` for the precedent).  The
message-type vocabulary is read from the same
:class:`~repro.core.genscripts.ProtocolSpec` the systematic campaigns
are generated from, so the two generators cannot name different types.

Scripts serialize to plain dicts (clause lists), which is what the
shrinker's reproduction artifacts store: a shrunk script is re-rendered
from its surviving clauses, not from edited text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.distributions import derive_seed
from repro.core.genscripts import gmp_spec, tcp_spec
from repro.core.script import PFI_COMMANDS

#: message-type vocabulary per protocol: the generated campaigns' specs
MESSAGE_TYPES: Dict[str, Tuple[str, ...]] = {
    spec.name: tuple(spec.type_names()) for spec in (tcp_spec(), gmp_spec())}

#: corruptible header fields per protocol, with the values to write (its
#: own table: the order is part of every draw's ``rng.choice``)
CORRUPT_FIELDS: Dict[str, Tuple[Tuple[str, str, object], ...]] = {
    "tcp": (("ACK", "ack", 0), ("DATA", "seq", 0),
            ("ACK", "window", 0)),
    "gmp": (("MEMBERSHIP_CHANGE", "group_id", 0),
            ("PROCLAIM", "originator", 0),
            ("DEAD_REPORT", "subject", 0)),
}

DELAYS = (0.5, 1.5, 3.0)
CHANCES = (0.1, 0.25, 0.5)
TIME_GATES = (10.0, 15.0, 20.0)
CRASH_COUNTS = (5, 15, 30)
MAX_CLAUSES = 3

#: every PFI command the grammar's templates may emit
GRAMMAR_COMMANDS = ("msg_type", "msg_log", "msg_set_field", "chance",
                    "now", "xDrop", "xDelay", "xDuplicate", "xHold",
                    "xRelease")

_missing = [name for name in GRAMMAR_COMMANDS if name not in PFI_COMMANDS]
if _missing:  # pragma: no cover - import-time grammar/registry drift guard
    raise ImportError(f"fuzz grammar references unregistered PFI "
                      f"commands: {_missing}")


@dataclass(frozen=True)
class Clause:
    """One self-contained statement of a generated script.

    ``init`` carries the init-script line the clause needs (e.g. its
    counter variable); identical lines from several clauses are merged
    when the script renders.
    """

    text: str
    init: str = ""

    def to_dict(self) -> Dict[str, str]:
        return {"text": self.text, "init": self.init}

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "Clause":
        return cls(text=data["text"], init=data.get("init", ""))


@dataclass(frozen=True)
class FuzzScript:
    """A generated fault script: clause list plus placement metadata."""

    name: str
    protocol: str
    direction: str               # "send" or "receive"
    clauses: Tuple[Clause, ...]

    @property
    def source(self) -> str:
        return "\n".join(clause.text for clause in self.clauses)

    @property
    def init(self) -> str:
        lines = [c.init for c in self.clauses if c.init]
        return "\n".join(dict.fromkeys(lines))

    def with_clauses(self, clauses: Sequence[Clause],
                     name: str = "") -> "FuzzScript":
        return FuzzScript(name=name or self.name, protocol=self.protocol,
                          direction=self.direction, clauses=tuple(clauses))

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "protocol": self.protocol,
                "direction": self.direction,
                "clauses": [c.to_dict() for c in self.clauses]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FuzzScript":
        return cls(name=data["name"], protocol=data["protocol"],
                   direction=data["direction"],
                   clauses=tuple(Clause.from_dict(c)
                                 for c in data["clauses"]))


# ----------------------------------------------------------------------
# clause generators
# ----------------------------------------------------------------------

def _guard(rng: random.Random, protocol: str) -> str:
    """A tclish condition, or '' for an unconditional clause."""
    roll = rng.random()
    if roll < 0.55:
        mtype = rng.choice(MESSAGE_TYPES[protocol])
        return f'[msg_type cur_msg] eq "{mtype}"'
    if roll < 0.8:
        return f"[chance {rng.choice(CHANCES)}]"
    if roll < 0.9:
        return f"[now] > {rng.choice(TIME_GATES)}"
    return ""


def _action(rng: random.Random, protocol: str) -> str:
    roll = rng.random()
    if roll < 0.45:
        return "xDrop cur_msg"
    if roll < 0.7:
        return f"xDelay {rng.choice(DELAYS)}"
    if roll < 0.85:
        return "xDuplicate cur_msg 1"
    if roll < 0.95 and CORRUPT_FIELDS[protocol]:
        _mtype, field, value = rng.choice(CORRUPT_FIELDS[protocol])
        return f"msg_set_field {field} {value}"
    return "msg_log cur_msg fuzz"


def _simple_clause(rng: random.Random, protocol: str) -> Clause:
    guard = _guard(rng, protocol)
    action = _action(rng, protocol)
    if not guard:
        return Clause(text=action)
    return Clause(text=f"if {{{guard}}} {{ {action} }}")


def _reorder_clause(rng: random.Random, protocol: str) -> Clause:
    mtype = rng.choice(MESSAGE_TYPES[protocol])
    return Clause(
        text=(f'if {{[msg_type cur_msg] eq "{mtype}"}} {{\n'
              f'    if {{!$fz_holding}} {{\n'
              f'        set fz_holding 1\n'
              f'        xHold cur_msg fzreorder\n'
              f'    }} else {{\n'
              f'        set fz_holding 0\n'
              f'        xRelease fzreorder\n'
              f'    }}\n'
              f'}}'),
        init="set fz_holding 0")


def _crash_clause(rng: random.Random, _protocol: str) -> Clause:
    n = rng.choice(CRASH_COUNTS)
    return Clause(
        text=(f"incr fz_seen\n"
              f"if {{$fz_seen > {n}}} {{ xDrop cur_msg }}"),
        init="set fz_seen 0")


def _clause(rng: random.Random, protocol: str) -> Clause:
    roll = rng.random()
    if roll < 0.8:
        return _simple_clause(rng, protocol)
    if roll < 0.9:
        return _reorder_clause(rng, protocol)
    return _crash_clause(rng, protocol)


# ----------------------------------------------------------------------
# script generation / mutation
# ----------------------------------------------------------------------

class GrammarLintError(AssertionError):
    """A generated script failed static analysis.

    Like :class:`repro.core.genscripts.GenerationLintError`, this is the
    grammar's own regression guard: it can only fire if a template edit
    breaks the tclish the grammar emits.
    """


def _self_check(script: FuzzScript) -> FuzzScript:
    from repro.core.tclish.lint import lint_source
    report = lint_source(script.source, init_script=script.init,
                         source_name=script.name)
    if not report.ok():
        raise GrammarLintError(
            f"grammar produced a script failing lint: {script.name}\n"
            f"{script.source}")
    return script


def generate_script(rng: random.Random, protocol: str, *,
                    direction: str = "", index: int = 0) -> FuzzScript:
    """Draw one script from the grammar (lint-clean, deterministic)."""
    if protocol not in MESSAGE_TYPES:
        raise ValueError(f"unknown protocol {protocol!r}")
    if not direction:
        direction = rng.choice(("send", "receive"))
    count = rng.randint(1, MAX_CLAUSES)
    clauses = tuple(_clause(rng, protocol) for _ in range(count))
    return _self_check(FuzzScript(
        name=f"fuzz_{protocol}_{index:04d}", protocol=protocol,
        direction=direction, clauses=clauses))


def mutate_script(rng: random.Random, script: FuzzScript, *,
                  index: int = 0) -> FuzzScript:
    """Derive a neighbour of ``script``: add, replace, or drop a clause."""
    clauses = list(script.clauses)
    roll = rng.random()
    if roll < 0.4 and len(clauses) < MAX_CLAUSES:
        clauses.insert(rng.randrange(len(clauses) + 1),
                       _clause(rng, script.protocol))
    elif roll < 0.7 or len(clauses) == 1:
        clauses[rng.randrange(len(clauses))] = _clause(rng, script.protocol)
    else:
        del clauses[rng.randrange(len(clauses))]
    return _self_check(script.with_clauses(
        clauses, name=f"fuzz_{script.protocol}_{index:04d}"))


def trial_seed(campaign_seed: int, name: str, repetition: int = 0) -> int:
    """The per-trial seed: derived, so list reordering cannot perturb it."""
    return derive_seed(campaign_seed, name, repetition)
