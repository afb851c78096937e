"""The analysis pass: every per-script check of the tclish linter.

One :class:`Analyzer` run walks a script (plus its init script) the way
the interpreter would evaluate it -- words left to right, nested
``[script]`` substitutions before the enclosing command, control-flow
bodies as branches -- and emits diagnostics:

========  ==========================================================
SL000     syntax error (the lexer rejected the source)
SL001     unknown command (not stdlib, not PFI bridge, not a proc)
SL002     argument count outside the command's declared signature
SL003     variable read before any assignment can have happened
SL004     unreachable code after return/break/continue/error
SL005     message action after an unconditional xDrop in the block
SL006     constant out of range (chance, dst_exponential, dst_uniform)
SL007     negative constant passed to xDelay/xDuplicate
SL008     xHold tag never released / xRelease tag never held
SL011     variable written but never read anywhere (dead store)
SL012     if/while condition folds to a constant
SL013     clause unreachable because an earlier condition is
          constantly true
========  ==========================================================

Dataflow is deliberately conservative: a variable assigned on *some*
branch is "maybe assigned" and reading it is not reported, so only reads
that fail on every possible first execution are errors.  Reads inside
``catch`` bodies and proc bodies are downgraded to warnings (caught
errors are often intentional; procs can fall back to interpreter
globals).

The def-use pass behind SL011 is whole-script: filter interpreters keep
state across invocations, so a ``set`` in one message event may be read
by the next -- but that read still appears somewhere in the script text,
which is why "no read anywhere in init+body" is a sound dead-store
condition.  Anything that makes variable names dynamic (``set $name``,
``eval`` of a computed string) disables the check for the whole script
rather than guessing.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.tclish import expr as expr_mod
from repro.core.tclish.compiler import SEG_CMD, SEG_VAR
from repro.core.tclish.errors import HOST_ERRORS, TclError
from repro.core.tclish.lint import diagnostics as diag
from repro.core.tclish.lint.diagnostics import Diagnostic
from repro.core.tclish.lint.registry import (
    CommandRegistry,
    CommandSignature,
    default_registry,
)
from repro.core.tclish.lint.walker import (
    CommandNode,
    LineMap,
    WordNode,
    parse_script,
    segments_at,
)

#: commands that act on the current message and are moot once it is dropped
_MSG_ACTIONS = ("xDelay", "xDuplicate", "xHold", "msg_set_field", "xDrop")

#: commands that make the rest of their block unreachable
_TERMINALS = ("return", "break", "continue", "error")


@dataclass
class _Scope:
    """Dataflow state while walking one execution context."""

    assigned: Set[str] = field(default_factory=set)
    maybe: Set[str] = field(default_factory=set)
    caught: bool = False
    in_proc: bool = False

    def branch(self) -> "_Scope":
        return _Scope(assigned=set(self.assigned), maybe=set(self.maybe),
                      caught=self.caught, in_proc=self.in_proc)

    def readable(self, name: str) -> bool:
        return name in self.assigned or name in self.maybe


@dataclass
class ScriptSummary:
    """What one analyzed script exposes for cross-script (pair) checks."""

    diagnostics: List[Diagnostic]
    #: key -> (line, col) of first use, per bridge command
    peer_set: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    peer_get: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    sync_set: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    sync_get: Dict[str, Tuple[int, int]] = field(default_factory=dict)


class Analyzer:
    """One analysis run over a script and its optional init script."""

    def __init__(self, *, registry: Optional[CommandRegistry] = None,
                 predefined: Sequence[str] = (), label: str = ""):
        self.registry = (registry.copy() if registry is not None
                         else default_registry())
        self.label = label
        self.predefined = set(predefined)
        self.out: List[Diagnostic] = []
        self._linemap = LineMap("")
        self._script_tag = ""
        # (script tag, offset, text) -> the body's one parse, shared by
        # the proc pre-pass and the walk
        self._parsed: Dict[Tuple[str, int, str], List[CommandNode]] = {}
        # hold/release pairing, collected across init + body
        # tag -> (line, col, script_tag) of first occurrence
        self._holds: Dict[str, Tuple[int, int, str]] = {}
        self._releases: Dict[str, Tuple[int, int, str]] = {}
        self._dynamic_tags = False
        # def-use chains for SL011: first literal `set` per name, every
        # name read anywhere (init, body, nested scripts, conditions)
        self._writes: Dict[str, Tuple[int, int, str]] = {}
        self._reads_seen: Set[str] = set(predefined)
        self._dynamic_vars = False
        # peer/sync key usage for pair analysis
        self.summary = ScriptSummary(diagnostics=self.out)

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def analyze(self, source: str, init_script: str = "") -> ScriptSummary:
        state = _Scope(assigned=set(self.predefined))
        init_tag = f"{self.label}:init" if self.label else "init"
        for text, tag in ((init_script, init_tag), (source, self.label)):
            if not text:
                continue
            self._linemap = LineMap(text)
            self._script_tag = tag
            try:
                commands = self._parse(text)
            except TclError as err:
                self._report("SL000", 0, str(err),
                             "the script does not parse; run it to see the "
                             "same error")
                continue
            self._collect_procs(commands)
            self._walk_block(commands, state)
        self._check_hold_release()
        self._check_dead_stores()
        return self.summary

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------

    def _report(self, code: str, offset: int, message: str, hint: str = "",
                *, severity: Optional[str] = None) -> None:
        line, col = self._linemap.position(offset)
        self.out.append(diag.make(code, line, col, message, hint,
                                  severity=severity, script=self._script_tag))

    def _position(self, offset: int) -> Tuple[int, int]:
        return self._linemap.position(offset)

    def _parse(self, text: str, offset: int = 0) -> List[CommandNode]:
        """Parse a body of the script being walked, once per analysis.

        The proc pre-pass, the walk and ``switch`` all look at the same
        braced bodies; they share one command list per ``(script tag,
        offset, text)``.  Raises ``TclError`` as :func:`parse_script`
        does (a body that does not lex is not remembered).
        """
        key = (self._script_tag, offset, text)
        parsed = self._parsed.get(key)
        if parsed is None:
            parsed = self._parsed[key] = parse_script(text, offset)
        return parsed

    # ------------------------------------------------------------------
    # proc pre-pass
    # ------------------------------------------------------------------

    def _collect_procs(self, commands: List[CommandNode]) -> None:
        """Register every literal ``proc`` definition, at any nesting."""
        for command in commands:
            if command.name == "proc" and len(command.args) >= 2:
                name = command.args[0].literal
                params_word = command.args[1]
                if name:
                    self.registry.add(_proc_signature(name, params_word))
            for word in command.words:
                body = word.braced_body()
                if body is None:
                    continue
                text, offset = body
                # a literal ``proc`` word needs the substring, or a
                # backslash escape spelling it; most bodies have neither
                if "proc" not in text and "\\" not in text:
                    continue
                try:
                    nested = self._parse(text, offset)
                except TclError:
                    continue
                self._collect_procs(nested)

    # ------------------------------------------------------------------
    # the walk
    # ------------------------------------------------------------------

    def _walk_block(self, commands: List[CommandNode], state: _Scope) -> None:
        """Analyze one straight-line block of commands."""
        terminated_by: Optional[CommandNode] = None
        dead_reported = False
        dropped_at: Optional[CommandNode] = None
        for command in commands:
            if terminated_by is not None and not dead_reported:
                self._report(
                    "SL004", command.offset,
                    f'unreachable: "{terminated_by.name}" above always '
                    f"exits this block", "move or remove this code")
                dead_reported = True
            name = command.name
            if (dropped_at is not None and name in _MSG_ACTIONS):
                self._report(
                    "SL005", command.offset,
                    f'"{name}" after xDrop has no effect: the message is '
                    f"already dropped",
                    "drop last, or guard one of the two actions")
            self._walk_command(command, state)
            if name in _TERMINALS:
                terminated_by = command
            if name == "xDrop":
                dropped_at = command

    def _walk_command(self, command: CommandNode, state: _Scope) -> None:
        name = command.name
        # words are substituted left to right before dispatch: nested
        # [scripts] run and $reads resolve for every non-braced word
        for word in command.words:
            self._process_word_substitutions(word, state)

        if name is None:
            return  # dynamic command name: nothing static to check

        signature = self.registry.get(name)
        if signature is None:
            self._report("SL001", command.words[0].offset,
                         f'invalid command name "{name}"',
                         _suggest(name, self.registry))
            return
        if not signature.accepts(len(command.args)):
            usage = signature.usage or name
            self._report(
                "SL002", command.words[0].offset,
                f'wrong # args for "{name}": got {len(command.args)}, '
                f"expected {signature.arity_text()}",
                f"usage: {usage}")

        handler = _SPECIAL.get(name)
        if handler is not None:
            handler(self, command, state)

    def _process_word_substitutions(self, word: WordNode,
                                    state: _Scope) -> None:
        """Nested scripts and variable reads a word triggers at runtime."""
        for nested_source, offset in word.nested_scripts():
            self._walk_nested(nested_source, offset, state)
        self._check_reads(word.variable_reads(), state)

    def _walk_nested(self, source: str, offset: int, state: _Scope) -> None:
        try:
            commands = self._parse(source, offset)
        except TclError as err:
            self._report("SL000", offset, str(err))
            return
        self._walk_block(commands, state)

    def _check_reads(self, reads: List[Tuple[str, int]],
                     state: _Scope) -> None:
        for name, offset in reads:
            self._reads_seen.add(name)
            if state.readable(name):
                continue
            severity = diag.WARNING if (state.caught or state.in_proc) \
                else None
            self._report(
                "SL003", offset,
                f'"${name}" is read before any assignment',
                "set it in the init script or earlier in the script",
                severity=severity)
            # one report per variable is enough
            state.maybe.add(name)

    # ------------------------------------------------------------------
    # substitution contexts (conditions, expr) and branch bodies
    # ------------------------------------------------------------------

    def _scan_condition(self, word: WordNode, state: _Scope) -> Set[str]:
        """Analyze an if/while test: reads, nested scripts, exists-guards.

        Returns variable names guarded by ``[info exists name]`` so the
        matching branch can treat them as possibly assigned.
        """
        body = word.braced_body()
        if body is not None:
            text, base = body
            try:
                nested = segments_at(text, base, SEG_CMD)
            except TclError as err:
                self._report("SL000", base, str(err))
                return set()
            for nested_source, offset in nested:
                self._walk_nested(nested_source, offset, state)
            self._check_reads(segments_at(text, base, SEG_VAR), state)
        else:
            # bare/quoted condition: normal word substitution already ran
            text = word.raw
        guards = set()
        tokens = text.split()
        for i, token in enumerate(tokens):
            if token.endswith("exists") and i + 1 < len(tokens):
                guard = tokens[i + 1].rstrip("]}")
                guards.add(guard)
                self._reads_seen.add(guard)
        return guards

    def _fold_condition(self, word: WordNode) -> Optional[bool]:
        """The condition's constant truth value, or None when dynamic.

        Only fully static text is folded: anything containing a ``$``
        read or a ``[script]`` substitution depends on runtime state.
        Folding uses the same :mod:`~repro.core.tclish.expr` engine the
        interpreter evaluates conditions with, so lint and runtime can
        never disagree about what a constant condition does.
        """
        body = word.braced_body()
        text = body[0] if body is not None else word.literal
        if text is None:
            return None
        text = text.strip()
        if not text or "$" in text or "[" in text:
            return None
        try:
            return expr_mod.truth(expr_mod.evaluate(text))
        except (TclError, *HOST_ERRORS):
            return None

    def _walk_body_word(self, word: Optional[WordNode],
                        state: _Scope) -> Optional[_Scope]:
        """Analyze a braced script body on a branch copy of ``state``."""
        if word is None:
            return None
        body = word.braced_body()
        branch = state.branch()
        if body is None:
            # dynamic body (rare): nothing static to walk
            return branch
        self._walk_nested(body[0], body[1], branch)
        return branch

    def _merge_branches(self, state: _Scope, branches: List[_Scope],
                        all_paths_covered: bool) -> None:
        """Join branch dataflow back into ``state`` (if/switch joins)."""
        live = [b for b in branches if b is not None]
        if not live:
            return
        additions = [b.assigned - state.assigned for b in live]
        union: Set[str] = set()
        for added in additions:
            union |= added
        for branch in live:
            union |= branch.maybe - state.maybe
        if all_paths_covered:
            common = set.intersection(*additions) if additions else set()
            state.assigned |= common
            union -= common
        state.maybe |= union

    # ------------------------------------------------------------------
    # post-walk checks
    # ------------------------------------------------------------------

    def _check_hold_release(self) -> None:
        if self._dynamic_tags:
            return
        for tag, (line, col, script_tag) in sorted(self._holds.items()):
            if tag not in self._releases:
                self.out.append(diag.make(
                    "SL008", line, col,
                    f'messages held under tag "{tag}" are never released',
                    "add an xRelease for the tag (held messages are "
                    "dropped at the end of the run)", script=script_tag))
        for tag, (line, col, script_tag) in sorted(self._releases.items()):
            if tag not in self._holds:
                self.out.append(diag.make(
                    "SL008", line, col,
                    f'xRelease tag "{tag}" matches no xHold in this '
                    f"script",
                    "hold and release queues are per-filter: only this "
                    "script's xHold can fill it", script=script_tag))

    def _note_write(self, name: str, offset: int, state: _Scope) -> None:
        """Record a literal ``set`` for the SL011 def-use pass.

        Writes inside proc bodies are exempt: tclish procs share the
        filter interpreter's variable table, so a proc-local write may
        be read by the main script of a later invocation.
        """
        if state.in_proc:
            self._reads_seen.add(name)
            return
        line, col = self._position(offset)
        self._writes.setdefault(name, (line, col, self._script_tag))

    def _check_dead_stores(self) -> None:
        if self._dynamic_vars:
            return
        for name, (line, col, script_tag) in sorted(self._writes.items()):
            if name in self._reads_seen:
                continue
            self.out.append(diag.make(
                "SL011", line, col,
                f'"{name}" is written but never read',
                "remove the assignment, or read the variable where the "
                "value was meant to be used", script=script_tag))


# ----------------------------------------------------------------------
# per-command handlers
# ----------------------------------------------------------------------

def _handle_set(an: Analyzer, command: CommandNode, state: _Scope) -> None:
    if len(command.args) == 2:
        name = command.args[0].literal
        if name:
            state.assigned.add(name)
            an._note_write(name, command.args[0].offset, state)
        else:
            an._dynamic_vars = True
    elif len(command.args) == 1:
        name = command.args[0].literal
        if name:
            an._check_reads([(name, command.args[0].offset)], state)
        else:
            an._dynamic_vars = True


def _handle_define(an: Analyzer, command: CommandNode,
                   state: _Scope) -> None:
    """incr/append/lappend/global define their variable (unset is legal).

    All four observe the variable's prior value (or, for ``global``,
    share it with the harness), so they count as reads for SL011: an
    accumulator that is only ever ``incr``-ed is not a dead store of
    itself, only a plain ``set`` whose value nothing consumes is.
    """
    for word in command.args[:1] if command.name != "global" \
            else command.args:
        name = word.literal
        if name:
            state.assigned.add(name)
            an._reads_seen.add(name)
        else:
            an._dynamic_vars = True


def _handle_unset(an: Analyzer, command: CommandNode, state: _Scope) -> None:
    for word in command.args:
        name = word.literal
        if name:
            state.assigned.discard(name)
            state.maybe.discard(name)
            an._reads_seen.add(name)
        else:
            an._dynamic_vars = True


def _condition_text(word: WordNode) -> str:
    body = word.braced_body()
    text = body[0] if body is not None else (word.literal or word.raw)
    return " ".join(text.split())


def _handle_if(an: Analyzer, command: CommandNode, state: _Scope) -> None:
    args = command.args
    branches: List[_Scope] = []
    has_else = False
    #: a prior clause's condition folded to constant true: everything
    #: after it can never run (SL013, reported once)
    shadowed_by: Optional[WordNode] = None
    i = 0
    while i < len(args):
        condition = args[i]
        guards = an._scan_condition(condition, state)
        folded = an._fold_condition(condition)
        if shadowed_by is not None:
            an._report(
                "SL013", condition.offset,
                f'unreachable clause: the condition '
                f'"{_condition_text(shadowed_by)}" above is constantly '
                f"true", "every earlier clause must be able to fail for "
                "this one to run")
            shadowed_by = None  # one report per if is enough
        elif folded is not None:
            an._report(
                "SL012", condition.offset,
                f'condition "{_condition_text(condition)}" is constantly '
                f'{"true" if folded else "false"}',
                "a constant condition makes one branch dead; drop the "
                "test or make it depend on runtime state")
            if folded:
                shadowed_by = condition
        body_index = i + 1
        if body_index < len(args) and args[body_index].literal == "then":
            body_index += 1
        if body_index >= len(args):
            an._report("SL002", command.offset, 'missing body in "if"',
                       "usage: if cond body ?elseif cond body ...? "
                       "?else body?")
            return
        branch_entry = state.branch()
        branch_entry.maybe |= guards
        branch = an._walk_body_word(args[body_index], branch_entry)
        if branch is not None:
            branches.append(branch)
        i = body_index + 1
        if i < len(args) and args[i].literal == "elseif":
            i += 1
            continue
        if i < len(args) and args[i].literal == "else":
            if i + 1 >= len(args):
                an._report("SL002", command.offset,
                           'missing body after "else"',
                           "usage: if cond body ... else body")
                return
            has_else = True
            if shadowed_by is not None:
                an._report(
                    "SL013", args[i].offset,
                    f'unreachable "else": the condition '
                    f'"{_condition_text(shadowed_by)}" above is '
                    f"constantly true",
                    "every earlier clause must be able to fail for this "
                    "one to run")
            branch = an._walk_body_word(args[i + 1], state.branch())
            if branch is not None:
                branches.append(branch)
        break
    an._merge_branches(state, branches, all_paths_covered=has_else)


def _handle_while(an: Analyzer, command: CommandNode, state: _Scope) -> None:
    if len(command.args) != 2:
        return
    an._scan_condition(command.args[0], state)
    # `while {1} {... break}` is a legal loop idiom, so only the
    # never-runs direction is a finding here
    if an._fold_condition(command.args[0]) is False:
        an._report(
            "SL012", command.args[0].offset,
            f'condition "{_condition_text(command.args[0])}" is '
            f"constantly false: the loop body never runs",
            "a constant condition makes one branch dead; drop the test "
            "or make it depend on runtime state")
    branch = an._walk_body_word(command.args[1], state)
    an._merge_branches(state, [branch], all_paths_covered=False)


def _handle_for(an: Analyzer, command: CommandNode, state: _Scope) -> None:
    if len(command.args) != 4:
        return
    start, test, nxt, body = command.args
    start_body = start.braced_body()
    if start_body is not None:
        an._walk_nested(start_body[0], start_body[1], state)
    an._scan_condition(test, state)
    branch = state.branch()
    for word in (body, nxt):
        wb = word.braced_body()
        if wb is not None:
            an._walk_nested(wb[0], wb[1], branch)
    an._merge_branches(state, [branch], all_paths_covered=False)


def _handle_foreach(an: Analyzer, command: CommandNode,
                    state: _Scope) -> None:
    if len(command.args) != 3:
        return
    var = command.args[0].literal
    branch_entry = state.branch()
    if var:
        branch_entry.assigned.add(var)
        # iterating purely for side effects is legitimate, so the loop
        # variable never counts as a dead store
        an._reads_seen.add(var)
    branch = an._walk_body_word(command.args[2], branch_entry)
    an._merge_branches(state, [branch], all_paths_covered=False)
    if var:
        state.maybe.add(var)


def _handle_proc(an: Analyzer, command: CommandNode, state: _Scope) -> None:
    if len(command.args) != 3:
        return
    params_word = command.args[1]
    body = command.args[2].braced_body()
    if body is None:
        return
    proc_scope = _Scope(in_proc=True)
    proc_scope.assigned |= _param_names(params_word)
    # procs fall back to interpreter globals at read time, so anything
    # the outer script may have set is readable (hence only warnings
    # inside proc bodies -- see _check_reads)
    proc_scope.maybe |= state.assigned | state.maybe
    an._walk_nested(body[0], body[1], proc_scope)


def _handle_catch(an: Analyzer, command: CommandNode, state: _Scope) -> None:
    if not command.args:
        return
    body = command.args[0].braced_body()
    if body is not None:
        branch = state.branch()
        branch.caught = True
        an._walk_nested(body[0], body[1], branch)
        # the body may fail at any point: its assignments are only maybes
        state.maybe |= (branch.assigned | branch.maybe) - state.assigned
    if len(command.args) == 2:
        name = command.args[1].literal
        if name:
            state.assigned.add(name)
            # the capture variable is routinely ignored on purpose
            an._reads_seen.add(name)


def _handle_eval(an: Analyzer, command: CommandNode, state: _Scope) -> None:
    parts = [w.literal for w in command.args]
    if not parts:
        return  # a bare ``eval``: SL002 already said so
    if all(p is not None for p in parts):
        an._walk_nested(" ".join(parts), command.args[0].offset, state)
    else:
        # a computed script can read or write any variable: disable the
        # whole-script def-use verdicts rather than guess
        an._dynamic_vars = True


def _handle_info(an: Analyzer, command: CommandNode, state: _Scope) -> None:
    if len(command.args) >= 2 and command.args[0].literal == "exists":
        name = command.args[1].literal
        if name:
            an._reads_seen.add(name)


def _handle_expr(an: Analyzer, command: CommandNode, state: _Scope) -> None:
    for word in command.args:
        an._scan_condition(word, state)


def _handle_switch(an: Analyzer, command: CommandNode,
                   state: _Scope) -> None:
    args = list(command.args)
    while args and args[0].literal in ("-exact", "-glob", "--"):
        args.pop(0)
    if len(args) != 2:
        return
    body = args[1].braced_body()
    if body is None:
        return
    try:
        pairs = an._parse(body[0], body[1])
    except TclError:
        return
    # the pattern/body list parses as commands: each "command" is one
    # pattern word followed (possibly on the same line) by body words;
    # walking every braced word below covers all bodies
    branches: List[_Scope] = []
    for pair in pairs:
        for word in pair.words:
            wb = word.braced_body()
            if wb is None:
                continue
            branch = state.branch()
            an._walk_nested(wb[0], wb[1], branch)
            branches.append(branch)
    an._merge_branches(state, branches, all_paths_covered=False)


def _literal_numbers(command: CommandNode) -> List[Tuple[float, WordNode]]:
    """The numeric literal args of a command (cur_msg tokens skipped)."""
    numbers = []
    for word in command.args:
        text = word.literal
        if text is None or text == "cur_msg":
            continue
        try:
            numbers.append((float(text), word))
        except ValueError:
            continue
    return numbers


def _handle_chance(an: Analyzer, command: CommandNode,
                   state: _Scope) -> None:
    for value, word in _literal_numbers(command)[:1]:
        if not 0.0 <= value <= 1.0:
            an._report("SL006", word.offset,
                       f"chance {word.literal} is not a probability",
                       "use a value in [0, 1]")


def _handle_exponential(an: Analyzer, command: CommandNode,
                        state: _Scope) -> None:
    for value, word in _literal_numbers(command)[:1]:
        if value <= 0:
            an._report("SL006", word.offset,
                       f"dst_exponential rate {word.literal} must be > 0")


def _handle_uniform(an: Analyzer, command: CommandNode,
                    state: _Scope) -> None:
    numbers = _literal_numbers(command)
    if len(numbers) == 2 and numbers[0][0] > numbers[1][0]:
        an._report("SL006", numbers[0][1].offset,
                   f"dst_uniform bounds {numbers[0][1].literal} > "
                   f"{numbers[1][1].literal} are reversed",
                   severity=diag.WARNING)


def _handle_delay(an: Analyzer, command: CommandNode, state: _Scope) -> None:
    for value, word in _literal_numbers(command)[:1]:
        if value < 0:
            an._report("SL007", word.offset,
                       f"xDelay {word.literal}: a delay cannot be negative")


def _handle_duplicate(an: Analyzer, command: CommandNode,
                      state: _Scope) -> None:
    for value, word in _literal_numbers(command)[:1]:
        if value < 0:
            an._report("SL007", word.offset,
                       f"xDuplicate {word.literal}: copy count cannot be "
                       f"negative")


def _hold_tag(command: CommandNode) -> Optional[str]:
    """The literal hold-queue tag, mirroring ``script._tag_arg``."""
    for word in command.args:
        if word.literal == "cur_msg":
            continue
        return word.literal  # None when dynamic
    return "default"


def _handle_hold(an: Analyzer, command: CommandNode, state: _Scope) -> None:
    tag = _hold_tag(command)
    if tag is None:
        an._dynamic_tags = True
    else:
        line, col = an._position(command.offset)
        an._holds.setdefault(tag, (line, col, an._script_tag))


def _handle_release(an: Analyzer, command: CommandNode,
                    state: _Scope) -> None:
    tag = _hold_tag(command)
    if tag is None:
        an._dynamic_tags = True
    else:
        line, col = an._position(command.offset)
        an._releases.setdefault(tag, (line, col, an._script_tag))


def _record_key(table: Dict[str, Tuple[int, int]], an: Analyzer,
                command: CommandNode) -> None:
    if command.args:
        key = command.args[0].literal
        if key:
            table.setdefault(key, an._position(command.offset))


def _handle_peer_set(an: Analyzer, command: CommandNode,
                     state: _Scope) -> None:
    _record_key(an.summary.peer_set, an, command)


def _handle_peer_get(an: Analyzer, command: CommandNode,
                     state: _Scope) -> None:
    _record_key(an.summary.peer_get, an, command)


def _handle_sync_set(an: Analyzer, command: CommandNode,
                     state: _Scope) -> None:
    _record_key(an.summary.sync_set, an, command)


def _handle_sync_get(an: Analyzer, command: CommandNode,
                     state: _Scope) -> None:
    _record_key(an.summary.sync_get, an, command)


_SPECIAL = {
    "set": _handle_set,
    "incr": _handle_define,
    "append": _handle_define,
    "lappend": _handle_define,
    "global": _handle_define,
    "unset": _handle_unset,
    "if": _handle_if,
    "while": _handle_while,
    "for": _handle_for,
    "foreach": _handle_foreach,
    "proc": _handle_proc,
    "catch": _handle_catch,
    "eval": _handle_eval,
    "info": _handle_info,
    "expr": _handle_expr,
    "switch": _handle_switch,
    "chance": _handle_chance,
    "dst_exponential": _handle_exponential,
    "dst_uniform": _handle_uniform,
    "xDelay": _handle_delay,
    "xDuplicate": _handle_duplicate,
    "xHold": _handle_hold,
    "xRelease": _handle_release,
    "peer_set": _handle_peer_set,
    "peer_get": _handle_peer_get,
    "sync_set": _handle_sync_set,
    "sync_get": _handle_sync_get,
}


def _proc_signature(name: str, params_word: WordNode) -> CommandSignature:
    """Derive an arity signature from a literal proc parameter list."""
    params = _param_list(params_word)
    if params is None:
        return CommandSignature(name, 0, None, name, "user proc")
    required = 0
    unbounded = False
    for i, (pname, has_default) in enumerate(params):
        if pname == "args" and i == len(params) - 1:
            unbounded = True
        elif not has_default:
            required += 1
    max_args = None if unbounded else len(params)
    usage = name + "".join(f" {p}" for p, _ in params)
    return CommandSignature(name, required, max_args, usage, "user proc")


def _param_list(params_word: WordNode):
    """[(name, has_default)] for a literal parameter list, else None."""
    from repro.core.tclish.lexer import split_words, strip_braces
    text = params_word.literal
    if text is None:
        body = params_word.braced_body()
        if body is None:
            return None
        text = body[0]
    try:
        raw_params = split_words(text)
    except TclError:
        return None
    params = []
    for raw in raw_params:
        parts = [strip_braces(w) for w in split_words(strip_braces(raw))]
        if not parts:
            continue
        params.append((parts[0], len(parts) > 1))
    return params


def _param_names(params_word: WordNode) -> Set[str]:
    params = _param_list(params_word)
    if params is None:
        return set()
    return {name for name, _default in params}


def _suggest(name: str, registry: CommandRegistry) -> str:
    matches = difflib.get_close_matches(name, registry.names(), n=1)
    if matches:
        return f'did you mean "{matches[0]}"?'
    return ""
