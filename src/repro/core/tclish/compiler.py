"""Compile-once representation of tclish scripts.

The paper's execution model re-interprets the filter script for every
intercepted message ("each time a message passes into the PFI layer, the
appropriate (send or receive) script is interpreted").  The *semantics*
require per-message evaluation -- variables change between messages -- but
nothing requires per-message *parsing*, nor per-message *interpretation*:
the command structure of a script is a pure function of its source text.

:func:`compile_script` runs the lexer once, analyses every word and binds
the result into a tree of Python closures, which is all that runs:

- a braced word is stripped and stored verbatim (``LITERAL``);
- a quoted or bare word with no ``$``, ``[`` or ``\\`` is stored as its
  final string (``LITERAL``) -- execution does no substitution at all;
- a word that is exactly ``$name`` / ``${name}`` becomes a direct variable
  read (``VARREF``);
- anything else is pre-tokenised into substitution *segments* -- literal
  text runs (backslash escapes already applied), variable reads, and
  nested command sources -- which the command's closure joins
  (``SEGMENTS``);
- every command becomes one closure that resolves its words and hands
  them to ``Interp.call``; a call of ``if``, ``while``, ``for``,
  ``foreach``, ``catch`` or ``expr`` whose arguments are all literal
  runs that command's compiled *form* directly, as long as the name
  still means the stdlib command;
- every condition and ``expr`` argument is a *template*: its
  unsubstituted text, compiled once into an expression tree whose
  leaves (``$v`` reads, ``[cmd]`` results) resolve at run time (see
  :mod:`repro.core.tclish.expr`);
- a body or ``[...]`` script is a :class:`NestedScript`, compiled on its
  first run, so compiling never recurses however deep the nesting.

:func:`scan_substitution` is the only scanner of the substitution
grammar: :func:`compile_substitution` drops its offsets, the closures
replay its segments, and scriptlint reads its variable reads and nested
scripts, offsets included, from it.

Bounded LRU caches map source strings to compiled scripts and template
texts to compiled templates.  They are module-level and shared by every
:class:`~repro.core.tclish.interp.Interp` in the process: a compiled
object depends only on its text and holds no interpreter, context or
world, so sharing is safe and lets a proc body compiled by one filter be
reused by another.  Per-interpreter counters live on the interpreter
(see ``Interp.stats()``).
"""

from __future__ import annotations

from collections import OrderedDict
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.core.tclish import expr as _expr
from repro.core.tclish.errors import (
    HOST_ERRORS,
    TclBreak,
    TclContinue,
    TclError,
    TclReturn,
    host_error,
)
from repro.core.tclish.lexer import (
    _skip_bracket,
    parse_list,
    split_commands_spanned,
    split_words,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tclish.interp import Interp

#: a compiled piece of script: run against an interpreter, it returns
#: the Tcl result
Runner = Callable[["Interp"], str]

#: Deepest nesting of script evaluations an interpreter allows.  Every
#: :meth:`~repro.core.tclish.interp.Interp.eval`, proc body,
#: control-flow body and ``[...]`` substitution is one level, so one
#: counter covers runaway proc recursion (``proc f {} {f}``) and
#: runaway ``eval`` (``set s {eval $s}; eval $s``) alike.  Either must
#: end as a ``TclError`` the harness can report, not as Python's
#: ``RecursionError`` from deep inside: a level costs about 4-6 Python
#: frames, so 100 levels stay well inside the default 1000-frame stack
#: wherever the filter is called from.
MAX_EVAL_DEPTH = 100

# word kinds
LITERAL = 0     # text is the final word value
VARREF = 1      # text is a variable name, value = interp.get_var(text)
SEGMENTS = 2    # segments is a pre-tokenised substitution program

# segment codes
SEG_TEXT = 0    # payload is literal text (escapes already applied)
SEG_VAR = 1     # payload is a variable name
SEG_CMD = 2     # payload is a nested script source to evaluate

Segment = Tuple[int, str]


class CompiledWord:
    """One analysed word of a command."""

    __slots__ = ("kind", "text", "segments")

    def __init__(self, kind: int, text: str = "",
                 segments: Optional[Tuple[Segment, ...]] = None):
        self.kind = kind
        self.text = text
        self.segments = segments

    def __repr__(self) -> str:
        names = {LITERAL: "lit", VARREF: "var", SEGMENTS: "subst"}
        detail = self.text if self.kind != SEGMENTS else self.segments
        return f"CompiledWord({names[self.kind]}, {detail!r})"


class CompiledCommand:
    """One command: the analysed words in order, and the 1-based line of
    its script it starts on."""

    __slots__ = ("words", "line")

    def __init__(self, words: List[CompiledWord], line: int = 1):
        self.words = words
        self.line = line

    def __repr__(self) -> str:
        return f"CompiledCommand({self.words!r})"


def _needs_substitution(text: str) -> bool:
    """True if the text contains any substitution trigger."""
    return "$" in text or "[" in text or "\\" in text


def _scan_varname(text: str, i: int):
    """Parse ``$name`` or ``${name}`` starting at index i (the '$')."""
    n = len(text)
    if i + 1 >= n:
        return None, i + 1
    if text[i + 1] == "{":
        j = text.find("}", i + 2)
        if j < 0:
            raise TclError("unmatched ${")
        return text[i + 2:j], j + 1
    j = i + 1
    while j < n and (text[j].isalnum() or text[j] == "_"):
        j += 1
    if j == i + 1:
        return None, i + 1
    return text[i + 1:j], j


_BACKSLASH_MAP = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", '"': '"',
                  "$": "$", "[": "[", "]": "]", "{": "{", "}": "}",
                  ";": ";", " ": " ", "\n": ""}


def _backslash(ch: str) -> str:
    return _BACKSLASH_MAP.get(ch, ch)


def scan_substitution(text: str) -> List[Tuple[int, str, int]]:
    """Tokenise a substitution string into ``(code, payload, offset)``.

    Tcl's substitution rules: backslash escapes, ``$name`` / ``${name}``
    variable reads, and ``[script]`` command substitution.  Adjacent
    literal text (including resolved escapes) is merged into one
    ``SEG_TEXT`` run.  ``offset`` is where the segment starts in
    ``text``: the ``$`` of a read, the first character inside the
    brackets of a nested script.
    """
    spans: List[Tuple[int, str, int]] = []
    text_run: List[str] = []
    run_start = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n:
            text_run.append(_backslash(text[i + 1]))
            i += 2
        elif ch == "$":
            start = i
            name, i = _scan_varname(text, i)
            if name is None:
                text_run.append("$")
                continue
            if text_run:
                spans.append((SEG_TEXT, "".join(text_run), run_start))
                text_run = []
            spans.append((SEG_VAR, name, start))
            run_start = i
        elif ch == "[":
            try:
                end = _skip_bracket(text, i)
            except TclError:
                raise TclError(
                    "unmatched open bracket in substitution") from None
            if text_run:
                spans.append((SEG_TEXT, "".join(text_run), run_start))
                text_run = []
            spans.append((SEG_CMD, text[i + 1:end - 1], i + 1))
            i = run_start = end
        else:
            text_run.append(ch)
            i += 1
    if text_run:
        spans.append((SEG_TEXT, "".join(text_run), run_start))
    return spans


def compile_substitution(text: str) -> Tuple[Segment, ...]:
    """Pre-tokenise a substitution string into segments (no offsets)."""
    return tuple((code, payload)
                 for code, payload, _offset in scan_substitution(text))


def _analyze_plain(text: str) -> CompiledWord:
    """Analyse a substitution-subject string (bare word or quoted body)."""
    if not _needs_substitution(text):
        return CompiledWord(LITERAL, text)
    segments = compile_substitution(text)
    if not segments:
        return CompiledWord(LITERAL, "")
    if len(segments) == 1:
        code, payload = segments[0]
        if code == SEG_TEXT:
            return CompiledWord(LITERAL, payload)
        if code == SEG_VAR:
            return CompiledWord(VARREF, payload)
    return CompiledWord(SEGMENTS, text, segments)


def analyze_word(raw: str) -> CompiledWord:
    """Analyse one raw word: braces quote verbatim, double quotes (or
    none) substitute."""
    if len(raw) >= 2 and raw[0] == "{" and raw[-1] == "}":
        return CompiledWord(LITERAL, raw[1:-1])
    if len(raw) >= 2 and raw[0] == '"' and raw[-1] == '"':
        return _analyze_plain(raw[1:-1])
    return _analyze_plain(raw)


class CompiledScript:
    """A parsed script: the command list, the source it came from, and
    ``run(interp)``, the closure that evaluates it as one nesting level."""

    __slots__ = ("source", "commands", "run")

    def __init__(self, source: str, commands: List[CompiledCommand]):
        self.source = source
        self.commands = commands
        self.run = _script(commands)

    def __repr__(self) -> str:
        return f"CompiledScript({len(self.commands)} commands)"


class NestedScript:
    """A body or ``[...]`` script inside a compiled one.

    ``run(interp)`` compiles the source on the first call, through the
    interpreter (so its cache counters see it) and the shared cache, and
    from then on is the compiled script's own ``run``.
    """

    __slots__ = ("source", "run")

    def __init__(self, source: str):
        self.source = source
        self.run = self._first_run

    def _first_run(self, interp: "Interp") -> str:
        script = interp.compile(self.source)
        self.run = script.run
        return script.run(interp)


class _Fails:
    """A body that is missing: running it raises ``message``."""

    __slots__ = ("message",)

    def __init__(self, message: str):
        self.message = message

    def run(self, interp: "Interp") -> str:
        raise TclError(self.message)


def compile_script(source: str) -> CompiledScript:
    """Parse a script into its compiled form.  Pure: no interpreter state."""
    commands = []
    line, counted = 1, 0
    for command, offset in split_commands_spanned(source):
        words = [analyze_word(raw) for raw in split_words(command)]
        if words:
            line += source.count("\n", counted, offset)
            counted = offset
            commands.append(CompiledCommand(words, line))
    return CompiledScript(source, commands)


# ----------------------------------------------------------------------
# closures
# ----------------------------------------------------------------------

def _script(commands: List[CompiledCommand]) -> Runner:
    """One nesting level running ``commands`` in order: the
    :data:`MAX_EVAL_DEPTH` check, the ``eval_count`` tick, and a fresh
    loop budget when the level is the top one.

    A level of one literal command that is not a control command (a
    ``[msg_type cur_msg]``, an ``{ xDrop cur_msg }`` body) is one
    closure: the level's bookkeeping around the command's own call.
    """
    if len(commands) == 1:
        words = commands[0].words
        if (all(word.kind == LITERAL for word in words)
                and words[0].text not in FORMS):
            return _literal_level(words, commands[0].line)
    runners = [_command(command.words, command.line) for command in commands]
    only = runners[0] if len(runners) == 1 else None

    def run(interp: "Interp") -> str:
        depth = interp._depth
        if depth >= MAX_EVAL_DEPTH:
            raise TclError("too many nested evaluations (infinite loop?)")
        if not depth:
            interp._iterations = 0
        interp.eval_count += 1
        interp._depth = depth + 1
        try:
            if only is not None:
                return only(interp)
            result = ""
            for command in runners:
                result = command(interp)
            return result
        finally:
            interp._depth = depth
    return run


def _literal_level(words: List[CompiledWord], line: int) -> Runner:
    """:func:`_script`'s level and :func:`_command`'s ``literal``
    closure as one closure, for a level of one literal command."""
    name = words[0].text
    args = tuple(word.text for word in words[1:])

    def run(interp: "Interp") -> str:
        depth = interp._depth
        if depth >= MAX_EVAL_DEPTH:
            raise TclError("too many nested evaluations (infinite loop?)")
        if not depth:
            interp._iterations = 0
        interp.eval_count += 1
        interp._depth = depth + 1
        try:
            if interp.profiler is None:
                return interp.call(name, [*args])
            return _profiled(interp, name, [*args])
        except TclError as err:
            err.line = line
            raise
        finally:
            interp._depth = depth
    return run


# how a command closure resolves one word
_TEXT, _VAR, _NESTED, _JOIN = range(4)


def _bind_word(word: CompiledWord) -> Tuple[int, Any]:
    if word.kind == LITERAL:
        return _TEXT, word.text
    if word.kind == VARREF:
        return _VAR, word.text
    if len(word.segments) == 1:  # exactly one [cmd]
        return _NESTED, NestedScript(word.segments[0][1])
    return _JOIN, _bind_segments(word.segments)


def _bind_segments(segments) -> Tuple[Tuple[int, Any], ...]:
    return tuple((_TEXT, payload) if code == SEG_TEXT
                 else (_VAR, payload) if code == SEG_VAR
                 else (_NESTED, NestedScript(payload))
                 for code, payload in segments)


def _joined(interp: "Interp", pieces) -> str:
    parts = []
    for kind, payload in pieces:
        if kind == _TEXT:
            parts.append(payload)
        elif kind == _VAR:
            parts.append(interp.get_var(payload))
        else:
            parts.append(payload.run(interp))
    return "".join(parts)


def _profiled(interp: "Interp", name: str, args: List[str]) -> str:
    """``Interp.call`` timed into the interpreter's profiler."""
    start = perf_counter()
    result = interp.call(name, args)
    interp.profiler.record_command(name, perf_counter() - start)
    return result


def _command(words: List[CompiledWord], line: int = 1) -> Runner:
    """The closure for one command, starting on ``line`` of its script.

    A :class:`TclError` leaving the closure takes ``line`` with it, so
    the error leaving a whole script names the line of its outermost
    command.
    """
    bound = [_bind_word(word) for word in words]
    if any(kind != _TEXT for kind, _payload in bound):
        def command(interp: "Interp") -> str:
            try:
                values = []
                for kind, payload in bound:
                    if kind == _TEXT:
                        values.append(payload)
                    elif kind == _VAR:
                        values.append(interp.get_var(payload))
                    elif kind == _NESTED:
                        values.append(payload.run(interp))
                    else:
                        values.append(_joined(interp, payload))
                if interp.profiler is None:
                    return interp.call(values[0], values[1:])
                return _profiled(interp, values[0], values[1:])
            except TclError as err:
                err.line = line
                if err.command is None and values:  # a substitution failed
                    err.command = values[0]
                raise
        return command

    name = words[0].text
    args = tuple(word.text for word in words[1:])

    def literal(interp: "Interp") -> str:
        try:
            if interp.profiler is None:
                return interp.call(name, [*args])
            return _profiled(interp, name, [*args])
        except TclError as err:
            err.line = line
            raise

    build = FORMS.get(name)
    if build is None:
        return literal
    # imported here: the stdlib's control commands build their forms
    # through this module
    from repro.core.tclish.stdlib_loader import STDLIB
    signature = STDLIB[name]
    if not signature.accepts(len(args)):
        return literal  # Interp.call reports the arity
    form = build(args)

    def control(interp: "Interp") -> str:
        # the name is resolved now, procs first, exactly as Interp.call
        # would; anything but the stdlib command goes through the call
        if (interp.profiler is not None or name in interp.procs
                or interp.commands.get(name) is not signature):
            return literal(interp)
        try:
            return form(interp)
        except HOST_ERRORS as err:
            error = host_error(name, err)
            error.line = line
            raise error from err
        except TclError as err:
            err.line = line
            if err.command is None:
                err.command = name
            raise
    return control


# ----------------------------------------------------------------------
# control forms: each control command's semantics, once
# ----------------------------------------------------------------------

def _test(value: _expr.Value) -> bool:
    return value if value.__class__ is int else _expr.truth(value)


def build_if(args) -> Runner:
    """``if cond ?then? body ?elseif cond ?then? body ...? ?else body?``"""
    clauses = []
    otherwise = None
    count = len(args)
    i = 0
    while i < count:
        body_index = i + 1
        if body_index < count and args[body_index] == "then":
            body_index += 1
        body = (NestedScript(args[body_index]) if body_index < count
                else _Fails('missing body in "if"'))
        clauses.append((lookup_template(args[i]), body))
        i += 2
        if i < count and args[i - 1] == "then":
            i += 1
        if i < count and args[i] == "elseif":
            i += 1
            continue
        if i < count and args[i] == "else":
            otherwise = (NestedScript(args[i + 1]) if i + 1 < count
                         else _Fails('missing body after "else"'))
        break

    def form(interp: "Interp") -> str:
        for condition, body in clauses:
            value = condition(interp)
            # _test, inline: an if condition is the commonest test
            if value if value.__class__ is int else _expr.truth(value):
                return body.run(interp)
        if otherwise is not None:
            return otherwise.run(interp)
        return ""
    return form


def build_while(args) -> Runner:
    """``while test body``"""
    condition = lookup_template(args[0])
    body = NestedScript(args[1])

    def form(interp: "Interp") -> str:
        while _test(condition(interp)):
            interp.count_iteration()
            try:
                body.run(interp)
            except TclBreak:
                break
            except TclContinue:
                continue
        return ""
    return form


def build_for(args) -> Runner:
    """``for start test next body``"""
    start = NestedScript(args[0])
    condition = lookup_template(args[1])
    step = NestedScript(args[2])
    body = NestedScript(args[3])

    def form(interp: "Interp") -> str:
        start.run(interp)
        while _test(condition(interp)):
            interp.count_iteration()
            try:
                body.run(interp)
            except TclBreak:
                break
            except TclContinue:
                pass
            step.run(interp)
        return ""
    return form


def build_foreach(args) -> Runner:
    """``foreach varList list ?varList list ...? body``: each pass takes
    the next ``len(varList)`` elements of every list, ``""`` for an
    element a list has run out of; the longest list sets the passes."""
    pairs = [(args[i], args[i + 1]) for i in range(0, len(args) - 1, 2)]
    body = NestedScript(args[-1])

    def form(interp: "Interp") -> str:
        lanes = []
        for names_text, list_text in pairs:
            names = parse_list(names_text)
            if not names:
                raise TclError("foreach varlist is empty")
            lanes.append((names, parse_list(list_text)))
        passes = max(-(-len(values) // len(names))
                     for names, values in lanes)
        for turn in range(passes):
            interp.count_iteration()
            for names, values in lanes:
                at = turn * len(names)
                for offset, name in enumerate(names):
                    interp.set_var(name, values[at + offset]
                                   if at + offset < len(values) else "")
            try:
                body.run(interp)
            except TclBreak:
                break
            except TclContinue:
                continue
        return ""
    return form


def build_catch(args) -> Runner:
    """``catch script ?varName?``: Tcl's result code -- 0 ok, 1 error,
    2 return, 3 break, 4 continue."""
    body = NestedScript(args[0])
    name = args[1] if len(args) == 2 else None

    def form(interp: "Interp") -> str:
        try:
            result = body.run(interp)
            code = "0"
        except TclError as err:
            result = str(err)
            code = "1"
        except TclReturn as ret:
            result = ret.value
            code = "2"
        except TclBreak:
            result, code = "", "3"
        except TclContinue:
            result, code = "", "4"
        if name is not None:
            interp.set_var(name, result)
        return code
    return form


def build_expr(args) -> Runner:
    """``expr arg ?arg ...?``: the arguments joined are one template."""
    template = lookup_template(" ".join(args))
    return lambda interp: _expr.format_value(template(interp))


#: command name -> builder of its compiled form from literal arguments
FORMS = {"if": build_if, "while": build_while, "for": build_for,
         "foreach": build_foreach, "catch": build_catch, "expr": build_expr}


# ----------------------------------------------------------------------
# templates
# ----------------------------------------------------------------------

#: a compiled template: run against an interpreter, it returns the
#: expression's value
Template = Callable[["Interp"], _expr.Value]


def _substituted(interp: "Interp", parts, leaves, values=None) -> str:
    """The template's text with every leaf substituted (``values``: the
    leaves already resolved, in order)."""
    if values is None:
        values = [interp.get_var(payload) if is_var else payload.run(interp)
                  for is_var, payload in leaves]
    resolved = iter(values)
    return "".join(part if part is not None else next(resolved)
                   for part in parts)


def compile_template(text: str) -> Template:
    """Compile the unsubstituted text of a condition or ``expr``
    argument.  Pure: errors the text holds are raised when it runs."""
    try:
        segments = (compile_substitution(text) if _needs_substitution(text)
                    else ((SEG_TEXT, text),))
    except TclError as err:
        message = str(err)

        def fails(interp: "Interp") -> _expr.Value:
            raise TclError(message)
        return fails
    parts: List[Optional[str]] = []
    leaves = []
    for code, payload in segments:
        if code == SEG_TEXT:
            parts.append(payload)
        else:
            parts.append(None)
            leaves.append((code == SEG_VAR, payload if code == SEG_VAR
                           else NestedScript(payload)))
    if not leaves:
        whole = "".join(parts)
        try:
            root, consts = _expr.compile_tokens(_expr.tokenize(whole))
        except TclError:
            return lambda interp: _expr.evaluate(whole)
        return lambda interp: root(consts)
    tokens = _expr.template_tokens(parts)
    try:
        root, consts = _expr.compile_tokens(tokens, len(leaves)) \
            if tokens is not None else (None, ())
    except TclError:
        root = None
    if root is None:
        return lambda interp: _expr.evaluate(
            _substituted(interp, parts, leaves))
    operand_of = _expr.operand_of
    known = _expr.OPERANDS.get
    not_simple = _expr.NOT_SIMPLE

    if len(leaves) == 1:
        (is_var, payload), = leaves

        def single(interp: "Interp") -> _expr.Value:
            value = (interp.get_var(payload) if is_var
                     else payload.run(interp))
            operand = known(value, not_simple)
            if operand is not_simple:
                operand = operand_of(value)
                if operand is not_simple:
                    return _expr.evaluate(
                        _substituted(interp, parts, leaves, [value]))
            return root((operand, *consts))
        return single

    def template(interp: "Interp") -> _expr.Value:
        values = [interp.get_var(payload) if is_var else payload.run(interp)
                  for is_var, payload in leaves]
        operands = []
        for value in values:
            operand = operand_of(value)
            if operand is not_simple:
                return _expr.evaluate(
                    _substituted(interp, parts, leaves, values))
            operands.append(operand)
        return root((*operands, *consts))
    return template


# ----------------------------------------------------------------------
# the shared caches
# ----------------------------------------------------------------------

#: Maximum number of distinct sources (and, separately, templates) kept
#: compiled.  Filter scripts, proc bodies, control-flow blocks and
#: conditions are a handful of stable strings; the bound exists so
#: dynamically built ``eval`` strings and conditions cannot grow the
#: caches without limit.
CACHE_MAX = 1024

_CACHE: "OrderedDict[str, CompiledScript]" = OrderedDict()


def lookup(source: str) -> Tuple[CompiledScript, bool]:
    """Fetch (compiling on miss) the compiled form; returns (script, hit)."""
    cached = _CACHE.get(source)
    if cached is not None:
        _CACHE.move_to_end(source)
        return cached, True
    compiled = compile_script(source)
    _CACHE[source] = compiled
    if len(_CACHE) > CACHE_MAX:
        _CACHE.popitem(last=False)
    return compiled, False


_TEMPLATES: "OrderedDict[str, Template]" = OrderedDict()


def lookup_template(text: str) -> Template:
    """Fetch (compiling on miss) the compiled form of a template.

    Static conditions are looked up once, when their command compiles;
    a control command whose arguments are dynamic looks its conditions
    up on every call.
    """
    cached = _TEMPLATES.get(text)
    if cached is not None:
        _TEMPLATES.move_to_end(text)
        return cached
    template = compile_template(text)
    _TEMPLATES[text] = template
    if len(_TEMPLATES) > CACHE_MAX:
        _TEMPLATES.popitem(last=False)
    return template


#: scriptlint verdicts, keyed ``(source, init_script, predefined)``.  The
#: analysis is a pure function of that key and the default command
#: registry, so the memo lives beside the compile caches (same bound,
#: same LRU, same ``clear_cache``) and
#: :func:`~repro.core.tclish.lint.registry.forget_default` empties it
#: whenever the registry it was judged against changes.
_LINT_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()


def lookup_verdict(key: tuple, analyze: Callable[[], tuple]) -> tuple:
    """Fetch (analyzing on miss) the lint verdict stored under ``key``.

    The compiler knows nothing about lint: ``analyze`` is the caller's
    thunk and its result -- an immutable tuple of diagnostics -- is what
    every later call with the same key gets back.
    """
    cached = _LINT_CACHE.get(key)
    if cached is not None:
        _LINT_CACHE.move_to_end(key)
        return cached
    verdict = analyze()
    _LINT_CACHE[key] = verdict
    if len(_LINT_CACHE) > CACHE_MAX:
        _LINT_CACHE.popitem(last=False)
    return verdict


def cache_size() -> int:
    """Number of compiled scripts currently cached."""
    return len(_CACHE)


def cache_stats() -> dict:
    """Occupancy of every compile-path cache, for metrics snapshots."""
    return {"script_cache": len(_CACHE),
            "template_cache": len(_TEMPLATES),
            "lint_cache": len(_LINT_CACHE),
            "cache_max": CACHE_MAX}


def clear_cache() -> None:
    """Drop every cached compilation, leaf verdict and lint verdict
    (tests and long-lived processes)."""
    from repro.core.tclish.lint import registry as _registry
    _CACHE.clear()
    _TEMPLATES.clear()
    _expr.OPERANDS.clear()
    _registry.forget_default()
