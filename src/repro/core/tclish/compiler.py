"""Compile-once representation of tclish scripts.

The paper's execution model re-interprets the filter script for every
intercepted message ("each time a message passes into the PFI layer, the
appropriate (send or receive) script is interpreted").  The *semantics*
require per-message evaluation -- variables change between messages -- but
nothing requires per-message *parsing*: the command structure of a script
is a pure function of its source text.

:func:`compile_script` runs the lexer once and analyses every word:

- a braced word is stripped and stored verbatim (``LITERAL``);
- a quoted or bare word with no ``$``, ``[`` or ``\\`` is stored as its
  final string (``LITERAL``) -- execution does no substitution at all;
- a word that is exactly ``$name`` / ``${name}`` becomes a direct variable
  read (``VARREF``);
- anything else is pre-tokenised into substitution *segments* -- literal
  text runs (backslash escapes already applied), variable reads, and
  nested command sources -- so runtime substitution is a join over
  resolved segments instead of a character scan (``SEGMENTS``).

:func:`compile_substitution` is the only scanner of the substitution
grammar; ``Interp.substitute`` replays its segments too.

A bounded LRU cache maps source strings to compiled scripts.  The cache is
module-level and shared by every :class:`~repro.core.tclish.interp.Interp`
in the process: compilation depends only on the source text, never on
interpreter state, so sharing is safe and lets a proc body compiled by one
filter be reused by another.  Per-interpreter hit/miss counters live on
the interpreter (see ``Interp.stats()``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional, Tuple

from repro.core.tclish.errors import TclError
from repro.core.tclish.lexer import split_commands, split_words

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
    """One command: the analysed words in order."""

    __slots__ = ("words",)

    def __init__(self, words: List[CompiledWord]):
        self.words = words

    def __repr__(self) -> str:
        return f"CompiledCommand({self.words!r})"


class CompiledScript:
    """A parsed script: the command list plus the source it came from."""

    __slots__ = ("source", "commands")

    def __init__(self, source: str, commands: List[CompiledCommand]):
        self.source = source
        self.commands = commands

    def __repr__(self) -> str:
        return f"CompiledScript({len(self.commands)} commands)"


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


def compile_substitution(text: str) -> Tuple[Segment, ...]:
    """Pre-tokenise a substitution string into segments.

    Tcl's substitution rules: backslash escapes, ``$name`` / ``${name}``
    variable reads, and ``[script]`` command substitution.  Adjacent
    literal text (including resolved escapes) is merged into one
    ``SEG_TEXT`` run.
    """
    segments: List[Segment] = []
    text_run: List[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n:
            text_run.append(_backslash(text[i + 1]))
            i += 2
        elif ch == "$":
            name, i = _scan_varname(text, i)
            if name is None:
                text_run.append("$")
            else:
                if text_run:
                    segments.append((SEG_TEXT, "".join(text_run)))
                    text_run = []
                segments.append((SEG_VAR, name))
        elif ch == "[":
            depth = 0
            j = i
            while j < n:
                if text[j] == "\\" and j + 1 < n:
                    j += 2
                    continue
                if text[j] == "[":
                    depth += 1
                elif text[j] == "]":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if depth != 0:
                raise TclError("unmatched open bracket in substitution")
            if text_run:
                segments.append((SEG_TEXT, "".join(text_run)))
                text_run = []
            segments.append((SEG_CMD, text[i + 1:j]))
            i = j + 1
        else:
            text_run.append(ch)
            i += 1
    if text_run:
        segments.append((SEG_TEXT, "".join(text_run)))
    return tuple(segments)


def _simple_varname(word: str) -> Optional[str]:
    """The variable name if the word is exactly ``$name`` or ``${name}``."""
    if len(word) < 2 or word[0] != "$":
        return None
    if word[1] == "{":
        if word[-1] == "}" and "}" not in word[2:-1]:
            return word[2:-1]
        return None
    rest = word[1:]
    if all(c.isalnum() or c == "_" for c in rest):
        return rest
    return None


def _analyze_plain(text: str) -> CompiledWord:
    """Analyse a substitution-subject string (bare word or quoted body)."""
    if not _needs_substitution(text):
        return CompiledWord(LITERAL, text)
    name = _simple_varname(text)
    if name is not None:
        return CompiledWord(VARREF, name)
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


def compile_script(source: str) -> CompiledScript:
    """Parse a script into its compiled form.  Pure: no interpreter state."""
    commands = []
    for command in split_commands(source):
        words = [analyze_word(raw) for raw in split_words(command)]
        if words:
            commands.append(CompiledCommand(words))
    return CompiledScript(source, commands)


# ----------------------------------------------------------------------
# the shared compile cache
# ----------------------------------------------------------------------

#: Maximum number of distinct sources kept compiled.  Filter scripts,
#: proc bodies and control-flow blocks are a handful of stable strings;
#: the bound exists so dynamically built ``eval`` strings cannot grow the
#: cache without limit.
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


_SUBST_CACHE: "OrderedDict[str, Tuple[Segment, ...]]" = OrderedDict()


def lookup_substitution(text: str) -> Tuple[Segment, ...]:
    """Fetch (tokenising on miss) the segment form of a substitution string.

    Serves direct ``Interp.substitute`` callers -- ``if``/``while``
    conditions and ``expr`` bodies are stable strings re-substituted on
    every iteration.
    """
    cached = _SUBST_CACHE.get(text)
    if cached is not None:
        return cached
    segments = compile_substitution(text)
    _SUBST_CACHE[text] = segments
    if len(_SUBST_CACHE) > CACHE_MAX:
        _SUBST_CACHE.popitem(last=False)
    return segments


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
            "substitution_cache": len(_SUBST_CACHE),
            "lint_cache": len(_LINT_CACHE),
            "cache_max": CACHE_MAX}


def clear_cache() -> None:
    """Drop every cached compilation and lint verdict (tests and
    long-lived processes)."""
    from repro.core.tclish import expr as _expr
    from repro.core.tclish.lint import registry as _registry
    _CACHE.clear()
    _SUBST_CACHE.clear()
    _expr._EVAL_CACHE.clear()
    _registry.forget_default()
