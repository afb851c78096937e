"""The command registry the analyzer checks scripts against.

A :class:`CommandSignature` describes one callable command: its name,
argument-count bounds, a usage line, and a one-line doc.  Signatures come
from three places:

- the tclish stdlib (:func:`builtin_registry`, declared here);
- the PFI bridge (``repro.core.script.PFI_COMMANDS`` -- the single source
  of truth the ``@cmd`` decorator fills in; see :func:`default_registry`);
- ``proc`` definitions found in the script under analysis (added by the
  analyzer's pre-pass).

``script.py`` imports :class:`CommandSignature` from here, so this module
must not import ``repro.core.script`` at module level (the PFI table is
pulled in lazily inside :func:`default_registry`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.core.tclish import compiler


@dataclass(frozen=True)
class CommandSignature:
    """Name, arity bounds and documentation for one command."""

    name: str
    min_args: int = 0
    max_args: Optional[int] = None   # None = unbounded
    usage: str = ""
    doc: str = ""

    def accepts(self, count: int) -> bool:
        """True when a call with ``count`` arguments is well-formed."""
        if count < self.min_args:
            return False
        return self.max_args is None or count <= self.max_args

    def arity_text(self) -> str:
        """Human form of the accepted argument range."""
        if self.max_args is None:
            return f"at least {self.min_args}"
        if self.min_args == self.max_args:
            return str(self.min_args)
        return f"{self.min_args} to {self.max_args}"


class CommandRegistry:
    """A mutable name -> signature mapping for one analysis run."""

    def __init__(self, signatures: Iterable[CommandSignature] = ()):
        self._by_name: Dict[str, CommandSignature] = {}
        for signature in signatures:
            self.add(signature)

    def add(self, signature: CommandSignature) -> None:
        self._by_name[signature.name] = signature

    def get(self, name: str) -> Optional[CommandSignature]:
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self):
        return sorted(self._by_name)

    def copy(self) -> "CommandRegistry":
        fresh = CommandRegistry()
        fresh._by_name.update(self._by_name)
        return fresh


def _sig(name: str, min_args: int, max_args: Optional[int],
         usage: str) -> CommandSignature:
    return CommandSignature(name, min_args, max_args, usage)


#: arity of every stdlib command (mirrors ``stdlib_loader.install``)
_BUILTINS = (
    _sig("set", 1, 2, "set varName ?newValue?"),
    _sig("unset", 1, None, "unset varName ?varName ...?"),
    _sig("incr", 1, 2, "incr varName ?increment?"),
    _sig("append", 1, None, "append varName ?value ...?"),
    _sig("expr", 1, None, "expr arg ?arg ...?"),
    _sig("if", 2, None, "if cond body ?elseif cond body ...? ?else body?"),
    _sig("while", 2, 2, "while test body"),
    _sig("for", 4, 4, "for start test next body"),
    _sig("foreach", 3, 3, "foreach varName list body"),
    _sig("proc", 3, 3, "proc name params body"),
    _sig("return", 0, 1, "return ?value?"),
    _sig("break", 0, 0, "break"),
    _sig("continue", 0, 0, "continue"),
    _sig("global", 1, None, "global varName ?varName ...?"),
    _sig("puts", 0, 2, "puts ?-nonewline? string"),
    _sig("eval", 1, None, "eval arg ?arg ...?"),
    _sig("catch", 1, 2, "catch script ?varName?"),
    _sig("list", 0, None, "list ?value ...?"),
    _sig("lindex", 2, 2, "lindex list index"),
    _sig("llength", 1, 1, "llength list"),
    _sig("lappend", 1, None, "lappend varName ?value ...?"),
    _sig("lrange", 3, 3, "lrange list first last"),
    _sig("lsearch", 2, 2, "lsearch list pattern"),
    _sig("lsort", 1, None, "lsort ?options? list"),
    _sig("lreplace", 3, None, "lreplace list first last ?element ...?"),
    _sig("lrepeat", 2, None, "lrepeat count ?element ...?"),
    _sig("switch", 2, None, "switch ?options? value {pattern body ...}"),
    _sig("concat", 0, None, "concat ?arg ...?"),
    _sig("split", 1, 2, "split string ?splitChars?"),
    _sig("join", 1, 2, "join list ?joinString?"),
    _sig("string", 2, None, "string option arg ?arg ...?"),
    _sig("format", 1, None, "format formatString ?arg ...?"),
    _sig("info", 1, 2, "info option ?arg?"),
    _sig("error", 0, 1, "error ?message?"),
)


def builtin_registry() -> CommandRegistry:
    """Signatures for the tclish stdlib only."""
    return CommandRegistry(_BUILTINS)


#: stdlib + PFI bridge, built on first use and handed out as copies
_DEFAULT: Optional[CommandRegistry] = None


def default_registry() -> CommandRegistry:
    """Stdlib plus the PFI bridge commands -- what a filter script sees.

    Built once per process; every call returns its own copy, so callers
    (and each :class:`~repro.core.tclish.lint.checks.Analyzer`, which adds
    the script's procs) may mutate what they get.
    """
    global _DEFAULT
    if _DEFAULT is None:
        from repro.core.script import PFI_COMMANDS
        _DEFAULT = CommandRegistry(_BUILTINS + tuple(PFI_COMMANDS.values()))
    return _DEFAULT.copy()


def forget_default() -> None:
    """Drop the built default registry and every verdict judged against it.

    Called by the one place the command surface grows -- the ``@cmd``
    decorator in :mod:`repro.core.script` -- and by
    :func:`repro.core.tclish.compiler.clear_cache`.
    """
    global _DEFAULT
    _DEFAULT = None
    compiler._LINT_CACHE.clear()
