"""The command registry the analyzer checks scripts against.

A :class:`~repro.core.tclish.stdlib_loader.CommandSignature` describes
one callable command: its name, argument-count bounds, a usage line and
a one-line doc.  Signatures come from three places:

- the tclish stdlib (``stdlib_loader.STDLIB``, which is also what every
  ``Interp`` registers; see :func:`builtin_registry`);
- the PFI bridge (``repro.core.script.PFI_COMMANDS`` -- the table the
  ``@cmd`` decorator fills in; see :func:`default_registry`);
- ``proc`` definitions found in the script under analysis (added by the
  analyzer's pre-pass).

The first two are the declarations ``Interp.call`` enforces, so SL002
and the runtime's ``wrong # args`` are one rule.  ``script.py`` imports
from here, so this module must not import ``repro.core.script`` at
module level (the PFI table is pulled in lazily inside
:func:`default_registry`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.core.tclish import compiler
from repro.core.tclish.stdlib_loader import STDLIB, CommandSignature


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


def builtin_registry() -> CommandRegistry:
    """Signatures for the tclish stdlib only."""
    return CommandRegistry(STDLIB.values())


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
        _DEFAULT = CommandRegistry([*STDLIB.values(),
                                    *PFI_COMMANDS.values()])
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
