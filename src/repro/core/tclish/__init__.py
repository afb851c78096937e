"""tclish: a small Tcl-like interpreter for PFI filter scripts.

The paper argues that "inventing a new scripting language is not the
solution.  Instead, modifying and supporting a popular interpreted language
with a collection of predefined libraries gives the user a very effective
tool", and chose Tcl.  This package is a from-scratch implementation of the
Tcl subset those filter scripts need:

- command/word syntax with ``{}`` (no substitution), ``""`` (substitution),
  ``[]`` (command substitution), ``$var``/``${var}``, ``\\`` escapes, ``;``
  and newline command separators, ``#`` comments;
- control flow: ``if``/``elseif``/``else``, ``while``, ``for``,
  ``foreach``, ``break``, ``continue``, ``proc``/``return``/``global``,
  ``catch``, ``eval``;
- data: ``set``/``unset``/``append``/``incr``, lists (``list``,
  ``lindex``, ``llength``, ``lappend``, ``lrange``, ``concat``,
  ``split``, ``join``), ``string`` operations, ``format``;
- arithmetic via ``expr`` with its own substitution pass, so the idiomatic
  ``expr {$x + 1}`` works.

State (variables and procs) persists inside an :class:`Interp` across
evaluations, exactly like the paper's per-filter Tcl interpreter objects:
"since state of variables is stored in the interpreter object, the value of
this count is persistent across messages."

Protocol-facing commands (``msg_type``, ``xDrop``, ``msg_log``, ...) are not
defined here; the PFI layer declares them the way
:mod:`~repro.core.tclish.stdlib_loader` declares the stdlib and adds
them to :attr:`Interp.commands` (see :mod:`repro.core.script`).
"""

from repro.core.tclish.compiler import (
    CompiledScript,
    clear_cache,
    compile_script,
)
from repro.core.tclish.errors import (
    TclBreak,
    TclContinue,
    TclError,
    TclReturn,
)
from repro.core.tclish.interp import Interp

__all__ = [
    "CompiledScript",
    "Interp",
    "TclBreak",
    "TclContinue",
    "TclError",
    "TclReturn",
    "clear_cache",
    "compile_script",
]
