"""Exceptions used by the tclish interpreter.

``TclReturn``/``TclBreak``/``TclContinue`` implement non-local control flow
the way Tcl's own core does (result codes threaded out of nested
evaluation); Python exceptions are the natural encoding.
"""

from __future__ import annotations


class TclError(Exception):
    """A script error: unknown command, bad syntax, bad operand, ...

    On its way out of a compiled script an error is located:
    ``command`` is the innermost command it escaped from (the first
    :meth:`~repro.core.tclish.interp.Interp.call` it crossed) and
    ``line`` the 1-based line, in the outermost script, of the command
    that was running; both stay ``None`` for an error no command ran
    into (a ``break`` left over at top level).
    """

    command = None
    line = None


class TclReturn(Exception):
    """Raised by the ``return`` command; carries the return value."""

    def __init__(self, value: str = ""):
        super().__init__(value)
        self.value = value


class TclBreak(Exception):
    """Raised by ``break`` inside a loop body."""


class TclContinue(Exception):
    """Raised by ``continue`` inside a loop body."""


#: the control flow a whole script can end with (see :func:`script_result`)
CONTROL_FLOW = (TclReturn, TclBreak, TclContinue)


def script_result(flow: Exception) -> str:
    """What a :data:`CONTROL_FLOW` exception leaving a whole script means.

    A top-level ``return`` ends the script with its value, as it ends a
    sourced Tcl file; ``break`` or ``continue`` outside any loop is
    Tcl's own error.
    """
    if isinstance(flow, TclReturn):
        return flow.value
    name = "break" if isinstance(flow, TclBreak) else "continue"
    raise TclError(f'invoked "{name}" outside of a loop')


#: Python exceptions a command implementation may let escape that are
#: script faults, not interpreter bugs: a missing ``string index``
#: argument, ``incr v abc``, ``expr {1 << -1}``
HOST_ERRORS = (KeyError, IndexError, ValueError, ArithmeticError)


def host_error(name: str, err: Exception) -> TclError:
    """The :class:`TclError` a :data:`HOST_ERRORS` exception escaping
    command ``name`` becomes, so ``catch`` traps it and a script fault is
    never a Python traceback."""
    if isinstance(err, KeyError):
        error = TclError(f'error in command "{name}": no such key {err}')
    else:
        error = TclError(f'error in command "{name}": {err}')
    error.command = name
    return error
