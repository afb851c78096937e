"""Exceptions used by the tclish interpreter.

``TclReturn``/``TclBreak``/``TclContinue`` implement non-local control flow
the way Tcl's own core does (result codes threaded out of nested
evaluation); Python exceptions are the natural encoding.
"""

from __future__ import annotations


class TclError(Exception):
    """A script error: unknown command, bad syntax, bad operand, ..."""


class TclReturn(Exception):
    """Raised by the ``return`` command; carries the return value."""

    def __init__(self, value: str = ""):
        super().__init__(value)
        self.value = value


class TclBreak(Exception):
    """Raised by ``break`` inside a loop body."""


class TclContinue(Exception):
    """Raised by ``continue`` inside a loop body."""


#: Python exceptions a command implementation may let escape that are
#: script faults, not interpreter bugs: a missing ``string index``
#: argument, ``incr v abc``, ``expr {sqrt(-1)}``, ``expr {exp(1000)}``
HOST_ERRORS = (KeyError, IndexError, ValueError, ArithmeticError)


def host_error(name: str, err: Exception) -> TclError:
    """The :class:`TclError` a :data:`HOST_ERRORS` exception escaping
    command ``name`` becomes, so ``catch`` traps it and a script fault is
    never a Python traceback."""
    if isinstance(err, KeyError):
        return TclError(f'error in command "{name}": no such key {err}')
    return TclError(f'error in command "{name}": {err}')
