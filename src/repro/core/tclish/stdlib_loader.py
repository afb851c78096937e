"""Built-in tclish commands, each declared once.

A :class:`CommandSignature` is the one declaration of a command: name,
argument-count bounds, usage line and, for a command an interpreter can
run, its implementation.  :data:`STDLIB` holds the standard command set,
filled by :func:`builtin`; ``repro.core.script.cmd`` declares the PFI
bridge commands the same way.  That declaration is what ``Interp``
registers, what ``Interp.call`` checks every call's argument count
against before the implementation runs (so no implementation counts its
own arguments), and what scriptlint's registry reads -- a script that
lints clean cannot die on arity at runtime.

The implementations stay close to Tcl semantics for the subset the
paper's filter scripts use; they are intentionally plain functions so
the whole stdlib is greppable.
"""

from __future__ import annotations

import fnmatch
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.core.tclish import compiler
from repro.core.tclish.errors import TclBreak, TclContinue, TclError, TclReturn
from repro.core.tclish.expr import format_value, parse_integer, wide
from repro.core.tclish.lexer import parse_list, split_words, strip_braces

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tclish.interp import Interp


@dataclass(frozen=True)
class CommandSignature:
    """Name, arity bounds, documentation and implementation of a command.

    ``fn(interp, args)`` is None for a signature only the analyzer sees
    (a ``proc`` found in the script under analysis).
    """

    name: str
    min_args: int = 0
    max_args: Optional[int] = None   # None = unbounded
    usage: str = ""
    doc: str = ""
    fn: Optional[Callable[["Interp", List[str]], str]] = field(
        default=None, compare=False, repr=False)
    #: argument counts go up in steps of this many (``foreach``: pairs)
    step: int = 1
    #: the well-formed argument counts
    arity: range = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        top = sys.maxsize - 1 if self.max_args is None else self.max_args
        object.__setattr__(self, "arity",
                           range(self.min_args, top + 1, self.step))

    def accepts(self, count: int) -> bool:
        """True when a call with ``count`` arguments is well-formed."""
        return count in self.arity

    def arity_text(self) -> str:
        """Human form of the accepted argument range."""
        if self.step > 1:
            return f"{self.min_args} plus a multiple of {self.step}"
        if self.max_args is None:
            return f"at least {self.min_args}"
        if self.min_args == self.max_args:
            return str(self.min_args)
        return f"{self.min_args} to {self.max_args}"

    def __deepcopy__(self, memo) -> "CommandSignature":
        # immutable: a copied interpreter shares its command declarations
        return self


#: name -> declaration of every stdlib command, filled by :func:`builtin`
STDLIB: Dict[str, CommandSignature] = {}


def builtin(name: str, min_args: int, max_args: Optional[int], usage: str,
            step: int = 1):
    """Declare a stdlib command: its signature and implementation, once."""
    def decorator(fn):
        STDLIB[name] = CommandSignature(name, min_args, max_args, usage,
                                        fn=fn, step=step)
        return fn
    return decorator


# ----------------------------------------------------------------------
# list helpers (Tcl lists are strings with brace quoting)
# ----------------------------------------------------------------------

def build_list(elements: List[str]) -> str:
    """Join elements into a Tcl list string, brace-quoting as needed."""
    quoted = []
    for element in elements:
        if element == "" or any(c in element for c in " \t\n{}[]$\";"):
            quoted.append("{" + element + "}")
        else:
            quoted.append(element)
    return " ".join(quoted)


def _index(text: str, length: int) -> int:
    """Parse a Tcl index, supporting ``end`` and ``end-N``."""
    if text == "end":
        return length - 1
    if text.startswith("end-"):
        return length - 1 - int(text[4:])
    return int(text)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

@builtin("set", 1, 2, "set varName ?newValue?")
def _cmd_set(interp: "Interp", args: List[str]) -> str:
    if len(args) == 1:
        return interp.get_var(args[0])
    return interp.set_var(args[0], args[1])


@builtin("unset", 1, None, "unset varName ?varName ...?")
def _cmd_unset(interp: "Interp", args: List[str]) -> str:
    for name in args:
        interp.unset_var(name)
    return ""


@builtin("incr", 1, 2, "incr varName ?increment?")
def _cmd_incr(interp: "Interp", args: List[str]) -> str:
    try:
        current = interp.get_var(args[0])
    except TclError:  # no such variable: incr creates it
        current = "0"
    step = args[1] if len(args) == 2 else "1"
    if "_" not in current and "_" not in step:  # int() reads 1_000, Tcl not
        try:  # decimal, 0x, 0o, 0b: builtins only, the hot path
            return interp.set_var(args[0],
                                  str(int(current, 0) + int(step, 0)))
        except ValueError:  # leading-zero octal, 08, past int()'s digits
            pass
    return interp.set_var(args[0], format_value(
        _format_integer(current) + _format_integer(step)))


@builtin("append", 1, None, "append varName ?value ...?")
def _cmd_append(interp: "Interp", args: List[str]) -> str:
    current = interp.get_var(args[0]) if interp.has_var(args[0]) else ""
    return interp.set_var(args[0], current + "".join(args[1:]))


# the control commands: a call with literal arguments runs the compiled
# form its command compiled; one with dynamic arguments builds the same
# form here, its conditions and bodies through the shared caches

@builtin("expr", 1, None, "expr arg ?arg ...?")
def _cmd_expr(interp: "Interp", args: List[str]) -> str:
    return compiler.build_expr(args)(interp)


@builtin("if", 2, None, "if cond body ?elseif cond body ...? ?else body?")
def _cmd_if(interp: "Interp", args: List[str]) -> str:
    return compiler.build_if(args)(interp)


@builtin("while", 2, 2, "while test body")
def _cmd_while(interp: "Interp", args: List[str]) -> str:
    return compiler.build_while(args)(interp)


@builtin("for", 4, 4, "for start test next body")
def _cmd_for(interp: "Interp", args: List[str]) -> str:
    return compiler.build_for(args)(interp)


@builtin("foreach", 3, None, "foreach varList list ?varList list ...? command",
         step=2)
def _cmd_foreach(interp: "Interp", args: List[str]) -> str:
    return compiler.build_foreach(args)(interp)


@builtin("proc", 3, 3, "proc name params body")
def _cmd_proc(interp: "Interp", args: List[str]) -> str:
    from repro.core.tclish.interp import Proc
    name, params_text, body = args
    params = []
    for raw in split_words(params_text):
        parts = [strip_braces(w) for w in split_words(strip_braces(raw))]
        params.append(parts if parts else [strip_braces(raw)])
    interp.procs[name] = Proc(name, params, body)
    return ""


@builtin("return", 0, 1, "return ?value?")
def _cmd_return(interp: "Interp", args: List[str]) -> str:
    raise TclReturn(args[0] if args else "")


@builtin("break", 0, 0, "break")
def _cmd_break(interp: "Interp", args: List[str]) -> str:
    raise TclBreak()


@builtin("continue", 0, 0, "continue")
def _cmd_continue(interp: "Interp", args: List[str]) -> str:
    raise TclContinue()


@builtin("global", 1, None, "global varName ?varName ...?")
def _cmd_global(interp: "Interp", args: List[str]) -> str:
    for name in args:
        interp.link_global(name)
    return ""


#: the channels ``puts`` knows; both write the script's output
_CHANNELS = ("stdout", "stderr")


@builtin("puts", 1, 3, "puts ?-nonewline? ?channelId? string")
def _cmd_puts(interp: "Interp", args: List[str]) -> str:
    # Tcl's reading: a first word of -nonewline is the flag, a 2-word
    # form's first word is the channel, and a 3-word form also takes
    # the old trailing "nonewline"
    if args[0] == "-nonewline" and len(args) > 1:
        args = args[1:]
    elif len(args) == 3:
        if args[2] != "nonewline":
            raise TclError('wrong # args: should be '
                           '"puts ?-nonewline? ?channelId? string"')
        args = args[:2]
    if len(args) == 2 and args[0] not in _CHANNELS:
        raise TclError(f'can not find channel named "{args[0]}"')
    interp.write(args[-1])
    return ""


@builtin("eval", 1, None, "eval arg ?arg ...?")
def _cmd_eval(interp: "Interp", args: List[str]) -> str:
    return interp.eval(" ".join(args))


@builtin("catch", 1, 2, "catch script ?varName?")
def _cmd_catch(interp: "Interp", args: List[str]) -> str:
    return compiler.build_catch(args)(interp)


@builtin("list", 0, None, "list ?value ...?")
def _cmd_list(interp: "Interp", args: List[str]) -> str:
    return build_list(args)


@builtin("lindex", 2, 2, "lindex list index")
def _cmd_lindex(interp: "Interp", args: List[str]) -> str:
    elements = parse_list(args[0])
    index = _index(args[1], len(elements))
    if 0 <= index < len(elements):
        return elements[index]
    return ""


@builtin("llength", 1, 1, "llength list")
def _cmd_llength(interp: "Interp", args: List[str]) -> str:
    return str(len(parse_list(args[0])))


@builtin("lappend", 1, None, "lappend varName ?value ...?")
def _cmd_lappend(interp: "Interp", args: List[str]) -> str:
    current = interp.get_var(args[0]) if interp.has_var(args[0]) else ""
    elements = parse_list(current)
    elements.extend(args[1:])
    return interp.set_var(args[0], build_list(elements))


@builtin("lrange", 3, 3, "lrange list first last")
def _cmd_lrange(interp: "Interp", args: List[str]) -> str:
    elements = parse_list(args[0])
    first = max(0, _index(args[1], len(elements)))
    last = min(len(elements) - 1, _index(args[2], len(elements)))
    return build_list(elements[first:last + 1])


@builtin("lsearch", 2, 2, "lsearch list pattern")
def _cmd_lsearch(interp: "Interp", args: List[str]) -> str:
    # a glob pattern, Tcl's default mode
    for i, element in enumerate(parse_list(args[0])):
        if fnmatch.fnmatchcase(element, args[1]):
            return str(i)
    return "-1"


@builtin("lsort", 1, None, "lsort ?options? list")
def _cmd_lsort(interp: "Interp", args: List[str]) -> str:
    options = args[:-1]
    elements = parse_list(args[-1])
    reverse = "-decreasing" in options
    if "-integer" in options:
        elements.sort(key=lambda e: int(e), reverse=reverse)
    elif "-real" in options:
        elements.sort(key=lambda e: float(e), reverse=reverse)
    else:
        elements.sort(reverse=reverse)
    if "-unique" in options:
        deduped: List[str] = []
        for element in elements:
            if not deduped or deduped[-1] != element:
                deduped.append(element)
        elements = deduped
    return build_list(elements)


@builtin("lreplace", 3, None, "lreplace list first last ?element ...?")
def _cmd_lreplace(interp: "Interp", args: List[str]) -> str:
    elements = parse_list(args[0])
    first = max(0, _index(args[1], len(elements)))
    last = _index(args[2], len(elements))
    return build_list(elements[:first] + list(args[3:])
                      + elements[last + 1:])


@builtin("lrepeat", 2, None, "lrepeat count ?element ...?")
def _cmd_lrepeat(interp: "Interp", args: List[str]) -> str:
    count = int(args[0])
    if count < 0:
        raise TclError("bad count: must be >= 0")
    return build_list(list(args[1:]) * count)


@builtin("switch", 2, None, "switch ?options? value {pattern body ...}")
def _cmd_switch(interp: "Interp", args: List[str]) -> str:
    """``switch ?-exact|-glob? value {pattern body ... ?default body?}``"""
    mode = "exact"
    while args and args[0] in ("-exact", "-glob", "--"):
        if args[0] == "-glob":
            mode = "glob"
        args = args[1:]
    # the declared bound counts the options too: a value must remain
    if len(args) < 2:
        raise TclError('wrong # args: should be '
                       '"switch ?options? value {pattern body ...}"')
    value = args[0]
    if len(args) == 2:
        pairs = [strip_braces(w) for w in split_words(args[1])]
    else:
        pairs = list(args[1:])
    if len(pairs) % 2 != 0:
        raise TclError("switch: pattern/body list must have even length")
    fallthrough_pending = False
    for i in range(0, len(pairs), 2):
        pattern, body = pairs[i], pairs[i + 1]
        matched = fallthrough_pending
        if not matched:
            if pattern == "default" and i == len(pairs) - 2:
                matched = True
            elif mode == "glob":
                matched = fnmatch.fnmatchcase(value, pattern)
            else:
                matched = value == pattern
        if matched:
            if body == "-":
                fallthrough_pending = True
                continue
            return interp.eval(body)
    return ""


@builtin("concat", 0, None, "concat ?arg ...?")
def _cmd_concat(interp: "Interp", args: List[str]) -> str:
    return " ".join(a.strip() for a in args if a.strip())


@builtin("split", 1, 2, "split string ?splitChars?")
def _cmd_split(interp: "Interp", args: List[str]) -> str:
    text = args[0]
    chars = args[1] if len(args) == 2 else " \t\n"
    if not text:
        return ""  # the empty list, whatever the split characters
    if not chars:
        return build_list(list(text))
    parts: List[str] = []
    current = ""
    for ch in text:
        if ch in chars:
            parts.append(current)
            current = ""
        else:
            current += ch
    parts.append(current)
    return build_list(parts)


@builtin("join", 1, 2, "join list ?joinString?")
def _cmd_join(interp: "Interp", args: List[str]) -> str:
    sep = args[1] if len(args) == 2 else " "
    return sep.join(parse_list(args[0]))


@builtin("string", 2, None, "string option arg ?arg ...?")
def _cmd_string(interp: "Interp", args: List[str]) -> str:
    option, text = args[0], args[1]
    if option == "length":
        return str(len(text))
    if option == "tolower":
        return text.lower()
    if option == "toupper":
        return text.upper()
    if option == "trim":
        return text.strip(args[2]) if len(args) > 2 else text.strip()
    if option == "index":
        index = _index(args[2], len(text))
        return text[index] if 0 <= index < len(text) else ""
    if option == "range":
        first = max(0, _index(args[2], len(text)))
        last = min(len(text) - 1, _index(args[3], len(text)))
        return text[first:last + 1]
    if option == "compare":
        other = args[2]
        return str((text > other) - (text < other))
    if option == "equal":
        return "1" if text == args[2] else "0"
    if option == "first":
        return str(args[2].find(text))
    if option == "match":
        import fnmatch
        return "1" if fnmatch.fnmatchcase(args[2], text) else "0"
    if option == "repeat":
        return text * int(args[2])
    raise TclError(f'bad string option "{option}"')


@builtin("format", 1, None, "format formatString ?arg ...?")
def _cmd_format(interp: "Interp", args: List[str]) -> str:
    template = args[0]
    values: List[object] = []
    spec_types = _format_spec_types(template)
    for text, kind in zip(args[1:], spec_types):
        if kind in "di":
            values.append(wide(_format_integer(text)))
        elif kind in "oxX":  # the word's bits, read unsigned
            values.append(wide(_format_integer(text)) % (1 << 64))
        elif kind == "c":
            values.append(_format_integer(text))
        elif kind in "eEfgG":
            values.append(float(text))
        else:
            values.append(text)
    try:
        return template % tuple(values)
    except (TypeError, ValueError) as err:
        raise TclError(f"format error: {err}")


def _format_integer(text: str) -> int:
    """An integer conversion's argument, read as Tcl 8.6 reads it
    (:func:`~repro.core.tclish.expr.parse_integer`: ``0x``, ``0o`` and
    ``0b`` prefixes, leading-zero octal) and refused as it refuses one:
    ``3.9``, ``1e3``, ``abc``, ``08`` and ``1_000`` are not integers.
    ``%d`` and ``%i`` print it truncated to a 64-bit word, ``%o`` /
    ``%x`` / ``%X`` that word's bits unsigned."""
    if "_" not in text:   # int() reads 1_000, Tcl does not
        try:
            return parse_integer(text.strip())
        except ValueError:
            pass
    raise TclError(f'expected integer but got "{text}"')


def _format_spec_types(template: str) -> List[str]:
    kinds = []
    i = 0
    while i < len(template):
        if template[i] == "%" and i + 1 < len(template):
            j = i + 1
            while j < len(template) and template[j] in "-+ #0123456789.*":
                j += 1
            if j < len(template):
                if template[j] != "%":
                    kinds.append(template[j])
                i = j + 1
                continue
        i += 1
    return kinds


@builtin("info", 1, 2, "info option ?arg?")
def _cmd_info(interp: "Interp", args: List[str]) -> str:
    option = args[0]
    if option == "exists":
        if len(args) != 2:
            raise TclError('wrong # args: should be "info exists varName"')
        return "1" if interp.has_var(args[1]) else "0"
    if option == "commands":
        names = set(interp.commands) | set(interp.procs)
    elif option == "procs":
        names = interp.procs
    elif option == "vars":
        names = interp._current_scope()
    elif option == "globals":
        names = interp.globals
    else:
        raise TclError(f'bad info option "{option}"')
    # the names a glob pattern matches, every name without one
    return build_list(sorted(name for name in names if len(args) == 1
                             or fnmatch.fnmatchcase(name, args[1])))


@builtin("error", 0, 1, "error ?message?")
def _cmd_error(interp: "Interp", args: List[str]) -> str:
    raise TclError(args[0] if args else "error")

