"""Built-in tclish commands.

:func:`install` registers the standard command set on an interpreter.  The
implementations stay close to Tcl semantics for the subset the paper's
filter scripts use; they are intentionally plain functions so the whole
stdlib is greppable.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, List

from repro.core.tclish import expr as _expr
from repro.core.tclish.errors import TclBreak, TclContinue, TclError, TclReturn
from repro.core.tclish.lexer import split_words, strip_braces

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.tclish.interp import Interp


# ----------------------------------------------------------------------
# list helpers (Tcl lists are strings with brace quoting)
# ----------------------------------------------------------------------

#: the word separators split_words recognises, as a regex for the fast path
_PLAIN_SEP = re.compile(r"[ \t\n]+")


def parse_list(text: str) -> List[str]:
    """Split a Tcl list string into elements.

    Lists with no quoting constructs -- the overwhelmingly common case in
    filter scripts -- split on whitespace directly instead of walking the
    lexer character by character.
    """
    if "{" not in text and '"' not in text and "\\" not in text \
            and "[" not in text:
        stripped = text.strip(" \t\n")
        return _PLAIN_SEP.split(stripped) if stripped else []
    return [strip_braces(word) for word in split_words(text)]


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

def _cmd_set(interp: "Interp", args: List[str]) -> str:
    if len(args) == 1:
        return interp.get_var(args[0])
    if len(args) == 2:
        return interp.set_var(args[0], args[1])
    raise TclError('wrong # args: should be "set varName ?newValue?"')


def _cmd_unset(interp: "Interp", args: List[str]) -> str:
    for name in args:
        interp.unset_var(name)
    return ""


def _cmd_incr(interp: "Interp", args: List[str]) -> str:
    if not 1 <= len(args) <= 2:
        raise TclError('wrong # args: should be "incr varName ?increment?"')
    step = int(args[1]) if len(args) == 2 else 1
    current = int(interp.get_var(args[0])) if interp.has_var(args[0]) else 0
    return interp.set_var(args[0], current + step)


def _cmd_append(interp: "Interp", args: List[str]) -> str:
    if not args:
        raise TclError('wrong # args: should be "append varName ?value ...?"')
    current = interp.get_var(args[0]) if interp.has_var(args[0]) else ""
    return interp.set_var(args[0], current + "".join(args[1:]))


def _cmd_expr(interp: "Interp", args: List[str]) -> str:
    text = interp.substitute(" ".join(args))
    return _expr.format_value(_expr.evaluate_cached(text))


def _cmd_if(interp: "Interp", args: List[str]) -> str:
    i = 0
    while i < len(args):
        condition = interp.substitute(args[i])
        if _expr.truth(_expr.evaluate_cached(condition)):
            body_index = i + 1
            if body_index < len(args) and args[body_index] == "then":
                body_index += 1
            if body_index >= len(args):
                raise TclError('missing body in "if"')
            return interp.eval(args[body_index])
        i += 2
        if i < len(args) and args[i - 1] == "then":
            i += 1
        if i < len(args) and args[i] == "elseif":
            i += 1
            continue
        if i < len(args) and args[i] == "else":
            if i + 1 >= len(args):
                raise TclError('missing body after "else"')
            return interp.eval(args[i + 1])
        break
    return ""


def _cmd_while(interp: "Interp", args: List[str]) -> str:
    if len(args) != 2:
        raise TclError('wrong # args: should be "while test body"')
    test, body = args
    iterations = 0
    while _expr.truth(_expr.evaluate_cached(interp.substitute(test))):
        iterations += 1
        if iterations > 1_000_000:
            raise TclError("while loop exceeded 1e6 iterations")
        try:
            interp.eval(body)
        except TclBreak:
            break
        except TclContinue:
            continue
    return ""


def _cmd_for(interp: "Interp", args: List[str]) -> str:
    if len(args) != 4:
        raise TclError('wrong # args: should be "for start test next body"')
    start, test, nxt, body = args
    interp.eval(start)
    iterations = 0
    while _expr.truth(_expr.evaluate_cached(interp.substitute(test))):
        iterations += 1
        if iterations > 1_000_000:
            raise TclError("for loop exceeded 1e6 iterations")
        try:
            interp.eval(body)
        except TclBreak:
            break
        except TclContinue:
            pass
        interp.eval(nxt)
    return ""


def _cmd_foreach(interp: "Interp", args: List[str]) -> str:
    if len(args) != 3:
        raise TclError('wrong # args: should be "foreach varName list body"')
    var, list_text, body = args
    for element in parse_list(list_text):
        interp.set_var(var, element)
        try:
            interp.eval(body)
        except TclBreak:
            break
        except TclContinue:
            continue
    return ""


def _cmd_proc(interp: "Interp", args: List[str]) -> str:
    from repro.core.tclish.interp import Proc
    if len(args) != 3:
        raise TclError('wrong # args: should be "proc name params body"')
    name, params_text, body = args
    params = []
    for raw in split_words(params_text):
        parts = [strip_braces(w) for w in split_words(strip_braces(raw))]
        params.append(parts if parts else [strip_braces(raw)])
    interp.procs[name] = Proc(name, params, body)
    return ""


def _cmd_return(interp: "Interp", args: List[str]) -> str:
    raise TclReturn(args[0] if args else "")


def _cmd_break(interp: "Interp", args: List[str]) -> str:
    raise TclBreak()


def _cmd_continue(interp: "Interp", args: List[str]) -> str:
    raise TclContinue()


def _cmd_global(interp: "Interp", args: List[str]) -> str:
    for name in args:
        interp.link_global(name)
    return ""


def _cmd_puts(interp: "Interp", args: List[str]) -> str:
    nonewline = False
    if args and args[0] == "-nonewline":
        nonewline = True
        args = args[1:]
    text = args[0] if args else ""
    interp.write(text if nonewline else text)
    return ""


def _cmd_eval(interp: "Interp", args: List[str]) -> str:
    return interp.eval(" ".join(args))


def _cmd_catch(interp: "Interp", args: List[str]) -> str:
    if not 1 <= len(args) <= 2:
        raise TclError('wrong # args: should be "catch script ?varName?"')
    try:
        result = interp.eval(args[0])
        code = "0"
    except TclError as err:
        result = str(err)
        code = "1"
    except TclReturn as ret:
        result = ret.value
        code = "2"
    if len(args) == 2:
        interp.set_var(args[1], result)
    return code


def _cmd_list(interp: "Interp", args: List[str]) -> str:
    return build_list(args)


def _cmd_lindex(interp: "Interp", args: List[str]) -> str:
    if len(args) != 2:
        raise TclError('wrong # args: should be "lindex list index"')
    elements = parse_list(args[0])
    index = _index(args[1], len(elements))
    if 0 <= index < len(elements):
        return elements[index]
    return ""


def _cmd_llength(interp: "Interp", args: List[str]) -> str:
    if len(args) != 1:
        raise TclError('wrong # args: should be "llength list"')
    return str(len(parse_list(args[0])))


def _cmd_lappend(interp: "Interp", args: List[str]) -> str:
    if not args:
        raise TclError('wrong # args: should be "lappend varName ?value ...?"')
    current = interp.get_var(args[0]) if interp.has_var(args[0]) else ""
    elements = parse_list(current)
    elements.extend(args[1:])
    return interp.set_var(args[0], build_list(elements))


def _cmd_lrange(interp: "Interp", args: List[str]) -> str:
    if len(args) != 3:
        raise TclError('wrong # args: should be "lrange list first last"')
    elements = parse_list(args[0])
    first = max(0, _index(args[1], len(elements)))
    last = min(len(elements) - 1, _index(args[2], len(elements)))
    return build_list(elements[first:last + 1])


def _cmd_lsearch(interp: "Interp", args: List[str]) -> str:
    if len(args) != 2:
        raise TclError('wrong # args: should be "lsearch list pattern"')
    for i, element in enumerate(parse_list(args[0])):
        if element == args[1]:
            return str(i)
    return "-1"


def _cmd_lsort(interp: "Interp", args: List[str]) -> str:
    options = [a for a in args[:-1]]
    if not args:
        raise TclError('wrong # args: should be "lsort ?options? list"')
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


def _cmd_lreplace(interp: "Interp", args: List[str]) -> str:
    if len(args) < 3:
        raise TclError(
            'wrong # args: should be "lreplace list first last ?element ...?"')
    elements = parse_list(args[0])
    first = max(0, _index(args[1], len(elements)))
    last = _index(args[2], len(elements))
    return build_list(elements[:first] + list(args[3:])
                      + elements[last + 1:])


def _cmd_lrepeat(interp: "Interp", args: List[str]) -> str:
    if len(args) < 2:
        raise TclError('wrong # args: should be "lrepeat count ?element ...?"')
    count = int(args[0])
    if count < 0:
        raise TclError("bad count: must be >= 0")
    return build_list(list(args[1:]) * count)


def _cmd_switch(interp: "Interp", args: List[str]) -> str:
    """``switch ?-exact|-glob? value {pattern body ... ?default body?}``"""
    mode = "exact"
    while args and args[0] in ("-exact", "-glob", "--"):
        if args[0] == "-glob":
            mode = "glob"
        args = args[1:]
    if len(args) == 2:
        value = args[0]
        pairs = [strip_braces(w) for w in split_words(args[1])]
    elif len(args) >= 3 and len(args) % 2 == 1:
        value, pairs = args[0], list(args[1:])
    else:
        raise TclError('wrong # args: should be '
                       '"switch ?options? value {pattern body ...}"')
    if len(pairs) % 2 != 0:
        raise TclError("switch: pattern/body list must have even length")
    import fnmatch
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


def _cmd_concat(interp: "Interp", args: List[str]) -> str:
    return " ".join(a.strip() for a in args if a.strip())


def _cmd_split(interp: "Interp", args: List[str]) -> str:
    if not 1 <= len(args) <= 2:
        raise TclError('wrong # args: should be "split string ?splitChars?"')
    text = args[0]
    chars = args[1] if len(args) == 2 else " \t\n"
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


def _cmd_join(interp: "Interp", args: List[str]) -> str:
    if not 1 <= len(args) <= 2:
        raise TclError('wrong # args: should be "join list ?joinString?"')
    sep = args[1] if len(args) == 2 else " "
    return sep.join(parse_list(args[0]))


def _cmd_string(interp: "Interp", args: List[str]) -> str:
    if len(args) < 2:
        raise TclError('wrong # args: should be "string option arg ?arg ...?"')
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


def _cmd_format(interp: "Interp", args: List[str]) -> str:
    if not args:
        raise TclError('wrong # args: should be "format formatString ?arg ...?"')
    template = args[0]
    values: List[object] = []
    spec_types = _format_spec_types(template)
    for text, kind in zip(args[1:], spec_types):
        if kind in "dioxXc":
            values.append(int(float(text)) if "." in text else int(text, 0))
        elif kind in "eEfgG":
            values.append(float(text))
        else:
            values.append(text)
    try:
        return template % tuple(values)
    except (TypeError, ValueError) as err:
        raise TclError(f"format error: {err}")


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


def _cmd_info(interp: "Interp", args: List[str]) -> str:
    if not args:
        raise TclError('wrong # args: should be "info option ?arg?"')
    option = args[0]
    if option == "exists":
        return "1" if interp.has_var(args[1]) else "0"
    if option == "commands":
        names = sorted(set(interp.commands) | set(interp.procs))
        return build_list(names)
    if option == "procs":
        return build_list(sorted(interp.procs))
    if option == "vars":
        scope = interp._current_scope()
        return build_list(sorted(scope))
    if option == "globals":
        return build_list(sorted(interp.globals))
    raise TclError(f'bad info option "{option}"')


def _cmd_error(interp: "Interp", args: List[str]) -> str:
    raise TclError(args[0] if args else "error")


def install(interp: "Interp") -> None:
    """Register the standard command set on an interpreter."""
    commands = {
        "set": _cmd_set,
        "unset": _cmd_unset,
        "incr": _cmd_incr,
        "append": _cmd_append,
        "expr": _cmd_expr,
        "if": _cmd_if,
        "while": _cmd_while,
        "for": _cmd_for,
        "foreach": _cmd_foreach,
        "proc": _cmd_proc,
        "return": _cmd_return,
        "break": _cmd_break,
        "continue": _cmd_continue,
        "global": _cmd_global,
        "puts": _cmd_puts,
        "eval": _cmd_eval,
        "catch": _cmd_catch,
        "list": _cmd_list,
        "lindex": _cmd_lindex,
        "llength": _cmd_llength,
        "lappend": _cmd_lappend,
        "lrange": _cmd_lrange,
        "lsearch": _cmd_lsearch,
        "lsort": _cmd_lsort,
        "lreplace": _cmd_lreplace,
        "lrepeat": _cmd_lrepeat,
        "switch": _cmd_switch,
        "concat": _cmd_concat,
        "split": _cmd_split,
        "join": _cmd_join,
        "string": _cmd_string,
        "format": _cmd_format,
        "info": _cmd_info,
        "error": _cmd_error,
    }
    for name, fn in commands.items():
        interp.register_command(name, fn)
