"""Arithmetic/logic expression evaluation for the ``expr`` command.

A small recursive-descent parser over an already-substituted expression
string.  Supported grammar (loosest binding first)::

    ternary : or ('?' ternary ':' ternary)?
    or      : and ('||' and)*
    and     : bitor ('&&' bitor)*
    bitor   : bitxor ('|' bitxor)*
    bitxor  : bitand ('^' bitand)*
    bitand  : equality ('&' equality)*
    equality: relational (('==' | '!=' | 'eq' | 'ne') relational)*
    relational: shift (('<' | '>' | '<=' | '>=') shift)*
    shift   : additive (('<<' | '>>') additive)*
    additive: term (('+' | '-') term)*
    term    : unary (('*' | '/' | '%') unary)*
    unary   : ('-' | '+' | '!' | '~') unary | primary
    primary : NUMBER | STRING | '(' ternary ')' | FUNC '(' args ')'

Numbers are Python ints (decimal/hex/octal-as-decimal) or floats; ``eq`` and
``ne`` force string comparison; ``==`` on two non-numeric operands also
compares strings, matching Tcl's forgiving behaviour.  Division follows
Tcl/C semantics: int/int truncates toward negative infinity like Tcl does
(Python's ``//`` already does).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Callable, Dict, List, Union

from repro.core.tclish.errors import TclError

Number = Union[int, float]
Value = Union[int, float, str]

_FUNCTIONS: Dict[str, Callable[..., Number]] = {
    "abs": abs,
    "int": lambda x: int(x),
    "double": lambda x: float(x),
    "round": lambda x: int(round(x)),
    "min": min,
    "max": max,
    "sqrt": math.sqrt,
    "pow": lambda x, y: x ** y,
    "fmod": math.fmod,
    "floor": math.floor,
    "ceil": math.ceil,
    "exp": math.exp,
    "log": math.log,
}

_TWO_CHAR_OPS = ("||", "&&", "==", "!=", "<=", ">=", "<<", ">>")


def tokenize(text: str) -> List[str]:
    """Split an expression into operator/number/string/name tokens."""
    tokens: List[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\n":
            i += 1
            continue
        pair = text[i:i + 2]
        if pair in _TWO_CHAR_OPS:
            tokens.append(pair)
            i += 2
            continue
        if ch in "+-*/%<>!~&|^()?:,":
            tokens.append(ch)
            i += 1
            continue
        if ch == '"':
            j = i + 1
            parts = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    parts.append(text[j + 1])
                    j += 2
                    continue
                parts.append(text[j])
                j += 1
            if j >= n:
                raise TclError("unterminated string in expression")
            tokens.append('"' + "".join(parts) + '"')
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            if text[j:j + 2].lower() == "0x":
                j += 2
                while j < n and text[j] in "0123456789abcdefABCDEF":
                    j += 1
            else:
                seen_dot = seen_exp = False
                while j < n:
                    c = text[j]
                    if c.isdigit():
                        j += 1
                    elif c == "." and not seen_dot and not seen_exp:
                        seen_dot = True
                        j += 1
                    elif c in "eE" and not seen_exp and j + 1 < n and (
                            text[j + 1].isdigit() or text[j + 1] in "+-"):
                        seen_exp = True
                        j += 1
                        if text[j] in "+-":
                            j += 1
                    else:
                        break
            tokens.append(text[i:j])
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        raise TclError(f"unexpected character {ch!r} in expression")
    return tokens


def coerce_number(value: Value) -> Number:
    """Convert a value to int or float, raising TclError on failure."""
    if isinstance(value, (int, float)):
        return value
    text = value.strip()
    try:
        if text.lower().startswith("0x") or text.lower().startswith("-0x"):
            return int(text, 16)
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise TclError(f"expected number but got {value!r}")


def is_numeric(value: Value) -> bool:
    """True if the value is a number or parses as one."""
    if isinstance(value, (int, float)):
        return True
    try:
        coerce_number(value)
        return True
    except TclError:
        return False


def truth(value: Value) -> bool:
    """Tcl truthiness: numbers by non-zero, strings true/false/yes/no."""
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "yes", "on"):
            return True
        if lowered in ("false", "no", "off"):
            return False
    return coerce_number(value) != 0


def format_value(value: Value) -> str:
    """Render an expression result the way Tcl prints it."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e16:
            return f"{value:.1f}"
        return repr(value)
    return str(value)


class _Parser:
    def __init__(self, tokens: List[str]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> str:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else ""

    def next(self) -> str:
        token = self.peek()
        self._pos += 1
        return token

    def expect(self, token: str) -> None:
        if self.next() != token:
            raise TclError(f"expected {token!r} in expression")

    # each level returns a Python Value
    def parse(self) -> Value:
        value = self.ternary()
        if self.peek():
            raise TclError(f"trailing garbage in expression: {self.peek()!r}")
        return value

    def ternary(self) -> Value:
        cond = self.logical_or()
        if self.peek() == "?":
            self.next()
            if_true = self.ternary()
            self.expect(":")
            if_false = self.ternary()
            return if_true if truth(cond) else if_false
        return cond

    def logical_or(self) -> Value:
        left = self.logical_and()
        while self.peek() == "||":
            self.next()
            right = self.logical_and()
            left = 1 if (truth(left) or truth(right)) else 0
        return left

    def logical_and(self) -> Value:
        left = self.bit_or()
        while self.peek() == "&&":
            self.next()
            right = self.bit_or()
            left = 1 if (truth(left) and truth(right)) else 0
        return left

    def bit_or(self) -> Value:
        left = self.bit_xor()
        while self.peek() == "|":
            self.next()
            left = int(coerce_number(left)) | int(coerce_number(self.bit_xor()))
        return left

    def bit_xor(self) -> Value:
        left = self.bit_and()
        while self.peek() == "^":
            self.next()
            left = int(coerce_number(left)) ^ int(coerce_number(self.bit_and()))
        return left

    def bit_and(self) -> Value:
        left = self.equality()
        while self.peek() == "&":
            self.next()
            left = int(coerce_number(left)) & int(coerce_number(self.equality()))
        return left

    def equality(self) -> Value:
        left = self.relational()
        while self.peek() in ("==", "!=", "eq", "ne"):
            op = self.next()
            right = self.relational()
            if op in ("eq", "ne"):
                equal = str(left) == str(right)
            elif is_numeric(left) and is_numeric(right):
                equal = coerce_number(left) == coerce_number(right)
            else:
                equal = str(left) == str(right)
            wanted = op in ("==", "eq")
            left = 1 if equal == wanted else 0
        return left

    def relational(self) -> Value:
        left = self.shift()
        while self.peek() in ("<", ">", "<=", ">="):
            op = self.next()
            right = self.shift()
            if is_numeric(left) and is_numeric(right):
                a, b = coerce_number(left), coerce_number(right)
            else:
                a, b = str(left), str(right)
            result = {
                "<": a < b, ">": a > b, "<=": a <= b, ">=": a >= b,
            }[op]
            left = 1 if result else 0
        return left

    def shift(self) -> Value:
        left = self.additive()
        while self.peek() in ("<<", ">>"):
            op = self.next()
            right = int(coerce_number(self.additive()))
            value = int(coerce_number(left))
            left = value << right if op == "<<" else value >> right
        return left

    def additive(self) -> Value:
        left = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            right = coerce_number(self.term())
            value = coerce_number(left)
            left = value + right if op == "+" else value - right
        return left

    def term(self) -> Value:
        left = self.unary()
        while self.peek() in ("*", "/", "%"):
            op = self.next()
            right = coerce_number(self.unary())
            value = coerce_number(left)
            if op == "*":
                left = value * right
            elif op == "/":
                if right == 0:
                    raise TclError("divide by zero")
                if isinstance(value, int) and isinstance(right, int):
                    left = value // right
                else:
                    left = value / right
            else:
                if right == 0:
                    raise TclError("divide by zero")
                left = value % right
        return left

    def unary(self) -> Value:
        token = self.peek()
        if token == "-":
            self.next()
            return -coerce_number(self.unary())
        if token == "+":
            self.next()
            return coerce_number(self.unary())
        if token == "!":
            self.next()
            return 0 if truth(self.unary()) else 1
        if token == "~":
            self.next()
            return ~int(coerce_number(self.unary()))
        return self.primary()

    def primary(self) -> Value:
        token = self.next()
        if token == "(":
            value = self.ternary()
            self.expect(")")
            return value
        if not token:
            raise TclError("unexpected end of expression")
        if token.startswith('"'):
            return token[1:-1] if token.endswith('"') else token[1:]
        if token in _FUNCTIONS and self.peek() == "(":
            self.next()
            args: List[Number] = []
            if self.peek() != ")":
                args.append(coerce_number(self.ternary()))
                while self.peek() == ",":
                    self.next()
                    args.append(coerce_number(self.ternary()))
            self.expect(")")
            return _FUNCTIONS[token](*args)
        if is_numeric(token):
            return coerce_number(token)
        # bare word: treat as a string, which lets `expr {$type eq ACK}` work
        return token


def evaluate(text: str) -> Value:
    """Evaluate a fully substituted expression string."""
    return _Parser(tokenize(text)).parse()


#: bounded memo for :func:`evaluate_cached`; conditions like
#: ``DATA eq "ACK"`` recur on every message, churning ones (loop counters)
#: are evicted in LRU order
EVAL_CACHE_MAX = 1024

_EVAL_CACHE: "OrderedDict[str, Value]" = OrderedDict()


def evaluate_cached(text: str) -> Value:
    """Memoised :func:`evaluate`.

    Safe because expression evaluation is pure: command and variable
    substitution already happened before the text reached ``expr``, and
    every operator/function here is deterministic.  ``expr``, ``if``,
    ``while`` and ``for`` evaluate through it.
    """
    cached = _EVAL_CACHE.get(text, _MISS)
    if cached is not _MISS:
        _EVAL_CACHE.move_to_end(text)
        return cached
    value = evaluate(text)
    _EVAL_CACHE[text] = value
    if len(_EVAL_CACHE) > EVAL_CACHE_MAX:
        _EVAL_CACHE.popitem(last=False)
    return value


class _MissType:
    def __repr__(self):
        return "<miss>"


_MISS = _MissType()
