"""Arithmetic/logic expressions for ``expr``, ``if``, ``while`` and ``for``.

A recursive-descent compiler turns a token list into a tree of closures,
once; running the tree evaluates the expression.  Supported grammar
(loosest binding first)::

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

A node applies its operation in exactly the order an evaluating parser
would, so a compiled expression raises the same error as reading the
text would, and :func:`evaluate` on a malformed expression first applies
what precedes the syntax error.

A *template* is the unsubstituted text of a condition or an ``expr``
argument; its ``$v`` reads and ``[cmd]`` results are *leaves*
(:class:`Leaf` tokens).  :func:`template_tokens` decides whether every
leaf is isolated from the text around it, and :func:`operand_of`
whether a leaf's value at run time is exactly one simple operand; when
both hold, the value is plugged into the compiled tree directly, and
otherwise the caller evaluates the substituted text instead.
"""

from __future__ import annotations

import math
import operator
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

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


#: Tcl 7's error for an infinite float result
TOO_LARGE = "floating-point value too large to represent"


def format_value(value: Value) -> str:
    """Render an expression result the way Tcl prints it.

    An infinite float has no Tcl rendering: it is the error
    :data:`TOO_LARGE`, as ``expr {1e308 * 10}`` is in Tcl 7.  (A NaN is
    a ``ValueError`` here, which ``Interp.call`` reports as the fault of
    the command that produced it.)
    """
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isinf(value):
            raise TclError(TOO_LARGE)
        if value == int(value) and abs(value) < 1e16:
            return f"{value:.1f}"
        return repr(value)
    return str(value)


# ----------------------------------------------------------------------
# the compiler: tokens in, a tree of closures out
# ----------------------------------------------------------------------

#: a compiled expression: called with its frame -- the leaf operands,
#: then the constants -- it returns the expression's value
Node = Callable[[Sequence[Value]], Value]


class Leaf:
    """The token standing for leaf ``index`` of a template (a ``$v`` read
    or a ``[cmd]`` result): an operand whose value arrives at run time."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __repr__(self) -> str:
        return f"Leaf({self.index})"


def _ternary(cond: Node, if_true: Node, if_false: Node) -> Node:
    def node(frame):
        test = cond(frame)
        a = if_true(frame)
        b = if_false(frame)
        return a if truth(test) else b
    return node


def _or(left: Node, right: Node) -> Node:
    def node(frame):
        a = left(frame)
        b = right(frame)
        return 1 if (truth(a) or truth(b)) else 0
    return node


def _and(left: Node, right: Node) -> Node:
    def node(frame):
        a = left(frame)
        b = right(frame)
        return 1 if (truth(a) and truth(b)) else 0
    return node


def _integer(operand: Node) -> Node:
    def node(frame):
        return int(coerce_number(operand(frame)))
    return node


def _bitwise(op: str, left: Node, right: Node) -> Node:
    apply = {"|": operator.or_, "^": operator.xor, "&": operator.and_}[op]

    def node(frame):
        a = int(coerce_number(left(frame)))
        return apply(a, int(coerce_number(right(frame))))
    return node


#: operand types that are already the number ``coerce_number`` would
#: make them (comparisons skip the coercion for them)
_NUMBERS = (int, float)


def _equality(op: str, left: Node, right: Node) -> Node:
    wanted = op in ("==", "eq")
    if op in ("eq", "ne"):
        def node(frame):
            equal = str(left(frame)) == str(right(frame))
            return 1 if equal == wanted else 0
        return node

    def node(frame):
        a = left(frame)
        b = right(frame)
        if type(a) in _NUMBERS and type(b) in _NUMBERS:
            equal = a == b
        elif is_numeric(a) and is_numeric(b):
            equal = coerce_number(a) == coerce_number(b)
        else:
            equal = str(a) == str(b)
        return 1 if equal == wanted else 0
    return node


_RELATIONS = {"<": operator.lt, ">": operator.gt, "<=": operator.le,
              ">=": operator.ge}


def _relational(op: str, left: Node, right: Node) -> Node:
    relation = _RELATIONS[op]

    def node(frame):
        a = left(frame)
        b = right(frame)
        if type(a) not in _NUMBERS or type(b) not in _NUMBERS:
            if is_numeric(a) and is_numeric(b):
                a, b = coerce_number(a), coerce_number(b)
            else:
                a, b = str(a), str(b)
        return 1 if relation(a, b) else 0
    return node


# shift, additive and term make the right operand a number first, as
# an evaluating parser does when it has just read it

def _shift(op: str, left: Node, right: Node) -> Node:
    def node(frame):
        a = left(frame)
        b = int(coerce_number(right(frame)))
        a = int(coerce_number(a))
        return a << b if op == "<<" else a >> b
    return node


def _additive(op: str, left: Node, right: Node) -> Node:
    def node(frame):
        a = left(frame)
        b = coerce_number(right(frame))
        a = coerce_number(a)
        return a + b if op == "+" else a - b
    return node


def _term(op: str, left: Node, right: Node) -> Node:
    def node(frame):
        a = left(frame)
        b = coerce_number(right(frame))
        a = coerce_number(a)
        if op == "*":
            return a * b
        if b == 0:
            raise TclError("divide by zero")
        if op == "%":
            return a % b
        if isinstance(a, int) and isinstance(b, int):
            return a // b
        return a / b
    return node


def _unary(op: str, operand: Node) -> Node:
    if op == "-":
        return lambda frame: -coerce_number(operand(frame))
    if op == "+":
        return lambda frame: coerce_number(operand(frame))
    if op == "!":
        return lambda frame: 0 if truth(operand(frame)) else 1
    return lambda frame: ~int(coerce_number(operand(frame)))


def _number(operand: Node) -> Node:
    """A function argument: the operand made a number."""
    return lambda frame: coerce_number(operand(frame))


def _call(fn: Callable[..., Number], args: List[Node]) -> Node:
    def node(frame):
        values = []
        for arg in args:
            values.append(coerce_number(arg(frame)))
        return fn(*values)
    return node


def _operand(token: str) -> Value:
    """The value a primary token stands for: quoted text, a number, or
    a bare word (which lets ``expr {$type eq ACK}`` work)."""
    if token.startswith('"'):
        return token[1:-1] if token.endswith('"') else token[1:]
    if is_numeric(token):
        return coerce_number(token)
    return token


class _Compiler:
    """Recursive descent over a token list, building closures.

    Every operation happens in the order an evaluating parser would do
    it.  :attr:`steps` records, in that order, a node for each
    operation as parsing reaches it, so an expression that turns out to
    be malformed still applies what came before the syntax error (and
    raises what that raises) before it raises its own.
    """

    def __init__(self, tokens: List[Any], leaves: int):
        self._tokens = tokens
        self._pos = 0
        self._leaves = leaves
        self.consts: List[Value] = []
        self.steps: List[Node] = []

    def peek(self) -> Any:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else ""

    def next(self) -> Any:
        token = self.peek()
        self._pos += 1
        return token

    def expect(self, token: str) -> None:
        if self.next() != token:
            raise TclError(f"expected {token!r} in expression")

    def done(self, node: Node) -> Node:
        self.steps.append(node)
        return node

    def const(self, value: Value) -> Node:
        self.consts.append(value)
        return itemgetter(self._leaves + len(self.consts) - 1)

    def parse(self) -> Node:
        node = self.ternary()
        if self.peek():
            raise TclError(f"trailing garbage in expression: {self.peek()!r}")
        return node

    def ternary(self) -> Node:
        cond = self.logical_or()
        if self.peek() == "?":
            self.next()
            if_true = self.ternary()
            self.expect(":")
            if_false = self.ternary()
            return self.done(_ternary(cond, if_true, if_false))
        return cond

    def logical_or(self) -> Node:
        left = self.logical_and()
        while self.peek() == "||":
            self.next()
            left = self.done(_or(left, self.logical_and()))
        return left

    def logical_and(self) -> Node:
        left = self.bitwise(0)
        while self.peek() == "&&":
            self.next()
            left = self.done(_and(left, self.bitwise(0)))
        return left

    def bitwise(self, level: int) -> Node:
        """``|`` (level 0), ``^`` (1) and ``&`` (2): the left operand is
        made an integer before the right one is parsed."""
        op = "|^&"[level]
        operand = (lambda: self.bitwise(level + 1)) if level < 2 \
            else self.equality
        left = operand()
        while self.peek() == op:
            self.next()
            self.done(_integer(left))
            left = self.done(_bitwise(op, left, operand()))
        return left

    def equality(self) -> Node:
        left = self.relational()
        while self.peek() in ("==", "!=", "eq", "ne"):
            op = self.next()
            left = self.done(_equality(op, left, self.relational()))
        return left

    def relational(self) -> Node:
        left = self.shift()
        while self.peek() in ("<", ">", "<=", ">="):
            op = self.next()
            left = self.done(_relational(op, left, self.shift()))
        return left

    def shift(self) -> Node:
        left = self.additive()
        while self.peek() in ("<<", ">>"):
            op = self.next()
            left = self.done(_shift(op, left, self.additive()))
        return left

    def additive(self) -> Node:
        left = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            left = self.done(_additive(op, left, self.term()))
        return left

    def term(self) -> Node:
        left = self.unary()
        while self.peek() in ("*", "/", "%"):
            op = self.next()
            left = self.done(_term(op, left, self.unary()))
        return left

    def unary(self) -> Node:
        token = self.peek()
        if token in ("-", "+", "!", "~"):
            self.next()
            return self.done(_unary(token, self.unary()))
        return self.primary()

    def primary(self) -> Node:
        token = self.next()
        if type(token) is Leaf:
            return itemgetter(token.index)
        if token == "(":
            node = self.ternary()
            self.expect(")")
            return node
        if not token:
            raise TclError("unexpected end of expression")
        if token in _FUNCTIONS and self.peek() == "(":
            self.next()
            args: List[Node] = []
            if self.peek() != ")":
                args.append(self.argument())
                while self.peek() == ",":
                    self.next()
                    args.append(self.argument())
            self.expect(")")
            return self.done(_call(_FUNCTIONS[token], args))
        return self.const(_operand(token))

    def argument(self) -> Node:
        """A function argument, made a number as soon as it is read."""
        node = self.ternary()
        self.done(_number(node))
        return node


def compile_tokens(tokens: List[Any], leaves: int = 0
                   ) -> Tuple[Node, Tuple[Value, ...]]:
    """Compile a token list whose :class:`Leaf` tokens number
    ``leaves``: the root node and the constants that follow the leaf
    operands in its frame.  A malformed expression raises
    :class:`TclError`."""
    compiler = _Compiler(tokens, leaves)
    return compiler.parse(), tuple(compiler.consts)


def evaluate(text: str) -> Value:
    """Evaluate a fully substituted expression string: the compiler
    applied to a template with no leaves."""
    tokens = tokenize(text)
    compiler = _Compiler(tokens, 0)
    try:
        root = compiler.parse()
    except TclError:
        # what an evaluating parser did before it met the error
        consts = tuple(compiler.consts)
        for step in compiler.steps:
            step(consts)
        raise
    return root(tuple(compiler.consts))


# ----------------------------------------------------------------------
# templates: where a leaf value may stand in as one operand
# ----------------------------------------------------------------------

#: verdict for a leaf value that is not exactly one simple operand
NOT_SIMPLE = object()

#: leaf value -> the operand it is, or :data:`NOT_SIMPLE`; bounded,
#: oldest entry out first
OPERANDS: Dict[str, Any] = {}

#: most leaf values :data:`OPERANDS` remembers
OPERANDS_MAX = 4096

_MISS = object()

_OPERATOR_TOKENS = frozenset(_TWO_CHAR_OPS) | frozenset("+-*/%<>!~&|^()?:,")


def operand_of(text: str) -> Any:
    """The operand a leaf value is when it is exactly one simple token
    (a number, a bare word or a quoted string); else :data:`NOT_SIMPLE`.
    Memoised in :data:`OPERANDS`."""
    verdict = OPERANDS.get(text, _MISS)
    if verdict is not _MISS:
        return verdict
    try:
        tokens = tokenize(text)
    except TclError:
        tokens = []
    if len(tokens) == 1 and tokens[0] not in _OPERATOR_TOKENS:
        verdict = _operand(tokens[0])
    else:
        verdict = NOT_SIMPLE
    if len(OPERANDS) >= OPERANDS_MAX:
        del OPERANDS[next(iter(OPERANDS))]
    OPERANDS[text] = verdict
    return verdict


#: simple operands of every first-character class, then of every
#: last-character class: what a template's text must not run into
_HEAD_PROBES = ("0", ".5", "a", "_", '"s"')
_TAIL_PROBES = ("0", "0x1F", "1.", "1e3", "a", "a_", '"s"')


def template_tokens(parts: Sequence[Optional[str]]) -> Optional[List[Any]]:
    """Tokens of a template whose text ``parts`` alternate with leaves
    (``None``), each leaf a :class:`Leaf`, when every leaf is isolated:
    any simple operand in its place tokenizes as exactly that one token
    (``${a}eq 1`` is not: ``a`` = ``x`` reads ``xeq 1``).  ``None`` when
    a leaf is not isolated or some text does not tokenize.  (A leaf
    that names a function, ``$f (2)``, needs no rule: an operand
    followed by ``(`` does not parse, so such a template is never
    compiled with leaves.)"""
    tokens: List[Any] = []
    leaves = 0
    for index, part in enumerate(parts):
        if part is not None:
            try:
                tokens.extend(tokenize(part))
            except TclError:
                return None
            continue
        before = parts[index - 1] if index else ""
        after = parts[index + 1] if index + 1 < len(parts) else ""
        if before is None or after is None:
            return None  # two leaves touch
        try:
            if before and any(tokenize(before + probe)
                              != tokenize(before) + [probe]
                              for probe in _HEAD_PROBES):
                return None
            if after and any(tokenize(probe + after)
                             != [probe] + tokenize(after)
                             for probe in _TAIL_PROBES):
                return None
        except TclError:
            return None
        tokens.append(Leaf(leaves))
        leaves += 1
    return tokens
