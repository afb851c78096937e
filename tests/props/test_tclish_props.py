"""Property-based tests for the tclish interpreter."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tclish import Interp, TclError, compiler
from repro.core.tclish import expr as expr_mod
from repro.core.tclish.errors import HOST_ERRORS, host_error
from repro.core.tclish.expr import evaluate, format_value
from repro.core.tclish.stdlib_loader import build_list, parse_list

small_ints = st.integers(min_value=-10**6, max_value=10**6)

list_elements = st.lists(
    st.text(alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd"),
        whitelist_characters=" _-."), min_size=0, max_size=12),
    max_size=12)


@given(list_elements)
def test_list_build_parse_roundtrip(elements):
    assert parse_list(build_list(elements)) == elements


@given(small_ints, small_ints)
def test_expr_addition_matches_python(a, b):
    assert evaluate(f"{a} + {b}") == a + b


@given(small_ints, small_ints)
def test_expr_comparison_matches_python(a, b):
    assert evaluate(f"{a} < {b}") == (1 if a < b else 0)
    assert evaluate(f"{a} == {b}") == (1 if a == b else 0)


@given(small_ints, st.integers(min_value=1, max_value=10**6))
def test_expr_division_matches_tcl_floor(a, b):
    assert evaluate(f"{a} / {b}") == a // b


@given(small_ints)
def test_set_get_roundtrip_integer(value):
    interp = Interp()
    interp.eval(f"set x {value}")
    assert interp.eval("set x") == str(value)


@given(st.text(alphabet=st.characters(
    whitelist_categories=("Lu", "Ll", "Nd"),
    whitelist_characters="_"), min_size=1, max_size=20))
def test_set_get_roundtrip_word(value):
    interp = Interp()
    interp.eval(f"set x {{{value}}}")
    assert interp.eval("set x") == value


@given(st.lists(small_ints, min_size=1, max_size=20))
@settings(max_examples=50)
def test_foreach_sums_like_python(values):
    interp = Interp()
    list_text = " ".join(str(v) for v in values)
    interp.eval(f"set total 0; foreach v {{{list_text}}} {{incr total $v}}")
    assert interp.eval("set total") == str(sum(values))


@given(st.integers(min_value=0, max_value=40))
def test_while_counts_exactly(n):
    interp = Interp()
    interp.eval(f"set i 0; while {{$i < {n}}} {{incr i}}")
    assert interp.eval("set i") == str(n)


@given(small_ints)
def test_format_value_numeric_stability(n):
    assert format_value(n) == str(n)


@given(st.lists(small_ints, min_size=1, max_size=15))
def test_lindex_matches_python_indexing(values):
    interp = Interp()
    list_text = " ".join(str(v) for v in values)
    for i, expected in enumerate(values):
        assert interp.eval(f"lindex {{{list_text}}} {i}") == str(expected)
    assert interp.eval(f"lindex {{{list_text}}} end") == str(values[-1])


# ----------------------------------------------------------------------
# compiled templates against evaluating the substituted text
# ----------------------------------------------------------------------

#: leaf values that are not one simple operand, or are one only barely
LEAF_VALUES = ["", "a b", "-1", "+", '"', "1e3", "0x1F", "015", "inf",
               "abs", "7", "2.5", "eq", "(", " 4 ", '"q r"', "x_1"]

#: small enough that nested ``pow`` and ``<<`` stay cheap
OPERAND_TOKENS = st.one_of(
    st.integers(min_value=0, max_value=64).map(str),
    st.floats(min_value=0, max_value=1e6, allow_nan=False).map(repr),
    st.integers(min_value=0, max_value=255).map(hex),
    st.sampled_from(["abc", "eq", "ne", "x_1", "true", "no", '"a b"',
                     '"5"', '""']),
)

OPERATOR_TOKENS = sorted(expr_mod._TWO_CHAR_OPS) + list("+-*/%<>&|^") \
    + ["eq", "ne"]

#: a template item: a token, or a leaf -- ("$", value) / ("[", value)
LEAVES = st.tuples(st.sampled_from("$["), st.sampled_from(LEAF_VALUES))

#: any token sequence, mostly malformed
FLAT = st.lists(st.one_of(
    OPERAND_TOKENS, LEAVES, LEAVES,
    st.sampled_from(OPERATOR_TOKENS + list("!~?:,()")),
    st.sampled_from(sorted(expr_mod._FUNCTIONS))), min_size=1, max_size=8)


def _compound(parts):
    return st.one_of(
        st.tuples(parts, st.sampled_from(OPERATOR_TOKENS), parts).map(
            lambda t: t[0] + [t[1]] + t[2]),
        st.tuples(st.sampled_from("-+!~"), parts).map(
            lambda t: [t[0]] + t[1]),
        parts.map(lambda p: ["("] + p + [")"]),
        st.tuples(st.sampled_from(sorted(expr_mod._FUNCTIONS)), parts).map(
            lambda t: [t[0], "("] + t[1] + [")"]),
        st.tuples(parts, parts, parts).map(
            lambda t: t[0] + ["?"] + t[1] + [":"] + t[2]),
    )


#: token sequences the grammar accepts (before the leaves are known)
WELL_FORMED = st.recursive(st.one_of(OPERAND_TOKENS, LEAVES, LEAVES).map(
    lambda item: [item]), _compound, max_leaves=5)


def _outcome(fn):
    """A value (typed), or the error it raised (typed, with message)."""
    try:
        value = fn()
    except Exception as err:  # noqa: BLE001 -- the comparison is the test
        return ("raised", type(err).__name__, str(err))
    # hex: a shifted int may have more digits than str() converts
    return ("value", type(value).__name__,
            hex(value) if type(value) is int else repr(value))


def _template(items, separators):
    """``(interp, template text, substituted text, leaf values)``: the
    interpreter holds the variables, and its ``leaf N`` command returns
    the N-th command leaf's value, recording each call."""
    interp = Interp()
    interp.leaf_calls = []
    command_values = []

    def leaf(it, args):
        it.leaf_calls.append(int(args[0]))
        return command_values[int(args[0])]
    interp.register_command("leaf", leaf)
    text, substituted = [], []
    for index, (item, sep) in enumerate(zip(items, separators)):
        if isinstance(item, tuple):
            kind, value = item
            if kind == "$":
                interp.set_var(f"v{index}", value)
                text.append(f"${{v{index}}}" if index % 2 else f"$v{index}")
            else:
                text.append(f"[leaf {len(command_values)}]")
                command_values.append(value)
            substituted.append(value)
        else:
            text.append(item)
            substituted.append(item)
        text.append(sep)
        substituted.append(sep)
    return interp, "".join(text), "".join(substituted), command_values


def _plain_var_safe(items, separators):
    """``$vN`` must not run into a following word character."""
    for index, item in enumerate(items):
        if isinstance(item, tuple) and item[0] == "$" and index % 2 == 0 \
                and not separators[index] and index + 1 < len(items):
            following = items[index + 1]
            head = "[" if isinstance(following, tuple) and \
                following[0] == "[" else (
                    "$" if isinstance(following, tuple) else following[:1])
            if head.isalnum() or head == "_":
                return False
    return True


@settings(max_examples=800, deadline=None)
@given(st.one_of(WELL_FORMED, FLAT).flatmap(
    lambda items: st.tuples(
        st.just(items),
        st.lists(st.sampled_from(["", " "]), min_size=len(items),
                 max_size=len(items)))))
def test_compiled_template_equals_evaluating_the_substitution(drawn):
    items, separators = drawn
    if not _plain_var_safe(items, separators):
        return
    interp, text, substituted, command_values = _template(items, separators)
    template = compiler.compile_template(text)
    compiled = _outcome(lambda: template(interp))
    assert interp.leaf_calls == list(range(len(command_values)))
    assert compiled == _outcome(lambda: expr_mod.evaluate(substituted))
    # the expr command: the same template, its value formatted
    interp.leaf_calls.clear()
    via_expr = _outcome(lambda: interp.eval(f"expr {{{text}}}"))
    assert interp.leaf_calls == list(range(len(command_values)))

    def reference():
        try:
            return expr_mod.format_value(expr_mod.evaluate(substituted))
        except HOST_ERRORS as err:
            raise host_error("expr", err) from err
    assert via_expr == _outcome(reference)


# ----------------------------------------------------------------------
# if / elseif / else / then, well formed or not
# ----------------------------------------------------------------------

IF_WORDS = ["0", "1", "${a} > 1", "abc", "", "[leaf]", "then", "elseif",
            "else", "set r 1", "set r 2", "incr r"]


def _reference_if(interp, args):
    """The ``if`` of an interpreter that substitutes each condition and
    then evaluates the text, one clause at a time."""
    if len(args) < 2:
        raise TclError('wrong # args: should be '
                       '"if cond body ?elseif cond body ...? ?else body?"')

    def test(condition):
        text = condition.replace("${a}", interp.get_var("a"))
        if "[leaf]" in text:
            text = text.replace("[leaf]", interp.eval("leaf"))
        return expr_mod.truth(expr_mod.evaluate(text))
    try:
        i = 0
        while i < len(args):
            if test(args[i]):
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
    except HOST_ERRORS as err:
        raise host_error("if", err) from err


def _if_interp(a):
    interp = Interp()
    interp.set_var("a", a)
    interp.set_var("r", "0")
    interp.leaf_calls = 0

    def leaf(it, args):
        it.leaf_calls += 1
        return "1"
    interp.register_command("leaf", leaf)
    return interp


def _if_state(interp, fn):
    return _outcome(fn), interp.get_var("r"), interp.leaf_calls


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(IF_WORDS), min_size=1, max_size=8),
       st.sampled_from(["0", "5", "x", ""]))
def test_if_shapes_match_clause_by_clause_evaluation(args, a):
    reference = _if_interp(a)
    expected = _if_state(reference, lambda: _reference_if(reference, args))
    braced = " ".join("{" + arg + "}" for arg in args)
    static = _if_interp(a)
    assert _if_state(static, lambda: static.eval(f"if {braced}")) == expected
    # the same words through variables: the dynamic path through `if`
    dynamic = _if_interp(a)
    for index, arg in enumerate(args):
        dynamic.set_var(f"w{index}", arg)
    words = " ".join(f"$w{index}" for index in range(len(args)))
    assert _if_state(dynamic, lambda: dynamic.eval(f"if {words}")) == \
        expected
