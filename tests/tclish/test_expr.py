"""Unit tests for the tclish expression evaluator."""

import pytest

from repro.core.tclish.errors import TclError
from repro.core.tclish.expr import (coerce_number, evaluate, format_value,
                                    is_numeric, truth)


class TestArithmetic:
    @pytest.mark.parametrize("text,expected", [
        ("1 + 2", 3),
        ("10 - 4", 6),
        ("3 * 4", 12),
        ("10 / 2", 5),
        ("7 % 3", 1),
        ("2 + 3 * 4", 14),
        ("(2 + 3) * 4", 20),
        ("-5 + 2", -3),
        ("+7", 7),
        ("2.5 * 2", 5.0),
        ("1e2 + 1", 101.0),
        ("0x10 + 1", 17),
    ])
    def test_basic(self, text, expected):
        assert evaluate(text) == expected

    def test_integer_division_truncates(self):
        assert evaluate("7 / 2") == 3

    @pytest.mark.parametrize("text,expected", [
        ("-7 / 2", -4),
        ("7 / -2", -4),
        ("-7 % 2", 1),
    ])
    def test_negative_integer_division_floors_like_tcl(self, text, expected):
        # tclsh 8.6 agrees: the quotient rounds down, the remainder takes
        # the divisor's sign
        assert evaluate(text) == expected

    def test_float_division(self):
        assert evaluate("7.0 / 2") == 3.5

    def test_divide_by_zero(self):
        with pytest.raises(TclError):
            evaluate("1 / 0")
        with pytest.raises(TclError):
            evaluate("1 % 0")


class TestComparison:
    @pytest.mark.parametrize("text,expected", [
        ("1 < 2", 1),
        ("2 < 1", 0),
        ("2 <= 2", 1),
        ("3 > 2", 1),
        ("3 >= 4", 0),
        ("5 == 5", 1),
        ("5 == 5.0", 1),
        ("5 != 6", 1),
        ('"abc" eq "abc"', 1),
        ('"abc" ne "abd"', 1),
        ('"10" == 10', 1),
        ('"abc" == "abc"', 1),
    ])
    def test_comparisons(self, text, expected):
        assert evaluate(text) == expected

    def test_string_relational(self):
        assert evaluate('"apple" < "banana"') == 1


class TestLogic:
    @pytest.mark.parametrize("text,expected", [
        ("1 && 1", 1),
        ("1 && 0", 0),
        ("0 || 1", 1),
        ("0 || 0", 0),
        ("!0", 1),
        ("!5", 0),
        ("1 ? 10 : 20", 10),
        ("0 ? 10 : 20", 20),
        ("1 < 2 ? 1 + 1 : 9", 2),
    ])
    def test_logic(self, text, expected):
        assert evaluate(text) == expected

    def test_bitwise(self):
        assert evaluate("6 & 3") == 2
        assert evaluate("6 | 3") == 7
        assert evaluate("6 ^ 3") == 5
        assert evaluate("~0") == -1
        assert evaluate("1 << 4") == 16
        assert evaluate("16 >> 2") == 4


class TestFunctions:
    @pytest.mark.parametrize("text,expected", [
        ("abs(-4)", 4),
        ("int(3.7)", 3),
        ("double(3)", 3.0),
        ("round(3.5)", 4),
        # half away from zero, as tclsh8.6 rounds, not to even
        ("round(2.5)", 3),
        ("round(-2.5)", -3),
        ("round(-3.5)", -4),
        ("round(0.49999999999999994)", 0),
        ("round(-2.4)", -2),
        ("round(7)", 7),
        ("round(1e30)", 10 ** 30 + 19884624838656),
        ("min(3, 1, 2)", 1),
        ("max(3, 1, 2)", 3),
        ("sqrt(16)", 4.0),
        ("pow(2, 10)", 1024),
    ])
    def test_functions(self, text, expected):
        assert evaluate(text) == expected


class TestErrors:
    def test_trailing_garbage(self):
        with pytest.raises(TclError):
            evaluate("1 + 2 3")

    def test_unterminated_string(self):
        with pytest.raises(TclError):
            evaluate('"oops')

    def test_unexpected_character(self):
        with pytest.raises(TclError):
            evaluate("1 @ 2")

    def test_missing_paren(self):
        with pytest.raises(TclError):
            evaluate("(1 + 2")


class TestHelpers:
    def test_coerce_number(self):
        assert coerce_number("42") == 42
        assert coerce_number(" 3.5 ") == 3.5
        assert coerce_number("0x1f") == 31
        with pytest.raises(TclError):
            coerce_number("banana")

    def test_is_numeric(self):
        assert is_numeric("7")
        assert is_numeric(3.2)
        assert not is_numeric("seven")

    def test_truth(self):
        assert truth("1") and truth("yes") and truth("true") and truth("on")
        assert not truth("0") and not truth("no") and not truth("false")
        assert truth(5) and not truth(0.0)

    def test_format_value(self):
        assert format_value(True) == "1"
        assert format_value(6.0) == "6.0"
        assert format_value(7) == "7"
        assert format_value("str") == "str"


class TestTemplates:
    """A compiled template equals evaluating its substituted text."""

    VALUES = ["", "a b", "-1", "+", '"', "1e3", "0x1F", "015", "inf",
              "abs", "7", "eq", "x_1", '"q r"']

    @pytest.mark.parametrize("template", [
        "${a}eq 1", "1 eq${a}", "${a}ne${b}", "$a$b", "1$a", "${a}(2)",
        "$a (2)", "${a}.5", "-$a", "!$a", "$a?$b:1", "($a)", "max($a,$b)",
        "$a e3", "1e+$a", '"$a"', "[set a] < $b", "[set a][set b]",
    ])
    @pytest.mark.parametrize("a", VALUES)
    def test_leaf_values_in_every_position(self, template, a):
        from repro.core.tclish import Interp
        from repro.core.tclish.compiler import compile_template
        interp = Interp()
        interp.set_var("a", a)
        interp.set_var("b", "x_1")
        substituted = template.replace("[set a]", a).replace(
            "[set b]", "x_1").replace("${a}", a).replace(
            "${b}", "x_1").replace("$a", a).replace("$b", "x_1")

        def outcome(fn):
            try:
                value = fn()
            except Exception as err:  # noqa: BLE001
                return type(err).__name__, str(err)
            return type(value).__name__, repr(value)
        assert outcome(lambda: compile_template(template)(interp)) == \
            outcome(lambda: evaluate(substituted))
