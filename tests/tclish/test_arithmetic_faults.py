"""Arithmetic faults in an expression are script errors.

An overflow, an infinite result or a division the float library refuses
must end as a :class:`TclError` that ``catch`` traps, never as a Python
``OverflowError`` / ``ZeroDivisionError`` escaping the interpreter.
"""

import pytest

from repro.core.tclish import Interp, TclError
from repro.core.tclish.expr import DOMAIN, TOO_LARGE

#: expression -> the error ``expr`` ends with
FAULTS = {
    "1e308 * 10": TOO_LARGE,
    "1e400": TOO_LARGE,
    "round(1e400)": "integer value too large to represent",
    "int(-1e400)": "integer value too large to represent",
    "10.0 ** 400": TOO_LARGE,
    "0 ** -1": "exponentiation of zero by negative power",
    "2 ** 268435456": "exponent too large",
    "(-8) ** 0.5": DOMAIN,
    # a math function's overflow or pole is an infinite result (Tcl 8.6
    # prints Inf), and its other faults are Tcl's domain error
    "exp(1000)": TOO_LARGE,
    "pow(0,-1)": TOO_LARGE,
    "pow(10,400)": TOO_LARGE,
    "log(0)": TOO_LARGE,
    "pow(-8,1.0/3)": DOMAIN,
    "sqrt(-1)": DOMAIN,
    "log(-1)": DOMAIN,
    "fmod(1,0)": DOMAIN,
}


@pytest.mark.parametrize("expression", FAULTS)
def test_fault_is_a_tcl_error(expression):
    with pytest.raises(TclError) as info:
        Interp().eval(f"expr {{{expression}}}")
    assert str(info.value) == FAULTS[expression]


@pytest.mark.parametrize("expression", FAULTS)
def test_catch_traps_the_fault(expression):
    interp = Interp()
    assert interp.eval(f"catch {{expr {{{expression}}}}} msg") == "1"
    assert interp.eval("set msg") == FAULTS[expression]


@pytest.mark.parametrize("expression", FAULTS)
def test_dynamic_arguments_fault_the_same_way(expression):
    interp = Interp()
    interp.eval(f"set e {{{expression}}}")
    assert interp.eval("catch {expr $e} msg") == "1"
    assert interp.eval("set msg") == FAULTS[expression]


def test_a_faulting_condition_names_its_command():
    interp = Interp()
    assert interp.eval("catch {if {1 << -1} {set r 1}} msg") == "1"
    assert interp.eval("set msg") == (
        'error in command "if": negative shift count')
    assert interp.eval("catch {while {1 << -1} {}} msg") == "1"
    assert interp.eval("set msg") == (
        'error in command "while": negative shift count')


def test_an_infinite_intermediate_is_a_value():
    # only an infinite *result* is refused: as in Tcl 8.6, an infinite
    # math function value compares and tests true
    interp = Interp()
    assert interp.eval("expr {log(0) < 0}") == "1"
    assert interp.eval("expr {pow(0,-1) > 1e308}") == "1"
    assert interp.eval("if {exp(1000)} {set r 1} else {set r 0}") == "1"


def test_pow_is_a_double():
    interp = Interp()
    assert interp.eval("expr {pow(2,3)}") == "8.0"
    assert interp.eval("expr {pow(-2,3)}") == "-8.0"
    assert interp.eval("expr {pow(2,-1)}") == "0.5"


def test_an_infinite_command_result_is_a_tcl_error():
    interp = Interp()
    interp.register_function("huge", lambda: float("inf"))
    assert interp.eval("catch {huge} msg") == "1"
    assert interp.eval("set msg") == TOO_LARGE


#: a math function called with the wrong number of arguments
ARITY = {
    "abs(1, 2)": 'too many arguments for math function "abs"',
    "max()": 'not enough arguments for math function "max"',
    "int(1,2)": 'too many arguments for math function "int"',
    "round(1.5, 2, 3)": 'too many arguments for math function "round"',
    "pow(2)": 'not enough arguments for math function "pow"',
}


@pytest.mark.parametrize("expression", ARITY)
def test_math_function_arity_is_a_tcl_error(expression):
    with pytest.raises(TclError) as info:
        Interp().eval(f"expr {{{expression}}}")
    assert str(info.value) == ARITY[expression]


@pytest.mark.parametrize("expression", ARITY)
def test_catch_traps_a_math_function_arity_error(expression):
    interp = Interp()
    assert interp.eval(f"catch {{expr {{{expression}}}}} msg") == "1"
    assert interp.eval("set msg") == ARITY[expression]
    interp.eval(f"set e {{{expression}}}")
    assert interp.eval("catch {expr $e} msg") == "1"
    assert interp.eval("set msg") == ARITY[expression]


def test_variadic_math_functions_take_any_positive_count():
    assert Interp().eval("expr {max(1) + min(3, 1, 2)}") == "2"
