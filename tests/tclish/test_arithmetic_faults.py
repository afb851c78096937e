"""Arithmetic faults in an expression are script errors.

An overflow, an infinite result or a division the float library refuses
must end as a :class:`TclError` that ``catch`` traps, never as a Python
``OverflowError`` / ``ZeroDivisionError`` escaping the interpreter.
"""

import pytest

from repro.core.tclish import Interp, TclError
from repro.core.tclish.expr import TOO_LARGE

#: expression -> the error ``expr`` ends with
FAULTS = {
    "1e308 * 10": TOO_LARGE,
    "1e400": TOO_LARGE,
    "round(1e400)":
        'error in command "expr": cannot convert float infinity to integer',
    "exp(1000)": 'error in command "expr": math range error',
    "pow(0,-1)":
        'error in command "expr": 0.0 cannot be raised to a negative power',
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
    assert interp.eval("catch {if {exp(1000)} {set r 1}} msg") == "1"
    assert interp.eval("set msg") == (
        'error in command "if": math range error')
    assert interp.eval("catch {while {pow(0,-1)} {}} msg") == "1"
    assert interp.eval("set msg") == (
        'error in command "while": 0.0 cannot be raised to a negative power')


def test_an_infinite_command_result_is_a_tcl_error():
    interp = Interp()
    interp.register_function("huge", lambda: float("inf"))
    assert interp.eval("catch {huge} msg") == "1"
    assert interp.eval("set msg") == TOO_LARGE
