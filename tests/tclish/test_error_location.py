"""Where a script error came from: ``TclError.command`` / ``.line``.

``command`` is the innermost command the error escaped from (what its
message names); ``line`` is the line, in the script the host evaluated,
of the outermost command that was running.  A filter's
``script_error{command, line, message}`` is read off these two.
"""

import pytest

from repro.core.tclish import Interp, TclError


def _error(source):
    with pytest.raises(TclError) as caught:
        Interp().eval(source)
    return caught.value


@pytest.mark.parametrize("source, command, line", [
    ("nosuch", "nosuch", 1),
    ("set a 1\n\nputs a b c", "puts", 3),
    ("set a 1\nif {$a} {\n    set b [string index abc]\n}", "string", 2),
    ("proc f {} {\n    error boom\n}\nset x 0\nf", "error", 5),
    ("set x [expr {1 / 0}]", "expr", 1),
    ("foreach v {1 2} {\n    incr v abc\n}", "incr", 1),
    ("# a comment\nset a 1; set b $nosuch", "set", 2),
])
def test_an_error_names_its_command_and_line(source, command, line):
    error = _error(source)
    assert (error.command, error.line) == (command, line)


def test_a_caught_error_leaves_no_trace_on_the_next():
    interp = Interp()
    assert interp.eval("catch {nosuch} msg; set msg") == (
        'invalid command name "nosuch"')
    with pytest.raises(TclError) as caught:
        interp.eval("set a 1\nnosuch2")
    assert (caught.value.command, caught.value.line) == ("nosuch2", 2)


def test_a_stray_break_has_no_command():
    error = _error("break")
    assert (error.command, error.line) == (None, None)
