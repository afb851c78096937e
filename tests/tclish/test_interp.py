"""Unit tests for the tclish interpreter core: variables, substitution,
procs, command registration, and state persistence."""

import pytest

from repro.core.tclish import Interp, TclError


@pytest.fixture
def interp():
    return Interp()


class TestVariables:
    def test_set_and_get(self, interp):
        assert interp.eval("set x 42") == "42"
        assert interp.eval("set x") == "42"

    def test_unset(self, interp):
        interp.eval("set x 1")
        interp.eval("unset x")
        with pytest.raises(TclError):
            interp.eval("set x")

    def test_unset_missing_raises(self, interp):
        with pytest.raises(TclError):
            interp.eval("unset nope")

    def test_state_persists_across_evals(self, interp):
        interp.eval("set count 0")
        for _ in range(5):
            interp.eval("incr count")
        assert interp.eval("set count") == "5"

    def test_incr_creates_missing_var(self, interp):
        assert interp.eval("incr fresh") == "1"

    def test_incr_with_step(self, interp):
        interp.eval("set x 10")
        assert interp.eval("incr x -3") == "7"

    def test_append(self, interp):
        interp.eval("set s abc")
        assert interp.eval("append s def ghi") == "abcdefghi"


class TestSubstitution:
    def test_variable_substitution(self, interp):
        interp.eval("set name world")
        assert interp.eval('set greeting "hello $name"') == "hello world"

    def test_braced_variable(self, interp):
        interp.eval("set ab 1")
        assert interp.eval('set y "${ab}2"') == "12"

    def test_braces_suppress_substitution(self, interp):
        interp.eval("set x 1")
        assert interp.eval("set y {$x}") == "$x"

    def test_command_substitution(self, interp):
        assert interp.eval("set x [expr {2 + 3}]") == "5"

    def test_nested_command_substitution(self, interp):
        assert interp.eval("set x [expr {[expr {1 + 1}] * 3}]") == "6"

    def test_backslash_escapes(self, interp):
        assert interp.eval(r'set x "a\tb"') == "a\tb"
        assert interp.eval(r'set y "\$notvar"') == "$notvar"

    def test_undefined_variable_raises(self, interp):
        with pytest.raises(TclError):
            interp.eval("set x $missing")

    def test_dollar_without_name_is_literal(self, interp):
        assert interp.eval('set x "$ alone"') == "$ alone"


class TestProcs:
    def test_define_and_call(self, interp):
        interp.eval("proc double {n} { expr {$n * 2} }")
        assert interp.eval("double 21") == "42"

    def test_default_argument(self, interp):
        interp.eval("proc greet {{name world}} { return hello-$name }")
        assert interp.eval("greet") == "hello-world"
        assert interp.eval("greet tcl") == "hello-tcl"

    def test_args_collector(self, interp):
        interp.eval("proc count {args} { llength $args }")
        assert interp.eval("count a b c") == "3"

    def test_missing_argument_raises(self, interp):
        interp.eval("proc f {a b} { set a }")
        with pytest.raises(TclError):
            interp.eval("f onlyone")

    def test_too_many_arguments_raises(self, interp):
        interp.eval("proc f {a} { set a }")
        with pytest.raises(TclError):
            interp.eval("f 1 2")

    def test_locals_do_not_leak(self, interp):
        interp.eval("proc f {} { set local 1 }")
        interp.eval("f")
        with pytest.raises(TclError):
            interp.eval("set local")

    def test_global_links_to_globals(self, interp):
        interp.eval("set g 10")
        interp.eval("proc bump {} { global g; incr g }")
        interp.eval("bump")
        assert interp.eval("set g") == "11"

    def test_recursion(self, interp):
        interp.eval("""
        proc fib {n} {
            if {$n < 2} { return $n }
            expr {[fib [expr {$n - 1}]] + [fib [expr {$n - 2}]]}
        }
        """)
        assert interp.eval("fib 10") == "55"

    def test_runaway_recursion_is_a_tcl_error(self, interp):
        # never Python's RecursionError from deep inside the interpreter,
        # bare, through an if + expr + [f ...] body, or through eval
        for script in ("proc f {} {f}; f",
                       "proc g {n} { if {$n > 0} "
                       "{ return [expr {[g [expr {$n + 1}]] + 1}] } }; g 1",
                       "set s {eval $s}; eval $s"):
            with pytest.raises(TclError, match="too many nested evaluations "
                                               r"\(infinite loop\?\)"):
                interp.eval(script)
        # the frames unwound: the interpreter is usable afterwards, and a
        # script can catch the error like any other
        assert interp.eval("catch {f} msg; set msg").startswith("too many")
        assert interp.eval(
            "proc down {n} { if {$n > 0} { down [expr {$n - 1}] } "
            "else { return bottom } }; down 39") == "bottom"

    def test_return_value(self, interp):
        interp.eval("proc f {} { return early; set never 1 }")
        assert interp.eval("f") == "early"


class TestCommands:
    def test_unknown_command_raises(self, interp):
        with pytest.raises(TclError):
            interp.eval("no_such_command")

    def test_register_command(self, interp):
        interp.register_command("shout",
                                lambda i, args: " ".join(args).upper())
        assert interp.eval("shout hello there") == "HELLO THERE"

    def test_register_function(self, interp):
        interp.register_function("add", lambda a, b: int(a) + int(b))
        assert interp.eval("add 2 3") == "5"

    def test_register_function_stringifies_bool(self, interp):
        interp.register_function("yes", lambda: True)
        assert interp.eval("yes") == "1"

    def test_puts_collected(self, interp):
        interp.eval('puts "line one"')
        interp.eval('puts -nonewline "line two"')
        assert interp.output_lines == ["line one", "line two"]

    def test_output_callback(self):
        captured = []
        interp = Interp(output=captured.append)
        interp.eval('puts "hi"')
        assert captured == ["hi"]


class TestPaperScript:
    """The exact shape of the ACK-dropping script in paper §3."""

    def test_ack_drop_script_semantics(self, interp):
        interp.register_command("msg_type", lambda i, a: "1")
        dropped = []
        interp.register_command("xDrop", lambda i, a: dropped.append(1) or "")
        interp.register_command("msg_log", lambda i, a: "")
        interp.eval("""
            # Message types are ACK, NACK, and GACK.
            set ACK 0x1
            set NACK 0x2
            set GACK 0x4

            puts -nonewline "receive filter: "
            msg_log cur_msg

            set type [msg_type cur_msg]
            if {$type == $ACK} {
               xDrop cur_msg
            }
        """)
        assert dropped == [1]
