"""Unit tests for tclish built-in commands: control flow, lists, strings."""

import pytest

from repro.core.tclish import Interp, TclError


@pytest.fixture
def interp():
    return Interp()


class TestControlFlow:
    def test_if_true_branch(self, interp):
        assert interp.eval("if {1} {set r yes} else {set r no}") == "yes"

    def test_if_false_branch(self, interp):
        assert interp.eval("if {0} {set r yes} else {set r no}") == "no"

    def test_if_without_else(self, interp):
        assert interp.eval("if {0} {set r yes}") == ""

    def test_elseif_chain(self, interp):
        interp.eval("set x 2")
        result = interp.eval(
            "if {$x == 1} {set r one} elseif {$x == 2} {set r two} "
            "else {set r other}")
        assert result == "two"

    def test_if_then_keyword(self, interp):
        assert interp.eval("if {1} then {set r ok}") == "ok"

    def test_while_loop(self, interp):
        interp.eval("set total 0; set i 0")
        interp.eval("while {$i < 5} { incr total $i; incr i }")
        assert interp.eval("set total") == "10"

    def test_while_break(self, interp):
        interp.eval("set i 0")
        interp.eval("while {1} { incr i; if {$i >= 3} { break } }")
        assert interp.eval("set i") == "3"

    def test_while_continue(self, interp):
        interp.eval("set evens 0; set i 0")
        interp.eval("""
        while {$i < 10} {
            incr i
            if {$i % 2} { continue }
            incr evens
        }""")
        assert interp.eval("set evens") == "5"

    def test_for_loop(self, interp):
        interp.eval("set s 0")
        interp.eval("for {set i 1} {$i <= 4} {incr i} { incr s $i }")
        assert interp.eval("set s") == "10"

    def test_for_break(self, interp):
        interp.eval("for {set i 0} {1} {incr i} { if {$i == 7} break }")
        assert interp.eval("set i") == "7"

    def test_foreach(self, interp):
        interp.eval("set acc {}")
        interp.eval("foreach v {c b a} { append acc $v }")
        assert interp.eval("set acc") == "cba"

    def test_foreach_break_continue(self, interp):
        interp.eval("set n 0")
        interp.eval("""
        foreach v {1 2 skip 3 stop 4} {
            if {$v eq "skip"} { continue }
            if {$v eq "stop"} { break }
            incr n
        }""")
        assert interp.eval("set n") == "3"

    def test_runaway_while_guarded(self, interp):
        with pytest.raises(TclError):
            interp.eval("while {1} {}")

    def test_catch_ok(self, interp):
        assert interp.eval("catch {set x 1} msg") == "0"
        assert interp.eval("set msg") == "1"

    def test_catch_error(self, interp):
        assert interp.eval("catch {error boom} msg") == "1"
        assert interp.eval("set msg") == "boom"

    def test_catch_traps_break_and_continue(self, interp):
        # Tcl's codes 3 and 4, as tclsh8.6 returns them: the loop around
        # the catch runs on, and a top-level catch {break} is no error
        assert interp.eval("set n 0; while {$n < 3} "
                           "{ incr n; set r [catch {break}] }; set n") == "3"
        assert interp.eval("set r") == "3"
        assert interp.eval("catch {break}") == "3"
        assert interp.eval("catch {continue} msg") == "4"
        assert interp.eval("set msg") == ""
        # a script known only at run time goes through the command
        assert interp.eval("set s continue; catch $s") == "4"

    def test_eval_builtin(self, interp):
        assert interp.eval('eval {set x 9}') == "9"


class TestLists:
    def test_list_builds_and_quotes(self, interp):
        assert interp.eval("list a b {c d}") == "a b {c d}"

    def test_lindex(self, interp):
        assert interp.eval("lindex {a b c} 1") == "b"
        assert interp.eval("lindex {a b c} end") == "c"
        assert interp.eval("lindex {a b c} end-1") == "b"
        assert interp.eval("lindex {a b c} 9") == ""

    def test_llength(self, interp):
        assert interp.eval("llength {a b {c d}}") == "3"
        assert interp.eval("llength {}") == "0"

    def test_lappend(self, interp):
        interp.eval("lappend mylist a")
        interp.eval("lappend mylist b {c c}")
        assert interp.eval("llength $mylist") == "3"
        assert interp.eval("lindex $mylist 2") == "c c"

    def test_lrange(self, interp):
        assert interp.eval("lrange {a b c d e} 1 3") == "b c d"
        assert interp.eval("lrange {a b c} 0 end") == "a b c"

    def test_lsearch(self, interp):
        assert interp.eval("lsearch {a b c} b") == "1"
        assert interp.eval("lsearch {a b c} z") == "-1"

    def test_concat(self, interp):
        assert interp.eval("concat {a b} {c}") == "a b c"

    def test_split_join_roundtrip(self, interp):
        assert interp.eval('join [split "a:b:c" ":"] "-"') == "a-b-c"

    def test_split_empty_chars(self, interp):
        assert interp.eval('llength [split "abc" ""]') == "3"


class TestStrings:
    def test_length(self, interp):
        assert interp.eval("string length hello") == "5"

    def test_case(self, interp):
        assert interp.eval("string toupper abc") == "ABC"
        assert interp.eval("string tolower ABC") == "abc"

    def test_index_and_range(self, interp):
        assert interp.eval("string index hello 1") == "e"
        assert interp.eval("string index hello end") == "o"
        assert interp.eval("string range hello 1 3") == "ell"

    def test_trim(self, interp):
        assert interp.eval('string trim "  x  "') == "x"

    def test_compare_equal(self, interp):
        assert interp.eval("string compare abc abc") == "0"
        assert interp.eval("string compare abc abd") == "-1"
        assert interp.eval("string equal abc abc") == "1"

    def test_match(self, interp):
        assert interp.eval('string match "AC*" ACK') == "1"
        assert interp.eval('string match "AC*" NACK') == "0"

    def test_repeat(self, interp):
        assert interp.eval("string repeat ab 3") == "ababab"

    def test_bad_option(self, interp):
        with pytest.raises(TclError):
            interp.eval("string bogus x")


class TestFormat:
    def test_string_and_int(self, interp):
        assert interp.eval('format "%s=%d" seq 42') == "seq=42"

    def test_float_precision(self, interp):
        assert interp.eval('format "%.2f" 3.14159') == "3.14"

    def test_width(self, interp):
        assert interp.eval('format "%5d" 42') == "   42"

    def test_percent_literal(self, interp):
        assert interp.eval('format "100%%"') == "100%"

    # results and messages as Tcl 8.6.15's tclsh gives them
    @pytest.mark.parametrize("script, result", [
        ("format %d 0x10", "16"),
        ("format %d -0x10", "-16"),
        ("format %d 0b101", "5"),
        ("format %d 0o17", "15"),
        ('format %d " 7 "', "7"),
        ("format %d +7", "7"),
        ("format %5.2d 3", "   03"),
        ("format %c 65", "A"),
        ("format %x 255", "ff"),
    ])
    def test_integer_conversion_reads_tcl_integers(self, interp, script,
                                                   result):
        assert interp.eval(script) == result

    @pytest.mark.parametrize("spec", ["d", "i", "o", "x", "X", "c"])
    @pytest.mark.parametrize("text", ["3.9", "3.0", "abc", "1e3", "1_000",
                                      "0x", "true", ""])
    def test_integer_conversion_refuses_a_non_integer(self, interp, spec,
                                                      text):
        with pytest.raises(TclError) as err:
            interp.eval(f'format %{spec} "{text}"')
        assert str(err.value) == f'expected integer but got "{text}"'
        assert interp.eval(f'catch {{format %{spec} "{text}"}} r') == "1"


class TestInfo:
    def test_info_exists(self, interp):
        interp.eval("set x 1")
        assert interp.eval("info exists x") == "1"
        assert interp.eval("info exists y") == "0"

    def test_info_procs(self, interp):
        interp.eval("proc myproc {} {}")
        assert "myproc" in interp.eval("info procs")

    def test_info_commands_includes_builtins(self, interp):
        commands = interp.eval("info commands")
        assert "set" in commands and "expr" in commands
