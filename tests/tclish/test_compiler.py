"""Tests for the compile-once execution engine.

Two halves: unit tests for the word/segment analysis and the shared
compile cache, and a corpus pinning each script's result, variable
state, output or error text to literal values.
"""

import pytest

from repro.core.tclish import Interp, TclError, clear_cache, compile_script
from repro.core.tclish import compiler
from repro.core.tclish.compiler import (
    LITERAL,
    SEG_CMD,
    SEG_TEXT,
    SEG_VAR,
    SEGMENTS,
    VARREF,
    analyze_word,
    compile_substitution,
)


class TestWordAnalysis:
    def test_braced_word_is_literal_verbatim(self):
        word = analyze_word("{$not substituted}")
        assert word.kind == LITERAL
        assert word.text == "$not substituted"

    def test_plain_bare_word_is_literal(self):
        word = analyze_word("hello")
        assert word.kind == LITERAL
        assert word.text == "hello"

    def test_quoted_word_without_specials_is_literal(self):
        word = analyze_word('"hello world"')
        assert word.kind == LITERAL
        assert word.text == "hello world"

    def test_simple_variable_is_varref(self):
        assert analyze_word("$count").kind == VARREF
        assert analyze_word("$count").text == "count"

    def test_braced_variable_is_varref(self):
        word = analyze_word("${a b}")
        assert word.kind == VARREF
        assert word.text == "a b"

    def test_mixed_word_becomes_segments(self):
        word = analyze_word("${it}px")
        assert word.kind == SEGMENTS
        assert word.segments == ((SEG_VAR, "it"), (SEG_TEXT, "px"))

    def test_backslash_only_word_collapses_to_literal(self):
        word = analyze_word(r"a\tb")
        assert word.kind == LITERAL
        assert word.text == "a\tb"

    def test_command_substitution_segment(self):
        segments = compile_substitution("x[cmd a]y")
        assert segments == ((SEG_TEXT, "x"), (SEG_CMD, "cmd a"),
                            (SEG_TEXT, "y"))

    def test_lone_dollar_is_text(self):
        assert compile_substitution("a$ b") == ((SEG_TEXT, "a$ b"),)

    def test_unmatched_bracket_raises(self):
        with pytest.raises(TclError, match="unmatched open bracket"):
            compile_substitution("a[oops")


class TestCompileScript:
    def test_command_and_word_counts(self):
        script = compile_script("set a 1\nif {$a} {puts yes}")
        assert len(script.commands) == 2
        assert [w.kind for w in script.commands[0].words] == [
            LITERAL, LITERAL, LITERAL]

    def test_comments_and_blank_lines_dropped(self):
        script = compile_script("# comment\n\nset a 1\n")
        assert len(script.commands) == 1


class TestCompileCache:
    def setup_method(self):
        clear_cache()

    def teardown_method(self):
        clear_cache()

    def test_eval_counts_hits_and_misses(self):
        interp = Interp()
        base_evals = interp.eval_count
        interp.eval("set a 1")
        interp.eval("set a 1")
        interp.eval("set a 1")
        stats = interp.stats()
        assert stats["eval_count"] == base_evals + 3
        assert stats["cache_misses"] == 1
        assert stats["cache_hits"] == 2

    def test_cache_shared_across_interps(self):
        one = Interp()
        one.eval("set shared 1")
        two = Interp()
        two.eval("set shared 1")
        assert two.cache_hits == 1
        assert two.cache_misses == 0

    def test_control_flow_bodies_hit_the_cache(self):
        interp = Interp()
        interp.eval("set n 0")
        interp.eval("while {$n < 3} {incr n}")
        # the loop body was evaluated three times from one compilation
        assert interp.cache_hits >= 2

    def test_lru_bound_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(compiler, "CACHE_MAX", 4)
        interp = Interp()
        for i in range(8):
            interp.eval(f"set v{i} {i}")
        assert compiler.cache_size() <= 4

    def test_filter_warm_compile(self):
        from repro.core import TclishFilter
        script = TclishFilter("incr n", init_script="set n 0")
        assert script.interp.cache_misses >= 1
        assert compiler.cache_size() >= 1


#: scripts covering the tclish surface, each pinned to its literal result,
#: global variables and ``puts`` output.  The pins were generated while
#: a second, parse-per-eval engine still existed and agreed on every
#: entry; a few are hand-checked Tcl (``incr`` twice from 5 -> 16,
#: ``lindex`` of a built list, the 0..9 ``for`` sum).
EQUIVALENCE_CORPUS = {
    "set a 1": ("1", {"a": "1"}, []),
    "set a 5; incr a; incr a 10": ("16", {"a": "16"}, []),
    "set a hello; append a _world; set a": (
        "hello_world", {"a": "hello_world"}, []),
    "set x 4; expr {$x * 3 + 1}": ("13", {"x": "4"}, []),
    "expr {3.5 / 2}": ("1.75", {}, []),
    'expr {"abc" eq "abc" && 2 < 3}': ("1", {}, []),
    "set n 0; while {$n < 5} {incr n}; set n": ("5", {"n": "5"}, []),
    "set total 0; for {set i 0} {$i < 10} {incr i} "
    "{set total [expr {$total + $i}]}; set total": (
        "45", {"total": "45", "i": "10"}, []),
    "set out {}; foreach x {a b c} {append out $x-}; set out": (
        "a-b-c-", {"out": "a-b-c-", "x": "c"}, []),
    "proc double {x} {return [expr {$x * 2}]}; double 21": ("42", {}, []),
    "proc counter {} {global n; incr n}; set n 0; counter; counter; set n": (
        "2", {"n": "2"}, []),
    "catch {error boom} msg; set msg": ("boom", {"msg": "boom"}, []),
    "catch {set nope}": ("1", {}, []),
    'set l [list a b "c d"]; lindex $l 2': ("c d", {"l": "a b {c d}"}, []),
    "llength {a b c d}": ("4", {}, []),
    "set l {}; lappend l x; lappend l y z; set l": (
        "x y z", {"l": "x y z"}, []),
    "lrange {a b c d e} 1 3": ("b c d", {}, []),
    "lsort -integer {3 1 2}": ("1 2 3", {}, []),
    "lsearch {a b c} c": ("2", {}, []),
    'join [split "a,b,c" ,] -': ("a-b-c", {}, []),
    "string toupper abc": ("ABC", {}, []),
    "string range hello 1 3": ("ell", {}, []),
    'format "%d-%s" 7 x': ("7-x", {}, []),
    "switch -glob DATA {D* {set r data} default {set r other}}; set r": (
        "data", {"r": "data"}, []),
    'set name world; puts "hello $name"; puts -nonewline done': (
        "", {"name": "world"}, ["hello world", "done"]),
    "eval set dyn 9; set dyn": ("9", {"dyn": "9"}, []),
    "set a 3; set b [expr {$a + [llength {x y}]}]": (
        "5", {"a": "3", "b": "5"}, []),
    "set it 5; set x ${it}px; set x": ("5px", {"it": "5", "x": "5px"}, []),
    r'set s "tab\tend"; string length $s': ("7", {"s": "tab\tend"}, []),
    "while {1} {break}": ("", {}, []),
    "set i 0; while {$i < 6} {incr i; if {$i == 2} {continue}}; set i": (
        "6", {"i": "6"}, []),
    "if {0} {set r no} elseif {1} {set r yes} else {set r other}; set r": (
        "yes", {"r": "yes"}, []),
    "info exists missing": ("0", {}, []),
    "set a 1; info exists a": ("1", {"a": "1"}, []),
    "set q [expr {1 ? 10 : 20}]": ("10", {"q": "10"}, []),
}

#: scripts that must fail, each pinned to its error text
ERROR_CORPUS = {
    "no_such_command foo": 'invalid command name "no_such_command"',
    "set": 'wrong # args: should be "set varName ?newValue?"',
    "expr {1 +}": "unexpected end of expression",
    "unset nosuch": 'can\'t unset "nosuch": no such variable',
    "while {1} {error stop}": "stop",
    "foreach x {a b} {error inner}": "inner",
    "incr v one two three":
        'wrong # args: should be "incr varName ?increment?"',
}


class TestCompiledEquivalence:
    @pytest.mark.parametrize("source", EQUIVALENCE_CORPUS)
    def test_results_state_and_output_match(self, source):
        result, globals_, output = EQUIVALENCE_CORPUS[source]
        interp = Interp()
        assert interp.eval(source) == result
        assert interp.globals == globals_
        assert interp.output_lines == output

    @pytest.mark.parametrize("source", ERROR_CORPUS)
    def test_errors_match(self, source):
        with pytest.raises(TclError) as err:
            Interp().eval(source)
        assert str(err.value) == ERROR_CORPUS[source]

    def test_persistent_state_across_evals_matches(self):
        interp = Interp()
        interp.eval("set seen 0; set dropped 0")
        for kind in ["ACK", "DATA", "ACK", "ACK", "DATA"]:
            interp.set_var("kind", kind)
            interp.eval(
                'incr seen\n'
                'if {$kind eq "ACK"} {incr dropped}\n'
                'puts "$seen:$dropped"')
        assert interp.globals == {"seen": "5", "dropped": "3",
                                  "kind": "DATA"}
        assert interp.output_lines == ["1:1", "2:1", "3:2", "4:3", "5:3"]


class TestControlForms:
    """A control command with literal arguments runs its compiled form
    only while its name still means the stdlib command."""

    def test_a_proc_of_the_same_name_wins(self):
        interp = Interp()
        interp.eval("proc if {cond body} {return mine}")
        assert interp.eval("if {1} {set r 1}") == "mine"
        assert not interp.has_var("r")

    def test_a_registered_command_wins(self):
        interp = Interp()
        seen = []
        interp.register_command("while", lambda it, args: seen.append(args)
                                or "replaced")
        assert interp.eval("while {1} {}") == "replaced"
        assert seen == [["1", ""]]

    def test_a_profiled_run_times_every_command(self):
        from repro.obs.profiler import ScriptProfiler
        interp = Interp()
        interp.profiler = ScriptProfiler()
        interp.eval("set i 0; while {$i < 2} {incr i}")
        counts = {name: count for name, (count, _total)
                  in interp.profiler.commands.items()}
        assert counts == {"set": 1, "while": 1, "incr": 2}

    def test_a_body_compiles_on_its_first_run(self):
        clear_cache()
        interp = Interp()
        interp.eval("if {0} {set r 1}")
        assert compiler.cache_size() == 1
        interp.eval("if {1} {set r 1}")
        assert compiler.cache_size() == 3
