"""Tests for scriptlint: each check against a seeded-buggy fixture.

Every fixture asserts the diagnostic code AND its 1-based line/column,
because a lint message pointing at the wrong place is nearly as useless
as no message at all.
"""

from repro.core.tclish.lint import (
    CODES,
    CommandRegistry,
    CommandSignature,
    Diagnostic,
    LintReport,
    builtin_registry,
    default_registry,
    lint_pair,
    lint_source,
    render_json,
    render_text,
)


def codes(report):
    return [d.code for d in report.sorted()]


def only(report, code):
    found = [d for d in report.sorted() if d.code == code]
    assert len(found) == 1, f"expected one {code}, got {codes(report)}"
    return found[0]


class TestSyntax:
    def test_unbalanced_brace_is_sl000(self):
        report = lint_source("if {$x > 1 { xDrop cur_msg }")
        assert "SL000" in codes(report)
        assert not report.ok()

    def test_clean_script_is_clean(self):
        report = lint_source(
            'if {[msg_type cur_msg] eq "ACK"} { xDelay 3.0 }')
        assert report.ok()
        assert codes(report) == []


class TestUnknownCommand:
    def test_misspelled_pfi_command(self):
        report = lint_source("set x 1\nxDropp cur_msg")
        d = only(report, "SL001")
        assert (d.line, d.col) == (2, 1)
        assert "xDropp" in d.message
        assert "xDrop" in d.hint          # did-you-mean

    def test_proc_defined_names_are_known(self):
        report = lint_source(
            "proc double {x} { return $x }\ndouble 4")
        assert "SL001" not in codes(report)

    def test_python_registered_name_needs_declaration(self):
        # a command registered from Python is unknown by default ...
        assert not lint_source("my_helper 1").ok()
        # ... and accepted once declared in the registry
        registry = default_registry()
        registry.add(CommandSignature("my_helper", 1, 1))
        assert lint_source("my_helper 1", registry=registry).ok()


class TestArity:
    def test_too_few_args(self):
        report = lint_source("peer_set onlyonearg")
        d = only(report, "SL002")
        assert (d.line, d.col) == (1, 1)
        assert "peer_set" in d.message

    def test_runtime_and_lint_agree(self):
        # the same signature drives both the static check and the
        # runtime usage error (see script.PFI_COMMANDS)
        from repro.core.script import PFI_COMMANDS
        sig = PFI_COMMANDS["peer_set"]
        assert not sig.accepts(1)
        assert sig.accepts(2)

    def test_foreach_takes_list_pairs_then_a_body(self):
        # varList list pairs, then the body: an even count is refused
        # by lint exactly where the interpreter refuses it
        from repro.core.tclish import Interp, TclError
        for script in ("foreach a {1 2} b {}", "foreach a"):
            d = only(lint_source(script), "SL002")
            assert (d.line, d.col) == (1, 1)
            try:
                Interp().eval(script)
            except TclError as err:
                assert str(err).startswith("wrong # args")
            else:
                raise AssertionError(f"{script!r} ran")
        assert lint_source("foreach a {1 2} b {x y} {puts $a$b}").ok()

    def test_foreach_sets_every_name_of_its_lists(self):
        report = lint_source(
            "foreach {a b} {1 2 3 4} c {x y} {puts $a$b$c}\nputs $b")
        assert "SL003" not in codes(report)


class TestUseBeforeSet:
    def test_plain_read_before_set(self):
        report = lint_source("puts $counter")
        d = only(report, "SL003")
        assert d.line == 1
        assert "counter" in d.message

    def test_init_script_defines(self):
        report = lint_source(
            "incr seen\nif {$seen > 30} { xDrop cur_msg }",
            init_script="set seen 0")
        assert report.ok()

    def test_branch_join_both_arms_define(self):
        report = lint_source(
            "if {[chance 0.5]} { set y 1 } else { set y 2 }\nputs $y")
        assert "SL003" not in codes(report)

    def test_one_arm_is_maybe_not_error(self):
        # conservatively silent: set on only one path
        report = lint_source(
            "if {[chance 0.5]} { set y 1 }\nputs $y")
        assert "SL003" not in codes(report)

    def test_info_exists_guard_recognized(self):
        report = lint_source(
            "if {![info exists n]} { set n 0 }\nincr n\nputs $n")
        assert report.ok()

    def test_predefined_names_accepted(self):
        assert not lint_source("puts $vendor").ok()
        assert lint_source("puts $vendor", predefined=("vendor",)).ok()


class TestSwitch:
    """A braced pattern/body list: every arm is walked as a branch."""

    def test_bogus_command_in_an_arm_is_sl001_at_its_own_position(self):
        report = lint_source(
            "set x 1\nswitch $x {\n 1 { xDrop cur_msg }\n"
            " default { xBogus }\n}")
        d = only(report, "SL001")
        assert (d.line, d.col) == (4, 12)
        assert "xBogus" in d.message
        assert codes(report) == ["SL001"]

    def test_set_in_every_arm_or_in_one_arm_is_maybe_assigned(self):
        # a switch has no "all paths covered" join: either way the
        # variable is only maybe-assigned afterwards, so no SL003
        every = lint_source(
            "set x 1\nswitch $x {\n 1 { set y a }\n"
            " default { set y b }\n}\nputs $y")
        one = lint_source(
            "set x 1\nswitch $x {\n 1 { set y a }\n"
            " default { xDrop }\n}\nputs $y")
        assert codes(every) == [] and codes(one) == []

    def test_read_of_a_never_set_variable_inside_an_arm_is_sl003(self):
        report = lint_source("set x 1\nswitch $x {\n 1 { puts $nope }\n}")
        d = only(report, "SL003")
        assert (d.line, d.col) == (3, 11)

    def test_option_forms_reach_the_body(self):
        for options, col in (("-exact -- ", 6), ("-glob ", 6), ("-- ", 6)):
            report = lint_source(
                f"set x 1\nswitch {options}$x {{\n 1 {{ xBogus }}\n}}")
            d = only(report, "SL001")
            assert (d.line, d.col) == (3, col), options

    def test_unparsable_pattern_body_list_does_not_raise(self):
        # the braces balance, so the script parses; the list inside has
        # an unterminated quote and is skipped, silently, as at runtime
        # the error would only surface when the switch executes
        report = lint_source('set x 1\nswitch $x { 1 "xDrop }')
        assert codes(report) == []

    def test_proc_defined_inside_an_arm_is_known_outside(self):
        report = lint_source(
            "set x 1\nswitch $x { 1 { proc helper {} { xDrop } } }\nhelper")
        assert codes(report) == []

    def test_proc_spelled_with_a_backslash_in_a_body_is_still_found(self):
        # `pr\\oc` substitutes to the literal word `proc`
        report = lint_source(
            "set x 1\nif {$x} { pr\\oc helper {} { xDrop } }\nhelper")
        assert codes(report) == []


class TestDeadAndConflicting:
    def test_code_after_return_is_sl004(self):
        report = lint_source("return ok\nset x 1")
        d = only(report, "SL004")
        assert (d.line, d.col) == (2, 1)
        assert d.severity == "warning"

    def test_action_after_unconditional_drop_is_sl005(self):
        report = lint_source("xDrop cur_msg\nxDelay 2.0")
        d = only(report, "SL005")
        assert (d.line, d.col) == (2, 1)
        assert "xDelay" in d.message

    def test_conditional_drop_does_not_poison(self):
        report = lint_source(
            "if {[chance 0.5]} { xDrop cur_msg }\nxDelay 2.0")
        assert "SL005" not in codes(report)


class TestConstantRanges:
    def test_chance_above_one(self):
        report = lint_source("chance 1.5")
        d = only(report, "SL006")
        assert (d.line, d.col) == (1, 8)

    def test_chance_negative(self):
        assert "SL006" in codes(lint_source("chance -0.2"))

    def test_negative_delay(self):
        d = only(lint_source("xDelay -1"), "SL007")
        assert (d.line, d.col) == (1, 8)

    def test_negative_duplicate_count(self):
        d = only(lint_source("xDuplicate cur_msg -3"), "SL007")
        assert (d.line, d.col) == (1, 20)

    def test_reversed_uniform_bounds_warn_only(self):
        report = lint_source("dst_uniform 5 2")
        d = only(report, "SL006")
        assert d.severity == "warning"
        assert report.ok()                 # warnings don't fail the report

    def test_valid_constants_clean(self):
        assert lint_source(
            "chance 0.5\nxDelay 3.0\ndst_uniform 1 2").ok()


class TestHoldRelease:
    def test_hold_without_release(self):
        d = only(lint_source("xHold cur_msg tagA"), "SL008")
        assert (d.line, d.col) == (1, 1)
        assert "tagA" in d.message

    def test_release_without_hold(self):
        d = only(lint_source("xRelease tagB"), "SL008")
        assert "tagB" in d.message

    def test_balanced_pair_clean(self):
        report = lint_source(
            "if {[chance 0.5]} { xHold cur_msg swap } "
            "else { xRelease swap }")
        assert "SL008" not in codes(report)


class TestPairChecks:
    def test_peer_key_typo_both_directions(self):
        report = lint_pair("peer_set count 5",
                           "set c [peer_get cuont 0]")
        found = [d for d in report.sorted() if d.code == "SL009"]
        assert len(found) == 2
        scripts = {d.script for d in found}
        assert scripts == {"send", "receive"}
        assert any("count" in d.hint for d in found)   # did-you-mean

    def test_sync_key_mismatch_is_warning(self):
        report = lint_pair("sync_set go", "sync_get halt")
        assert "SL010" in codes(report)
        assert report.ok()                 # warnings only

    def test_matched_keys_clean(self):
        report = lint_pair("peer_set n 1\nsync_set go",
                           "set x [peer_get n 0]\nmsg_log $x\nsync_get go")
        assert codes(report) == []


class TestReporting:
    def test_text_rendering_shape(self):
        report = lint_source("xDropp cur_msg", source_name="bad.tcl")
        text = render_text(report)
        assert "bad.tcl:1:1: error SL001" in text
        assert "1 error(s), 0 warning(s)" in text

    def test_clean_rendering(self):
        report = lint_source("set x 1\nmsg_log $x", source_name="ok.tcl")
        assert render_text(report) == "ok.tcl: clean"

    def test_json_rendering(self):
        import json
        report = lint_source("chance 2.0", source_name="j.tcl")
        payload = json.loads(render_json(report))
        assert payload["source"] == "j.tcl"
        assert payload["ok"] is False
        assert payload["diagnostics"][0]["code"] == "SL006"
        assert payload["diagnostics"][0]["line"] == 1

    def test_every_code_documented(self):
        # the code table drives docs/scriptlint.md and docs/staticcheck.md:
        # keep them in sync (SL0xx scriptlint, SC1xx determinism, SC2xx
        # trace-schema drift)
        expected = {f"SL{i:03d}" for i in range(14)}
        expected |= {f"SC10{i}" for i in range(1, 8)}
        expected |= {f"SC20{i}" for i in range(1, 5)}
        assert set(CODES) == expected

    def test_diagnostics_sort_by_position(self):
        report = LintReport(source_name="s")
        report.extend([
            Diagnostic("SL001", "error", 5, 1, "b"),
            Diagnostic("SL001", "error", 1, 2, "a"),
        ])
        assert [d.line for d in report.sorted()] == [1, 5]


class TestRegistry:
    def test_builtin_registry_has_stdlib(self):
        registry = builtin_registry()
        for name in ("set", "if", "while", "proc", "expr", "puts"):
            assert name in registry

    def test_default_registry_adds_pfi_table(self):
        registry = default_registry()
        for name in ("xDrop", "xDelay", "chance", "peer_set", "msg_type"):
            assert name in registry

    def test_signature_accepts(self):
        sig = CommandSignature("f", min_args=1, max_args=2)
        assert not sig.accepts(0)
        assert sig.accepts(1) and sig.accepts(2)
        assert not sig.accepts(3)
        unbounded = CommandSignature("g", min_args=0, max_args=None)
        assert unbounded.accepts(99)

    def test_copy_isolates(self):
        base = builtin_registry()
        copy = base.copy()
        copy.add(CommandSignature("only_in_copy"))
        assert "only_in_copy" in copy
        assert "only_in_copy" not in base


class TestMultiDiagnostic:
    def test_all_problems_reported_at_once(self):
        report = lint_source(
            "xDropp cur_msg\nchance 1.5\npeer_set onlyone\nputs $ghost")
        got = set(codes(report))
        assert {"SL001", "SL006", "SL002", "SL003"} <= got
