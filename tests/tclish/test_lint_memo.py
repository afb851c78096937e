"""The lint verdict memo: one analysis per (script, init, predefined).

``lint_source`` against the default registry remembers its verdict in
the compile-cache family.  These tests pin what makes that sound: the
memo is emptied whenever the command surface it was judged against
changes, a report is the caller's own, and a caller-supplied registry
never touches it.
"""

from pathlib import Path

import pytest

from repro.core import script as script_mod
from repro.core.tclish import clear_cache, compiler
from repro.core.tclish.lint import (
    Analyzer,
    default_registry,
    lint_source,
)
from repro.core.tclish.lint.diagnostics import make


@pytest.fixture(autouse=True)
def cold_caches():
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def count_analyses(monkeypatch):
    calls = []
    real = Analyzer.analyze

    def analyze(self, source, init_script=""):
        calls.append((source, init_script))
        return real(self, source, init_script)

    monkeypatch.setattr(Analyzer, "analyze", analyze)
    return calls


def rows(report):
    return [(d.code, d.line, d.col, d.message) for d in report.sorted()]


class TestOneAnalysisPerKey:
    def test_second_call_is_answered_from_the_memo(self, count_analyses):
        first = lint_source("xDropp cur_msg")
        second = lint_source("xDropp cur_msg")
        assert len(count_analyses) == 1
        assert rows(first) == rows(second) != []
        assert compiler.cache_stats()["lint_cache"] == 1

    def test_init_script_and_predefined_are_part_of_the_key(
            self, count_analyses):
        body = "if {$n > 3} { xDrop cur_msg }\nincr n"
        assert not lint_source(body).ok()
        assert lint_source(body, init_script="set n 0").ok()
        assert lint_source(body, predefined=["n"]).ok()
        assert not lint_source(body).ok()
        assert len(count_analyses) == 3
        assert compiler.cache_stats()["lint_cache"] == 3

    def test_clear_cache_forgets_verdicts(self, count_analyses):
        lint_source("xDrop cur_msg")
        clear_cache()
        assert compiler.cache_stats()["lint_cache"] == 0
        lint_source("xDrop cur_msg")
        assert len(count_analyses) == 2

    def test_memo_is_bounded_by_cache_max(self, monkeypatch):
        monkeypatch.setattr(compiler, "CACHE_MAX", 8)
        for n in range(30):
            lint_source(f"set v{n} 1\nputs $v{n}")
            assert compiler.cache_stats()["lint_cache"] <= 8
        # least recently used goes first: the newest are still there
        assert ("set v29 1\nputs $v29", "", ()) in compiler._LINT_CACHE
        assert ("set v0 1\nputs $v0", "", ()) not in compiler._LINT_CACHE


class TestReportsAreTheCallers:
    def test_adding_to_a_report_does_not_leak_into_the_next(self):
        first = lint_source("xDrop cur_msg")
        first.add(make("SL001", 1, 1, "planted by the caller"))
        assert len(first) == 1
        assert len(lint_source("xDrop cur_msg")) == 0

    def test_each_call_carries_its_own_source_name(self):
        one = lint_source("xDropp", source_name="config[0]")
        two = lint_source("xDropp", source_name="config[7]")
        assert (one.source_name, two.source_name) == ("config[0]",
                                                      "config[7]")
        assert rows(one) == rows(two)
        assert one.diagnostics is not two.diagnostics

    def test_memoized_verdict_is_immutable(self):
        lint_source("xDropp")
        verdict, = compiler._LINT_CACHE.values()
        assert isinstance(verdict, tuple)
        with pytest.raises(AttributeError):
            verdict[0].line = 99


class TestRegistryBypass:
    def test_registry_call_neither_reads_nor_writes_the_memo(
            self, count_analyses):
        lint_source("my_helper 1", registry=default_registry())
        assert compiler.cache_stats()["lint_cache"] == 0
        # a verdict judged against the default surface is in the memo ...
        assert not lint_source("my_helper 1").ok()
        # ... and a registry that knows the command must not see it
        registry = default_registry()
        registry.add(script_mod.CommandSignature("my_helper", 1, 1))
        assert lint_source("my_helper 1", registry=registry).ok()
        assert lint_source("my_helper 1", registry=registry).ok()
        assert len(count_analyses) == 4
        assert compiler.cache_stats()["lint_cache"] == 1

    def test_default_registry_copies_are_independent(self):
        mine = default_registry()
        mine.add(script_mod.CommandSignature("only_mine"))
        assert "only_mine" not in default_registry()
        assert not lint_source("only_mine").ok()


class TestExampleCorpus:
    def test_memo_matches_the_bypass_and_analyzes_once(self, count_analyses):
        corpus = sorted((Path(__file__).resolve().parents[2]
                         / "examples" / "filters").glob("*.tcl"))
        assert corpus
        for path in corpus:
            source = path.read_text()
            for _again in range(2):
                memo = lint_source(source, source_name=str(path))
                bypass = lint_source(source, source_name=str(path),
                                     registry=default_registry())
                assert memo == bypass, path
        # per file: one analysis through the memo, two around it
        assert len(count_analyses) == 3 * len(corpus)


class TestCommandSurfaceGrowth:
    def test_registering_a_command_relints_the_same_source(self):
        source = "xNewCmd cur_msg"
        assert [d.code for d in lint_source(source)] == ["SL001"]
        try:
            @script_mod.cmd("xNewCmd", 0, 1, "xNewCmd ?cur_msg?", "test")
            def _new_cmd(ctx, _i, args):
                return ""
            assert lint_source(source).ok()
            assert "xNewCmd" in default_registry()
        finally:
            del script_mod.PFI_COMMANDS["xNewCmd"]
            clear_cache()
        assert [d.code for d in lint_source(source)] == ["SL001"]
