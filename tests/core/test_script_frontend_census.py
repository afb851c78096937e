"""Census of the tclish front-end: analyses per campaign, parses per lint.

Counts only, no clocks.  A campaign feeds the same few scripts to many
targets, and every config passes the front-end twice (campaign preflight,
then ``TclishFilter.__init__``); the work must be proportional to the
*distinct* ``(script, init_script)`` pairs, and inside one analysis each
braced body must be lexed once however many passes look at it.
"""

from pathlib import Path

import pytest

from repro.core.fabric.spec import SweepSpec
from repro.core.orchestrator import run_sweep
from repro.core.tclish import clear_cache
from repro.core.tclish import lint as lint_pkg
from repro.core.tclish.lint import Analyzer, checks
from repro.oracle.fuzz import (
    pack_for,
    prefixed_fuzz_body,
    run_fuzz,
    sweep_battery,
)


@pytest.fixture
def analyses(monkeypatch):
    """Every ``Analyzer.analyze`` call, as its (source, init) pair."""
    calls = []
    real = Analyzer.analyze

    def analyze(self, source, init_script=""):
        calls.append((source, init_script))
        return real(self, source, init_script)

    monkeypatch.setattr(Analyzer, "analyze", analyze)
    return calls


@pytest.fixture
def lint_requests(monkeypatch):
    """Every ``lint_source`` call the engines make (they import it late)."""
    calls = []
    real = lint_pkg.lint_source

    def lint_source(source, **options):
        calls.append((source, options.get("init_script", "")))
        return real(source, **options)

    monkeypatch.setattr(lint_pkg, "lint_source", lint_source)
    return calls


def test_sweep_analyzes_each_distinct_script_once(analyses, lint_requests):
    configs = sweep_battery("tcp", [], 6)
    pairs = {(c["script"], c["init_script"]) for c in configs}
    assert (len(configs), len(pairs)) == (24, 6)
    spec = SweepSpec(body=prefixed_fuzz_body, seed=0, configs=configs,
                     oracle=pack_for("tcp"))
    clear_cache()
    del analyses[:], lint_requests[:]

    first = run_sweep(spec, workers=1)
    # every check still happens: preflight and filter build, per config
    assert len(lint_requests) == 2 * len(configs)
    assert sorted(analyses) == sorted(pairs)

    second = run_sweep(spec, workers=1)
    assert len(lint_requests) == 4 * len(configs)
    assert len(analyses) == len(pairs)
    assert ([(r.result, r.violations) for r in first]
            == [(r.result, r.violations) for r in second])


def test_fuzz_session_analyzes_each_drawn_script_once(analyses,
                                                      lint_requests):
    clear_cache()
    run_fuzz("tcp", seed=1, budget=48)
    # grammar self-check + preflight + filter build, rejected draws too
    assert len(lint_requests) == 144
    assert len(analyses) == len(set(analyses)) == 45
    assert set(analyses) == set(lint_requests)


NESTED = """\
set n 0
if {$n > 1} {
    while {$n < 5} {
        incr n
    }
} else {
    proc helper {a} {
        if {$a} { xDrop cur_msg }
    }
}
helper 1
"""


def test_one_analysis_parses_each_body_once(monkeypatch):
    parsed = []             # (text, offset, inside the proc pre-pass?)
    prepass_depth = [0]
    real_parse = checks.parse_script
    real_collect = Analyzer._collect_procs

    def parse_script(text, base_offset=0):
        parsed.append((text, base_offset, prepass_depth[0] > 0))
        return real_parse(text, base_offset)

    def collect_procs(self, commands):
        prepass_depth[0] += 1
        try:
            return real_collect(self, commands)
        finally:
            prepass_depth[0] -= 1

    monkeypatch.setattr(checks, "parse_script", parse_script)
    monkeypatch.setattr(Analyzer, "_collect_procs", collect_procs)

    summary = Analyzer().analyze(NESTED)
    assert summary.diagnostics == []

    # the script, the if arm, the while body, the else arm, the proc
    # body and the if arm inside it: six bodies, six parses
    assert len(parsed) == 6
    assert len({(text, offset) for text, offset, _ in parsed}) == 6
    # the pre-pass only opens a body that can hold a `proc` definition
    # (and leaves its parse for the walk to reuse)
    by_prepass = [text for text, _offset, prepass in parsed if prepass]
    assert len(by_prepass) == 1 and "proc helper" in by_prepass[0]
    assert all("proc" in text for text in by_prepass)


def test_no_body_is_parsed_twice_within_an_analysis(monkeypatch):
    """Over a tcp sweep battery (a lint-rejected draw included) and the
    example filters."""
    scripts = {(c["script"], c["init_script"])
               for c in sweep_battery("tcp", [], 25)}
    examples = Path(__file__).resolve().parents[2] / "examples" / "filters"
    scripts |= {(path.read_text(), "") for path in examples.glob("*.tcl")}
    real_parse = checks.parse_script
    for source, init in sorted(scripts):
        analyzer, parsed = Analyzer(), []

        def parse_script(text, base_offset=0):
            parsed.append((analyzer._script_tag, base_offset, text))
            return real_parse(text, base_offset)

        monkeypatch.setattr(checks, "parse_script", parse_script)
        analyzer.analyze(source, init)
        assert len(parsed) == len(set(parsed)) > 0, source
