"""Integration tests for scriptlint's three wiring layers.

Layer 1: TclishFilter validates at construction (warn by default).
Layer 2: Campaign refuses to start on any broken config script.
Layer 3: generate_campaign self-checks its battery.

Plus the corpus guarantee: every tclish script shipped in this
repository -- generated batteries, the Table 1 filter, example filters,
the quickstart -- lints error-clean.
"""

import re
import warnings
from pathlib import Path

import pytest

from repro.core.genscripts import (GenerationLintError, generate_campaign,
                                   gmp_spec, lint_generated, tcp_spec)
from repro.core.orchestrator import Campaign, CampaignScriptError
from repro.core.script import TclishFilter, TclishLintWarning
from repro.core.tclish.lint import TclishLintError, lint_source

REPO = Path(__file__).resolve().parents[2]

#: the paper's Table 1 receive filter (``tcp_retransmission
#: .drop_after_script``) written in tclish
DROP_AFTER_TCLISH = """
# Pass the first $limit packets, then log and drop everything.
incr seen
if {$seen > $limit} {
    msg_log cur_msg
    xDrop cur_msg
}
"""


def _noop_body(env, config):
    return config.get("vendor")


class TestFilterConstruction:
    def test_default_mode_warns_and_stores_report(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            f = TclishFilter("xDropp cur_msg")
        assert any(issubclass(w.category, TclishLintWarning)
                   for w in caught)
        assert not f.lint_report.ok()
        assert f.lint_report.sorted()[0].code == "SL001"

    def test_error_mode_raises_with_full_report(self):
        with pytest.raises(TclishLintError) as excinfo:
            TclishFilter("xDropp cur_msg\nchance 1.5", lint="error")
        report = excinfo.value.report
        assert {d.code for d in report.sorted()} == {"SL001", "SL006"}

    def test_off_mode_skips_analysis(self):
        f = TclishFilter("xDropp cur_msg", lint="off")
        assert f.lint_report is None

    def test_clean_filter_quiet_in_every_mode(self):
        source = 'if {[msg_type cur_msg] eq "ACK"} { xDelay 3.0 }'
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # any warning -> failure
            TclishFilter(source)
            TclishFilter(source, lint="error")

    def test_init_script_participates(self):
        # $seen comes from the init script: clean with it, flagged without
        body = "incr seen\nif {$seen > 3} { xDrop cur_msg }"
        TclishFilter(body, init_script="set seen 0", lint="error")
        with pytest.raises(TclishLintError):
            TclishFilter("puts $ghost", lint="error")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            TclishFilter("set x 1", lint="loud")


class TestCampaignRefusal:
    def test_broken_config_fails_before_any_worker(self):
        ran = []

        def body(env, config):
            ran.append(config)

        with pytest.raises(CampaignScriptError):
            Campaign(body).run([
                {"vendor": "a", "script": "set x 1"},       # clean
                {"vendor": "b", "script": "xDropp cur_msg"},
            ])
        assert ran == []          # not even the clean config executed

    def test_all_broken_configs_reported_at_once(self):
        with pytest.raises(CampaignScriptError) as excinfo:
            Campaign(_noop_body).run([
                {"script": "xDropp cur_msg"},
                {"script": "chance 1.5"},
                {"script": "set ok 1"},
            ])
        err = excinfo.value
        assert len(err.reports) == 2
        text = str(err)
        assert "config[0].script" in text and "config[1].script" in text
        assert "refused to start" in text

    def test_init_key_pairs_with_script_key(self):
        # $n is defined by init_script, so the config is clean
        results = Campaign(_noop_body).run([
            {"vendor": "a", "script": "incr n", "init_script": "set n 0"}])
        assert len(results) == 1

    def test_only_the_script_key_carries_a_script(self):
        campaign = Campaign(_noop_body)
        assert len(campaign.validate_scripts(
            [{"script": "xDropp cur_msg"}])) == 1
        assert campaign.validate_scripts(
            [{"tclish": "xDropp cur_msg", "name": "xDropp cur_msg"}]) == []

    def test_lint_off_restores_old_behaviour(self):
        results = Campaign(_noop_body, lint="off").run(
            [{"vendor": "a", "script": "xDropp cur_msg"}])
        assert len(results) == 1

    def test_invalid_lint_mode_rejected(self):
        with pytest.raises(ValueError):
            Campaign(_noop_body, lint="warn")

    def test_parallel_path_also_guarded(self):
        with pytest.raises(CampaignScriptError):
            Campaign(_noop_body).run(
                [{"script": "xDropp cur_msg"}, {"script": "set x 1"}],
                workers=2)


class TestGeneratorSelfCheck:
    def test_generated_batteries_are_clean(self):
        for spec in (tcp_spec(), gmp_spec()):
            scripts = generate_campaign(spec)
            assert scripts
            assert lint_generated(scripts) == []

    def test_broken_template_raises_at_generation_time(self):
        scripts = generate_campaign(tcp_spec(), self_check=False)
        # simulate a template regression
        scripts[0].tclish_source = "xDropp cur_msg"
        failing = lint_generated(scripts)
        assert len(failing) == 1
        with pytest.raises(GenerationLintError):
            if failing:
                raise GenerationLintError(failing)


class TestCorpusIsClean:
    def test_experiment_embedded_script(self):
        from repro.experiments.tcp_retransmission import PASS_COUNT
        report = lint_source(
            DROP_AFTER_TCLISH,
            init_script=f"set seen 0; set limit {PASS_COUNT}")
        assert report.ok(), report.sorted()

    def test_example_filter_files(self):
        filters = sorted((REPO / "examples" / "filters").glob("*.tcl"))
        assert len(filters) >= 5
        for path in filters:
            report = lint_source(path.read_text(),
                                 source_name=str(path))
            assert report.ok(), report.sorted()

    def test_quickstart_embedded_script(self):
        text = (REPO / "examples" / "quickstart.py").read_text()
        blocks = re.findall(
            r'TclishFilter\("""(.*?)"""(?:,\s*init_script="([^"]*)")?',
            text, re.S)
        assert blocks, "quickstart no longer embeds a tclish script?"
        for source, init in blocks:
            report = lint_source(source, init_script=init)
            assert report.ok(), report.sorted()
