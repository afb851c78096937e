"""The `repro check` suite: exit-code contract, formats, SARIF shape."""

import json

import pytest

from repro.cli import main
from repro.core.tclish.lint import lint_source
from repro.core.tclish.lint.diagnostics import CODES
from repro.staticcheck import render_sarif, run_suite


@pytest.fixture(scope="module")
def repo_suite():
    """One whole-repo run, shared by the read-only tests below
    (``test_clean_is_zero`` keeps its own run, through the CLI)."""
    return run_suite()


class TestSuiteOverRealRepo:
    def test_whole_repo_is_clean(self, repo_suite):
        # acceptance criterion: zero findings, zero suppressions
        assert repo_suite.internal_errors == []
        assert repo_suite.findings() == []
        assert repo_suite.exit_code() == 0

    def test_all_passes_actually_ran(self, repo_suite):
        assert repo_suite.checked["tclish scripts"] >= 5
        assert repo_suite.checked["corpus scripts"] >= 5
        assert repo_suite.checked["python modules"] >= 30
        assert repo_suite.checked["trace kinds"] >= 60

    def test_render_text_verdict_line(self, repo_suite):
        text = repo_suite.render_text()
        assert text.splitlines()[-1].startswith("repro check: clean")


class TestHeaderRuleCoverage:
    def test_sc107_held_outside_the_simulation_dirs(self, tmp_path):
        # core/ is exempt from the wall-clock rules but not from SC107
        core = tmp_path / "src" / "repro" / "core"
        core.mkdir(parents=True)
        (core / "layer.py").write_text(
            "import time\n"
            "def pop(msg):\n"
            "    started = time.perf_counter()\n"
            "    header = msg.pop_header()\n"
            "    header.seq = 0\n"
            "    return started\n")
        result = run_suite(root=str(tmp_path), drift_enabled=False)
        assert [d.code for _src, d in result.findings()] == ["SC107"]
        assert result.exit_code() == 1


class TestExitCodes:
    def test_clean_is_zero(self, capsys):
        assert main(["check"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_are_one(self, tmp_path, capsys):
        hazard = tmp_path / "hazard.py"
        hazard.write_text("import time\n"
                          "def body(env):\n"
                          "    return time.time()\n")
        code = main(["check", str(hazard), "--no-drift"])
        assert code == 1
        assert "SC103" in capsys.readouterr().out

    def test_python_syntax_error_is_two(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n")
        assert main(["check", str(broken), "--no-drift"]) == 2

    def test_tcl_syntax_error_is_two(self, tmp_path, capsys):
        broken = tmp_path / "broken.tcl"
        broken.write_text("if {$x > 1 { xDrop cur_msg }\n")
        assert main(["check", str(broken), "--no-drift"]) == 2

    def test_lint_syntax_error_is_two(self, tmp_path, capsys):
        broken = tmp_path / "broken.tcl"
        broken.write_text("if {$x > 1 { xDrop cur_msg }\n")
        assert main(["lint", str(broken)]) == 2

    def test_lint_findings_are_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.tcl"
        bad.write_text("xDropp cur_msg\n")
        assert main(["lint", str(bad)]) == 1

    def test_lint_clean_is_zero(self, tmp_path, capsys):
        ok = tmp_path / "ok.tcl"
        ok.write_text("xDelay 2.0\n")
        assert main(["lint", str(ok)]) == 0

    def test_lint_missing_file_is_two(self, capsys):
        assert main(["lint", "no/such/file.tcl"]) == 2


class TestFormats:
    def test_check_json(self, tmp_path, capsys):
        hazard = tmp_path / "hazard.py"
        hazard.write_text("import random\n"
                          "def body(env):\n"
                          "    return random.random()\n")
        assert main(["check", str(hazard), "--no-drift",
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 1
        codes = [d["code"] for r in payload["reports"]
                 for d in r["diagnostics"]]
        assert codes == ["SC104"]

    def test_check_sarif(self, tmp_path, capsys):
        hazard = tmp_path / "hazard.py"
        hazard.write_text("import time\n"
                          "def body(env):\n"
                          "    return time.time()\n")
        assert main(["check", str(hazard), "--no-drift",
                     "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert results[0]["ruleId"] == "SC103"

    def test_lint_sarif(self, tmp_path, capsys):
        bad = tmp_path / "bad.tcl"
        bad.write_text("chance 1.5\n")
        assert main(["lint", str(bad), "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        result = doc["runs"][0]["results"][0]
        assert result["ruleId"] == "SL006"
        assert result["locations"][0]["physicalLocation"][
            "region"]["startLine"] == 1


class TestSarifDocument:
    def test_rules_cover_every_code(self):
        doc = json.loads(render_sarif([]))
        rules = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert rules == set(CODES)

    def test_results_carry_stable_fingerprints(self):
        report = lint_source("puts $ghost", source_name="fp.tcl")
        doc_a = json.loads(render_sarif([report]))
        doc_b = json.loads(render_sarif([report]))
        fp_a = doc_a["runs"][0]["results"][0]["partialFingerprints"]
        fp_b = doc_b["runs"][0]["results"][0]["partialFingerprints"]
        assert fp_a == fp_b
        assert fp_a["reproStaticcheck/v1"]

    def test_severity_levels_map(self):
        report = lint_source("xDropp cur_msg\nxHold cur_msg tagA",
                             source_name="lv.tcl")
        doc = json.loads(render_sarif([report]))
        levels = {r["ruleId"]: r["level"]
                  for r in doc["runs"][0]["results"]}
        assert levels["SL001"] == "error"
        assert levels["SL008"] == "warning"


class TestCorpusExtraction:
    def test_embedded_scripts_are_linted(self, repo_suite):
        corpus_reports = [r for r in repo_suite.reports
                          if ".json[" in r.source_name]
        assert len(corpus_reports) >= 5
        for report in corpus_reports:
            assert report.ok(severity="warning"), report.source_name

    def test_unreadable_artifact_is_internal_error(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"not": "an artifact"}')
        result = run_suite(tcl_paths=[], corpus_paths=[str(bogus)],
                           py_paths=[], drift_enabled=False)
        assert result.exit_code() == 2
        assert "bogus.json" in result.internal_errors[0]
