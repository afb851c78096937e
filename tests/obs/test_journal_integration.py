"""Engine wiring: every long-running engine emits a faithful journal.

The headline test is kill-and-replay: a fuzz sweep SIGKILLed mid-run
leaves a journal from which the campaign report reproduces the exact
partial scorecard an in-process run of the surviving prefix produces.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.orchestrator import Campaign, CampaignScriptError
from repro.netsim import kinds as K
from repro.obs.campaign_report import (render_text, summarize_journal,
                                       summary_to_json)
from repro.obs.journal import Journal, replay_journal
from repro.oracle.fuzz import run_fuzz
from repro.oracle.shrink import shrink_finding

from tests.core.test_campaign_parallel import _sweep_configs, sweep_body

REPO = Path(__file__).resolve().parents[2]


class TestCampaignJournal:
    def test_serial_sweep_records_full_lifecycle(self, tmp_path):
        path = tmp_path / "j.jsonl"
        Campaign(sweep_body, seed=7).run(
            _sweep_configs(count=3, events=50), journal=path)
        replay = replay_journal(path)
        assert replay.complete and replay.torn_tail is None
        assert replay.events[0].get("engine") == "campaign"
        assert replay.events[0].get("configs") == 3
        assert len(replay.of(K.CAMPAIGN_RUN_START)) == 3
        ends = replay.of(K.CAMPAIGN_RUN_END)
        assert [e.get("index") for e in ends] == [0, 1, 2]
        assert all(e.get("ok") for e in ends)
        assert all(e.get("telemetry") for e in ends)
        assert replay.last(K.CAMPAIGN_END).get("status") == "ok"
        phases = [e.get("name") for e in replay.of(K.CAMPAIGN_PHASE_START)]
        assert phases == ["preflight", "dispatch"]

    def test_journal_does_not_perturb_results(self, tmp_path):
        campaign = Campaign(sweep_body, seed=7)
        configs = _sweep_configs(count=3, events=50)
        bare = campaign.run(configs)
        journaled = campaign.run(configs, journal=tmp_path / "j.jsonl")
        assert [r.result for r in bare] == [r.result for r in journaled]

    def test_parallel_journal_matches_serial_on_stable_fields(self, tmp_path):
        configs = _sweep_configs(count=4, events=50)
        campaign = Campaign(sweep_body, seed=7)
        campaign.run(configs, journal=tmp_path / "serial.jsonl")
        campaign.run(configs, workers=2, journal=tmp_path / "parallel.jsonl")
        serial = summarize_journal(tmp_path / "serial.jsonl")
        parallel = summarize_journal(tmp_path / "parallel.jsonl")
        assert (sorted(r.stable_key() for r in serial.runs)
                == sorted(r.stable_key() for r in parallel.runs))
        assert parallel.completed
        names = [name for name, _, _ in parallel.phases]
        assert names == ["preflight", "dispatch", "merge"] or \
            names == ["dispatch", "merge"]

    def test_cache_hits_record_cached_run_end(self, tmp_path):
        configs = _sweep_configs(count=2, events=50)
        campaign = Campaign(sweep_body, seed=7)
        campaign.run(configs, fabric_dir=tmp_path / "fabric")
        campaign.run(configs, fabric_dir=tmp_path / "fabric",
                     journal=tmp_path / "j.jsonl")
        summary = summarize_journal(tmp_path / "j.jsonl")
        assert summary.executed == 2
        assert all(row.cached for row in summary.runs)
        assert summary.end.get("cached") == 2

    def test_body_crash_records_worker_error_then_end(self, tmp_path):
        def dying_body(env, config):
            if config["boom"]:
                raise RuntimeError("planted")
            return {}

        path = tmp_path / "j.jsonl"
        with pytest.raises(RuntimeError, match="planted"):
            Campaign(dying_body, seed=1).run(
                [{"boom": False}, {"boom": True}], journal=path)
        replay = replay_journal(path)
        errors = replay.of(K.CAMPAIGN_WORKER_ERROR)
        assert len(errors) == 1 and "planted" in errors[0].get("error")
        assert replay.last(K.CAMPAIGN_END).get("status") == "failed"

    def test_preflight_failure_ends_journal(self, tmp_path):
        def noop_body(env, config):
            return {}

        path = tmp_path / "j.jsonl"
        with pytest.raises(CampaignScriptError):
            Campaign(noop_body, seed=1).run(
                [{"script": "xDropp cur_msg"}], journal=path)
        replay = replay_journal(path)
        assert replay.of(K.CAMPAIGN_PREFLIGHT)[0].get("ok") is False
        assert replay.last(K.CAMPAIGN_END).get("status") == "preflight_failed"

    def test_progress_sink_receives_renderer_lines(self, tmp_path):
        lines = []
        Campaign(sweep_body, seed=7).run(
            _sweep_configs(count=2, events=50), progress=lines.append)
        assert lines and all(line.startswith("[campaign] ")
                             for line in lines)
        assert lines[-1].startswith("[campaign] 2/2 configs")


class TestFuzzJournal:
    def test_fuzz_journal_matches_report(self, tmp_path):
        path = tmp_path / "j.jsonl"
        report = run_fuzz("gmp", seed=0, budget=8, journal=path)
        summary = summarize_journal(path)
        assert summary.completed
        assert summary.engine == "fuzz"
        assert summary.executed == report.executed
        assert len(summary.findings) == len(report.findings)
        assert summary.coverage_total == len(report.coverage)
        assert summary.corpus_size == len(report.corpus)
        assert summary.end.get("status") == "ok"

    def test_engine_path_records_checkpoint_captures(self, tmp_path):
        path = tmp_path / "j.jsonl"
        run_fuzz("gmp", seed=0, budget=8, checkpoint_depth=8.0,
                 journal=path)
        replay = replay_journal(path)
        captures = replay.of(K.CAMPAIGN_CHECKPOINT_CAPTURE)
        assert captures
        assert all(e.get("depth") == 8.0 for e in captures)

    def test_shrink_appends_to_the_sweep_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            report = run_fuzz("gmp", seed=0, budget=8, journal=journal)
            assert report.findings
            shrink_finding(report.findings[0], journal=journal)
        replay = replay_journal(path)
        steps = replay.of(K.CAMPAIGN_SHRINK_STEP)
        assert steps
        assert all(e.get("code") == report.findings[0].codes[0]
                   for e in steps)
        # shared journal: one flight record, fuzz start only
        assert len(replay.of(K.CAMPAIGN_START)) == 1

    def test_owned_shrink_journal_is_self_contained(self, tmp_path):
        report = run_fuzz("gmp", seed=0, budget=8)
        assert report.findings
        path = tmp_path / "shrink.jsonl"
        shrink_finding(report.findings[0], journal=path)
        summary = summarize_journal(path)
        assert summary.engine == "shrink"
        assert summary.completed
        assert summary.shrink_steps > 0


class TestExploreJournal:
    def test_explore_journal_matches_report(self, tmp_path):
        from repro.oracle.explore import explore
        path = tmp_path / "j.jsonl"
        report = explore("gmp", "self_death", seed=0, max_schedules=6,
                         journal=path)
        summary = summarize_journal(path)
        assert summary.completed
        assert summary.engine == "explore"
        assert summary.executed == report.schedules
        # one capture, the root every schedule forks, written as a fuzz
        # batch writes it
        [capture] = summary.checkpoints
        assert (capture["target"], capture["depth"]) == ("self_death", 8.0)
        assert capture["configs"] == report.schedules
        # every schedule row was a fork of it: no cold fallback
        assert [row.data["forked"] for row in summary.runs] == \
            [True] * report.schedules
        assert summary.prefix_sharing()["fallbacks"] == 0
        assert "ancestor_forks" not in summary.end
        assert summary.end.get("simulated_events") == \
            report.simulated_events
        assert [name for name, _, _ in summary.phases] == ["preflight"]
        assert summary.end.get("distinct_outcomes") == \
            report.distinct_outcomes

    def test_bad_target_leaves_no_journal(self, tmp_path):
        from repro.oracle.explore import explore
        path = tmp_path / "j.jsonl"
        with pytest.raises(ValueError):
            explore("gmp", "no_such_target", journal=path)
        assert not path.exists()


class TestKillAndReplay:
    """SIGKILL a sweep; the journal reproduces the partial scorecard."""

    def _spawn_sweep(self, journal):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        code = (
            "from repro.oracle.fuzz import run_fuzz\n"
            f"run_fuzz('gmp', seed=0, budget=10_000, "
            f"journal={str(journal)!r})\n")
        return subprocess.Popen([sys.executable, "-c", code], env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)

    def _wait_for_run_ends(self, journal, want, deadline_s=120.0):
        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            if journal.exists():
                replay = replay_journal(journal)
                ends = replay.of(K.CAMPAIGN_RUN_END)
                if len(ends) >= want:
                    return
            time.sleep(0.05)
        raise AssertionError(f"journal never reached {want} run_end events")

    def test_sigkilled_sweep_replays_exact_partial_scorecard(self, tmp_path):
        journal = tmp_path / "killed.jsonl"
        proc = self._spawn_sweep(journal)
        try:
            self._wait_for_run_ends(journal, want=8)
        finally:
            proc.kill()
            proc.wait()
        killed = summarize_journal(journal)
        assert not killed.completed
        assert killed.executed >= 8

        # The fuzz loop merges per batch (batch = max(4, workers*2) = 4),
        # so any journaled prefix that is a multiple of 4 is bitwise the
        # prefix an intact run of that budget would produce.
        prefix = (killed.executed // 4) * 4
        reference_journal = tmp_path / "reference.jsonl"
        run_fuzz("gmp", seed=0, budget=prefix, journal=reference_journal)
        reference = summarize_journal(reference_journal)
        assert ([row.stable_key() for row in killed.runs[:prefix]]
                == [row.stable_key() for row in reference.runs])

        # and the rendered partial scorecard agrees on every headline
        killed_json = summary_to_json(killed)
        reference_json = summary_to_json(reference)
        truncated_runs = killed_json["runs"][:prefix]
        assert truncated_runs == reference_json["runs"]
        assert (killed_json["codes"] == reference_json["codes"]
                or killed.executed == prefix)
        text = render_text(killed)
        assert "INTERRUPTED" in text
        assert f"executed {killed.executed}/10000 runs" in text
