"""Journal -> summary -> scorecard/ranking/report fidelity."""

import json

import pytest

from repro.netsim import kinds as K
from repro.obs.campaign_report import (CampaignSummary, rank_scenarios,
                                       render_html, render_text,
                                       summarize_journal, summary_to_json)
from repro.obs.journal import (Journal, SCHEMA_VERSION, read_flights,
                               replay_journal)
from repro.obs.telemetry import RunTelemetry


def _write_sweep(path, *, budget=6, end=True, status="ok"):
    """A fuzz-shaped journal: one finding, one corpus promotion."""
    with Journal(path) as journal:
        journal.start("fuzz", protocol="gmp", seed=0, budget=budget,
                      checkpoint_depth=8)
        journal.record(K.CAMPAIGN_PREFLIGHT, ok=True)
        journal.record(K.CAMPAIGN_CHECKPOINT_CAPTURE, target="m0",
                       depth=8, label="gmp@8")
        rows = [
            ("fuzz_0", [], 0, 3, True, None),
            ("fuzz_1", ["GMP-SELF-DEATH"], 2, 1, False, "dead"),
            ("fuzz_2", [], 0, 0, False, None),
            ("fuzz_3", [], 0, 0, False, None),
        ]
        coverage = 0
        journal.record(K.CAMPAIGN_PHASE_START, name="dispatch")
        for index, (label, codes, violations, fresh,
                    corpus, outcome) in enumerate(rows[:budget]):
            coverage += fresh
            journal.record(K.CAMPAIGN_RUN_END, index=index, label=label,
                           target="m0", ok=not codes, codes=codes,
                           violations=violations, new_coverage=fresh,
                           coverage_total=coverage, corpus=corpus,
                           outcome=outcome)
        if end:  # a killed sweep never closes its phase span
            journal.record(K.CAMPAIGN_PHASE_END, name="dispatch")
            journal.record(K.CAMPAIGN_END, status=status,
                           executed=min(budget, len(rows)), findings=1)
    return path


class TestSummarize:
    def test_complete_sweep(self, tmp_path):
        summary = summarize_journal(_write_sweep(tmp_path / "j.jsonl"))
        assert summary.engine == "fuzz"
        assert summary.schema == SCHEMA_VERSION
        assert summary.completed
        assert summary.executed == 4
        assert summary.total == 6
        assert [row.label for row in summary.findings] == ["fuzz_1"]
        assert summary.coverage_total == 4
        assert summary.corpus_size == 1
        assert summary.codes_histogram() == {"GMP-SELF-DEATH": 1}
        assert len(summary.checkpoints) == 1

    def test_interrupted_sweep_reports_partial_scorecard(self, tmp_path):
        path = _write_sweep(tmp_path / "j.jsonl", end=False)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])  # tear the final run_end line
        summary = summarize_journal(path)
        assert not summary.completed
        assert summary.torn_tail_bytes > 0
        assert summary.executed == 3  # the torn fourth row is not invented
        assert len(summary.findings) == 1

    def test_last_start_segment_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_sweep(path, budget=6)
        with Journal(path) as journal:  # append a second flight
            journal.start("shrink", code="GMP-SELF-DEATH")
            journal.record(K.CAMPAIGN_SHRINK_STEP, probe=1,
                           still_violates=True)
            journal.record(K.CAMPAIGN_END, status="ok")
        summary = summarize_journal(path)
        assert summary.engine == "shrink"
        assert summary.executed == 0
        assert summary.shrink_steps == 1

    def test_fold_reads_from_the_last_start(self, tmp_path):
        # damage before the last campaign.start -- an earlier flight's
        # torn line, garbage, a line nested too deep to decode -- cannot
        # hide the flight after it; the first flight names the damage
        # as one torn line, and the whole-file view reads both flights
        path = _write_sweep(tmp_path / "j.jsonl", budget=6)
        with open(path, "ab") as fp:
            fp.write(b'{"data": {}, "kind": "campaign.start", "se\n')
            fp.write(b"\xfe\xffnot json\n" + b"[" * 100_000 + b"\n")
        _write_sweep(path, budget=3)
        summary = summarize_journal(path)
        assert summary.total == 3 and summary.executed == 3
        assert summary.completed and summary.torn_tail_bytes == 0
        replay = replay_journal(path)
        assert len(replay.of(K.CAMPAIGN_START)) == 2
        assert replay.torn_tail is None
        assert [flight.torn is not None
                for flight in read_flights(path)] == [True, False]

    @staticmethod
    def _two_flights(path, **last):
        # a garbage line between the flights: only a fold that finds the
        # second start reads past it
        _write_sweep(path, budget=6)
        with open(path, "ab") as fp:
            fp.write(b"\xfe\xffnot json\n")
        return _write_sweep(path, budget=3, **last)

    def test_a_nested_start_marker_is_not_a_start(self, tmp_path):
        path = self._two_flights(tmp_path / "j.jsonl", end=False)
        with Journal(path) as journal:
            journal.record(K.CAMPAIGN_RUN_END, index=3, label="fuzz_3",
                           detail={"kind": K.CAMPAIGN_START, "seq": 0,
                                   "t": 0.0})
        summary = summarize_journal(path)
        assert summary.total == 3 and summary.torn_tail_bytes == 0
        assert [row.index for row in summary.runs] == [0, 1, 2, 3]

    def test_a_torn_start_falls_back_to_the_flight_before(self, tmp_path):
        path = self._two_flights(tmp_path / "j.jsonl")
        with open(path, "ab") as fp:
            fp.write(b'{"data": {"engine": "shrink"}, "kind": '
                     b'"campaign.start", "seq": 0')
        summary = summarize_journal(path)
        assert summary.engine == "fuzz" and summary.total == 3
        assert summary.executed == 3 and summary.torn_tail_bytes > 0

    def test_a_journal_with_no_start_folds_from_byte_zero(self, tmp_path):
        path = tmp_path / "shard.jsonl"
        with Journal(path) as journal:
            for index in range(3):
                journal.record(K.CAMPAIGN_RUN_END, index=index,
                               label=f"item={index}")
        summary = summarize_journal(path)
        assert summary.engine == "unknown" and summary.executed == 3

    def test_replay_object_accepted(self, tmp_path):
        replay = replay_journal(_write_sweep(tmp_path / "j.jsonl"))
        assert summarize_journal(replay).executed == 4

    def test_a_replay_folds_its_last_flight(self, tmp_path):
        # the first flight ended; the resumed one was killed mid-append
        path = _write_sweep(tmp_path / "j.jsonl")
        _write_sweep(path, budget=3, end=False)
        with open(path, "ab") as fp:
            fp.write(b'{"data": {"index": 3')
        summary = summarize_journal(replay_journal(path))
        assert summary == summarize_journal(path)
        assert not summary.completed and summary.executed == 3
        assert summary.torn_tail_bytes > 0

    def test_fingerprint_pairs_same_experiment(self, tmp_path):
        full = summarize_journal(_write_sweep(tmp_path / "a.jsonl"))
        partial_path = _write_sweep(tmp_path / "b.jsonl", end=False)
        partial = summarize_journal(partial_path)
        other = summarize_journal(
            _write_sweep(tmp_path / "c.jsonl", budget=3))
        assert full.fingerprint() == partial.fingerprint()
        assert full.fingerprint() != other.fingerprint()


class TestRanking:
    def test_violations_dominate_then_coverage_then_rarity(self, tmp_path):
        summary = summarize_journal(_write_sweep(tmp_path / "j.jsonl"))
        ranked = rank_scenarios(summary)
        assert ranked[0].row.label == "fuzz_1"  # 2 violations -> score > 20
        assert ranked[0].score == 2 * 10 + 1 + 1.0  # unique signature
        assert ranked[1].row.label == "fuzz_0"  # 3 coverage keys
        # clean runs share a signature -> rarity 1/3 each, index ties
        assert [r.row.label for r in ranked[2:]] == ["fuzz_2", "fuzz_3"]
        assert ranked[2].rarity == 1 / 3

    def test_limit(self, tmp_path):
        summary = summarize_journal(_write_sweep(tmp_path / "j.jsonl"))
        assert len(rank_scenarios(summary, limit=2)) == 2

    def test_deterministic_across_replays(self, tmp_path):
        path = _write_sweep(tmp_path / "j.jsonl")
        first = [(r.row.label, r.score)
                 for r in rank_scenarios(summarize_journal(path))]
        second = [(r.row.label, r.score)
                  for r in rank_scenarios(summarize_journal(path))]
        assert first == second


class TestRenderers:
    def test_text_scorecard(self, tmp_path):
        summary = summarize_journal(_write_sweep(tmp_path / "j.jsonl"))
        text = render_text(summary)
        assert "campaign flight record: fuzz" in text
        assert "protocol=gmp" in text and "seed=0" in text
        assert "completed" in text
        assert "executed 4/6 runs" in text
        assert "coverage 4 keys" in text
        assert "findings 1" in text
        assert "GMP-SELF-DEATH" in text
        assert "top scenarios by bug yield:" in text
        assert "checkpoints captured: gmp@8" in text

    @pytest.mark.parametrize("status, says", [
        ("preflight_failed", "refused"),
        ("failed", "raised"),
        ("worker_error", "a resume raises it again"),
        ("workers_lost", "resumable: repro sweep --resume"),
        ("spec_mismatch", "different sweep"),
    ])
    def test_a_flight_that_did_not_end_ok_is_not_completed(
            self, tmp_path, status, says):
        """Every reader names how the flight ended; ``completed`` is
        ``status == "ok"`` only, ``INTERRUPTED`` is "no campaign.end"."""
        summary = summarize_journal(
            _write_sweep(tmp_path / "j.jsonl", status=status))
        assert summary.status == status and not summary.completed
        [line] = [line for line in render_text(summary).splitlines()
                  if line.startswith("  schema ")]
        assert f"ended {status}" in line and says in line
        assert "completed" not in line and "INTERRUPTED" not in line
        doc = summary_to_json(summary)
        assert doc["completed"] is False and doc["status"] == status
        html = render_html(summary)
        assert '<div class="banner failed">' in html
        assert f"ended {status}" in html

    def test_ok_and_killed_flights_keep_their_words(self, tmp_path):
        ok = summarize_journal(_write_sweep(tmp_path / "ok.jsonl"))
        assert ok.status == "ok" and ok.completed
        assert "  schema 1, completed" in render_text(ok).splitlines()
        assert summary_to_json(ok)["status"] == "ok"
        assert '<div class="banner completed">' in render_html(ok)
        killed = summarize_journal(
            _write_sweep(tmp_path / "killed.jsonl", end=False))
        assert killed.status is None and not killed.completed
        assert "INTERRUPTED (no campaign.end recorded)" in render_text(killed)
        assert summary_to_json(killed)["status"] is None
        assert '<div class="banner interrupted">' in render_html(killed)

    def test_text_marks_interruption(self, tmp_path):
        path = _write_sweep(tmp_path / "j.jsonl", end=False)
        path.write_bytes(path.read_bytes()[:-7])
        text = render_text(summarize_journal(path))
        assert "INTERRUPTED" in text
        assert "torn tail" in text

    def test_json_shape(self, tmp_path):
        summary = summarize_journal(_write_sweep(tmp_path / "j.jsonl"))
        payload = summary_to_json(summary)
        json.dumps(payload)  # must be serializable as-is
        assert payload["engine"] == "fuzz"
        assert payload["executed"] == 4 and payload["total"] == 6
        assert payload["findings"] == 1
        assert payload["codes"] == {"GMP-SELF-DEATH": 1}
        assert len(payload["runs"]) == 4
        assert payload["ranking"][0]["label"] == "fuzz_1"
        assert payload["fingerprint"] == summary.fingerprint()

    def test_html_is_self_contained(self, tmp_path):
        summary = summarize_journal(_write_sweep(tmp_path / "j.jsonl"))
        page = render_html(summary)
        assert page.startswith("<!DOCTYPE html>")
        assert "GMP-SELF-DEATH" in page
        assert "fuzz_1" in page
        assert "src=" not in page and "href=" not in page  # no assets
        assert "<style>" in page

    def test_telemetry_rows_reproduce_live_scorecard(self, tmp_path):
        """Replayed telemetry renders the exact table a live run prints."""
        from repro.obs.telemetry import render_scorecard_rows
        telemetry = RunTelemetry(wall_s=2.0, events=100, virtual_s=500.0,
                                 trace_entries=7)
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.start("campaign", seed=7, configs=1)
            journal.record(K.CAMPAIGN_RUN_END, index=0, label="cfg_a",
                           ok=True, telemetry=telemetry.as_dict())
            journal.record(K.CAMPAIGN_END, status="ok")
        text = render_text(summarize_journal(path))
        live = render_scorecard_rows([("cfg_a", telemetry)])
        assert live in text

    def test_empty_summary_renders(self):
        text = render_text(CampaignSummary(path=None))
        assert "executed 0 runs" in text

    @pytest.mark.parametrize("end, line", [
        ({"simulated_events": 14324}, "  simulated 14324 events"),
        # an explore journal written while schedules forked a tree of
        # nested snapshots still renders its counts
        ({"simulated_events": 13956, "ancestor_forks": 31,
          "nested_captures": 2},
         "  simulated 13956 events (31 ancestor forks, 2 nested "
         "checkpoints)"),
    ], ids=["root-forks", "checkpoint-tree"])
    def test_explore_event_counts(self, end, line):
        summary = CampaignSummary(path=None, engine="explore",
                                  end={"status": "ok", **end})
        assert line in render_text(summary).splitlines()


class TestPrefixSharing:
    def _write_grouped(self, path):
        with Journal(path) as journal:
            journal.start("campaign", seed=5, configs=4)
            journal.record(K.CAMPAIGN_CHECKPOINT_CAPTURE, prefix="warm-a",
                           label="campaign/warm-a", identity="abc",
                           time=5.0, entries=10, configs=3)
            for index, (prefix, forked, cached) in enumerate(
                    [("warm-a", True, False), ("warm-a", True, False),
                     ("warm-a", False, False), ("warm-b", False, True)]):
                journal.record(K.CAMPAIGN_RUN_END, index=index,
                               label=f"cfg{index}", ok=True, codes=[],
                               prefix=prefix, forked=forked, cached=cached)
            journal.record(K.CAMPAIGN_END, status="ok", executed=4,
                           prefix_captures=1, prefix_forks=2,
                           prefix_fallbacks=1)
        return path

    def test_sharing_folds_groups(self, tmp_path):
        summary = summarize_journal(self._write_grouped(tmp_path / "j.jsonl"))
        sharing = summary.prefix_sharing()
        assert sharing["captures"] == 1
        assert sharing["forks"] == 2
        assert sharing["fallbacks"] == 1
        assert sharing["groups"]["warm-a"] == {
            "captures": 1, "runs": 3, "forks": 2, "cached": 0}
        assert sharing["groups"]["warm-b"] == {
            "captures": 0, "runs": 1, "forks": 0, "cached": 1}

    def test_sharing_renders_in_text_json_and_html(self, tmp_path):
        summary = summarize_journal(self._write_grouped(tmp_path / "j.jsonl"))
        text = render_text(summary)
        assert "prefix sharing: 1 captures, 2 forked runs, " \
            "1 cold fallbacks" in text
        assert "capture hits / forks" in text
        assert "warm-a" in text
        payload = summary_to_json(summary)
        assert payload["prefix_sharing"]["forks"] == 2
        json.dumps(payload)  # stays serializable
        html = render_html(summary)
        assert "Prefix sharing" in html and "warm-b" in html

    def test_ungrouped_journal_has_no_sharing(self, tmp_path):
        summary = summarize_journal(_write_sweep(tmp_path / "j.jsonl"))
        assert summary.prefix_sharing() is None
        assert "prefix sharing" not in render_text(summary)
        assert summary_to_json(summary)["prefix_sharing"] is None
        assert "Prefix sharing" not in render_html(summary)
