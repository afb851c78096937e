"""The cross-run history store: content addressing and per-sweep deltas."""

import json

from repro.obs.history import HistoryStore

from tests.obs.test_campaign_report import _write_sweep


class TestRecording:
    def test_journal_becomes_a_row(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        row = store.record_journal(_write_sweep(tmp_path / "j.jsonl"))
        assert row.engine == "fuzz"
        assert row.data["findings"] == 1
        assert row.data["coverage_total"] == 4
        assert (store.entries / f"{row.id}.json").exists()
        assert len(store.rows()) == 1

    def test_rerecording_identical_sweep_is_idempotent(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        path = _write_sweep(tmp_path / "j.jsonl")
        first = store.record_journal(path)
        second = store.record_journal(path)
        assert first.id == second.id
        assert len(store.rows()) == 1

    def test_row_id_ignores_wall_clock_fields(self, tmp_path):
        """Two replays of one deterministic sweep share a content address
        even though journal timestamps (and hence rates) differ."""
        store = HistoryStore(tmp_path / "hist")
        row = store.record_journal(_write_sweep(tmp_path / "a.jsonl"))
        entry = json.loads((store.entries / f"{row.id}.json").read_text())
        entry["duration_s"] = entry["duration_s"] + 123.0
        entry["rate_per_s"] = 0.001
        from repro.obs.history import _row_id
        assert _row_id(entry) == row.id

    def test_bench_payload_rides_along(self, tmp_path):
        bench = tmp_path / "BENCH_OBS.json"
        bench.write_text(json.dumps({"disabled_overhead_pct": 1.2}))
        store = HistoryStore(tmp_path / "hist")
        row = store.record_bench(bench)
        assert row.data["kind"] == "bench"
        assert row.data["payload"]["disabled_overhead_pct"] == 1.2
        assert "bench payload" in store.render()


class TestDeltas:
    def test_consecutive_sweeps_of_one_experiment_show_deltas(self, tmp_path):
        """The acceptance scenario: a sweep killed partway is recorded,
        then the completed rerun of the same experiment -- same
        fingerprint, different outcome -> a delta row."""
        store = HistoryStore(tmp_path / "hist")
        partial_path = _write_sweep(tmp_path / "partial.jsonl", end=False)
        partial_path.write_bytes(partial_path.read_bytes()[:-7])
        store.record_journal(partial_path)
        store.record_journal(_write_sweep(tmp_path / "full.jsonl"))
        entries = store.deltas()
        assert len(entries) == 2
        assert entries[0]["previous"] is None
        assert entries[1]["previous"] is not None
        assert entries[1]["delta"]["executed"] == 1  # 3 -> 4 runs
        assert entries[1]["delta"]["coverage_total"] == 0  # keys all early
        rendered = store.render()
        assert "INTERRUPTED" in rendered
        assert "delta vs previous" in rendered
        assert "executed +1" in rendered

    def test_a_failed_flight_is_named_not_called_interrupted(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        store.record_journal(_write_sweep(tmp_path / "lost.jsonl",
                                          status="workers_lost"))
        rendered = store.render()
        assert "workers_lost" in rendered and "INTERRUPTED" not in rendered

    def test_different_experiments_do_not_pair(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        store.record_journal(_write_sweep(tmp_path / "a.jsonl", budget=6))
        store.record_journal(_write_sweep(tmp_path / "b.jsonl", budget=3))
        entries = store.deltas()
        assert all(entry["previous"] is None for entry in entries)
        assert store.render().count("first recording") == 2

    def test_json_export(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        store.record_journal(_write_sweep(tmp_path / "j.jsonl"))
        payload = store.to_json()
        assert len(payload["rows"]) == 1
        assert payload["rows"][0]["previous"] is None
        json.dumps(payload["rows"][0]["data"])


class TestEmptyStore:
    def test_empty_store_renders_and_lists(self, tmp_path):
        store = HistoryStore(tmp_path / "nowhere")
        assert store.rows() == []
        assert "empty" in store.render()
        assert store.to_json()["rows"] == []
