"""Chrome-trace / Perfetto export."""

import json

import pytest

from repro.obs.chrometrace import chrome_trace, dump_chrome_trace


def _events(trace, ph=None, name_part=None):
    out = []
    for event in chrome_trace(trace)["traceEvents"]:
        if ph is not None and event["ph"] != ph:
            continue
        if name_part is not None and name_part not in event["name"]:
            continue
        out.append(event)
    return out


def delay_hold_run(harness):
    harness.pfi.set_send_filter(lambda ctx: ctx.delay(0.5))
    harness.send_down("DATA")
    harness.pfi.set_send_filter(lambda ctx: ctx.hold("q"))
    harness.send_down("DATA")
    harness.run(2.0)
    harness.pfi.set_send_filter(lambda ctx: ctx.release("q"))
    harness.send_down("DATA")
    harness.run(3.0)
    return harness.env.trace


class TestSchema:
    def test_output_is_valid_json_with_trace_events(self, harness):
        trace = delay_hold_run(harness)
        data = json.loads(dump_chrome_trace(trace))
        assert isinstance(data["traceEvents"], list)
        assert data["traceEvents"]
        for event in data["traceEvents"]:
            assert {"ph", "name", "pid", "tid"} <= set(event)
            if event["ph"] != "M":
                assert "ts" in event

    def test_metadata_names_processes_and_threads(self, harness):
        trace = delay_hold_run(harness)
        meta = _events(trace, ph="M")
        names = {e["name"]: e["args"]["name"] for e in meta}
        assert names.get("process_name") == "testnode"


class TestSpans:
    def test_delay_becomes_duration_span(self, harness):
        trace = delay_hold_run(harness)
        spans = _events(trace, ph="X", name_part="delay")
        assert len(spans) == 1
        assert spans[0]["dur"] == 0.5 * 1_000_000

    def test_hold_release_pair_becomes_one_span(self, harness):
        trace = delay_hold_run(harness)
        spans = _events(trace, ph="X", name_part="hold")
        assert len(spans) == 1
        hold = trace.first("pfi.hold")
        release = trace.first("pfi.release")
        assert spans[0]["ts"] == hold.time * 1_000_000
        assert spans[0]["dur"] == (release.time - hold.time) * 1_000_000

    def test_unreleased_hold_becomes_marker(self, harness):
        harness.pfi.set_send_filter(lambda ctx: ctx.hold("stuck"))
        harness.send_down("DATA")
        harness.run(1.0)
        markers = _events(harness.env.trace, ph="i",
                          name_part="never released")
        assert len(markers) == 1

    def test_other_kinds_become_instants(self, harness):
        harness.pfi.set_send_filter(lambda ctx: ctx.drop())
        harness.send_down("DATA")
        instants = _events(harness.env.trace, ph="i", name_part="pfi.drop")
        assert len(instants) == 1
        assert instants[0]["s"] == "t"


class TestJournalExport:
    def _campaign_journal(self, path):
        from repro.netsim import kinds as K
        from repro.obs.journal import Journal
        with Journal(path) as journal:
            journal.start("campaign", seed=7, configs=2)
            with journal.phase("dispatch"):
                for index in range(2):
                    journal.record(K.CAMPAIGN_RUN_START, index=index,
                                   label=f"cfg_{index}")
                    journal.record(K.CAMPAIGN_RUN_END, index=index,
                                   label=f"cfg_{index}", ok=True)
            journal.record(K.CAMPAIGN_END, status="ok")
        return path

    def test_journal_phases_and_runs_become_spans(self, tmp_path):
        from repro.obs.chrometrace import journal_chrome_trace
        from repro.obs.journal import read_flights

        flights = read_flights(self._campaign_journal(tmp_path / "j.jsonl"))
        payload = journal_chrome_trace(flights)
        json.dumps(payload)
        events = payload["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X"]
        assert [e["name"] for e in spans if e["tid"] == 1] == ["dispatch"]
        run_spans = [e for e in spans if e["tid"] == 2]
        assert sorted(e["name"] for e in run_spans) == ["cfg_0", "cfg_1"]
        instants = [e for e in events if e.get("ph") == "i"]
        assert any(e["name"] == "campaign.start" for e in instants)
        assert any(e["name"] == "campaign.end" for e in instants)

    def test_run_end_without_start_becomes_instant(self, tmp_path):
        """Fuzz-shaped journals (no run_start) export as instants."""
        from repro.obs.chrometrace import journal_chrome_trace
        from repro.obs.journal import read_flights
        from tests.obs.test_campaign_report import _write_sweep

        payload = journal_chrome_trace(
            read_flights(_write_sweep(tmp_path / "j.jsonl")))
        run_events = [e for e in payload["traceEvents"] if e["tid"] == 2
                      and e["ph"] != "M"]
        assert run_events and all(e["ph"] == "i" for e in run_events)

    def test_interrupted_journal_closes_open_spans(self, tmp_path):
        from repro.obs.chrometrace import journal_chrome_trace
        from repro.obs.journal import read_flights
        from tests.obs.test_campaign_report import _write_sweep

        path = _write_sweep(tmp_path / "j.jsonl", end=False)
        path.write_bytes(path.read_bytes()[:-7])
        payload = journal_chrome_trace(read_flights(path))
        spans = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        assert spans  # the torn dispatch phase still renders as a span
        for event in spans:
            assert event["dur"] >= 0

    def test_a_torn_flight_keeps_its_open_phase(self, tmp_path):
        """A phase the kill left open closes at its own flight's last
        event; the resumed flight's same-named phase cannot close it."""
        from repro.netsim import kinds as K
        from repro.obs.chrometrace import journal_chrome_trace
        from repro.obs.journal import Journal, read_flights

        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.start("campaign", configs=2)
            journal.record(K.CAMPAIGN_PHASE_START, name="dispatch")
            journal.record(K.CAMPAIGN_RUN_END, index=0, label="cfg_0")
        with open(path, "ab") as fp:
            fp.write(b'{"data": {"index": 1')  # killed mid-append
        with Journal(path) as journal:
            journal.start("campaign", configs=2)
            with journal.phase("dispatch"):
                journal.record(K.CAMPAIGN_RUN_END, index=1, label="cfg_1")
            journal.record(K.CAMPAIGN_END, status="ok")
        flights = read_flights(path)
        first_last_t = flights[0].events[-1].t
        spans = {(event["pid"], event["name"]): event
                 for event in journal_chrome_trace(flights)["traceEvents"]
                 if event.get("ph") == "X"}
        assert sorted(spans) == [(1, "dispatch (unclosed)"), (2, "dispatch")]
        unclosed = spans[1, "dispatch (unclosed)"]
        assert unclosed["ts"] + unclosed["dur"] == pytest.approx(
            first_last_t * 1_000_000)
