"""The flight recorder core: crash-safe appends and tolerant replay.

The crash-safety contract is exercised literally: a multi-event journal
is truncated at *every* byte offset and replay must recover exactly the
events whose terminating newline survived, reporting the rest as the
torn tail -- never raising, never inventing an event.
"""

import json
import threading

import pytest

from repro.netsim import kinds as K
from repro.obs.campaign_report import summarize_journal
from repro.obs.journal import (JOURNAL_KINDS, NULL_JOURNAL, SCHEMA_VERSION,
                               Flight, Journal, follow_journal, last_flight,
                               read_flights, replay_journal)


def _sample_journal(path):
    with Journal(path) as journal:
        journal.start("fuzz", protocol="gmp", seed=0, budget=4)
        journal.record(K.CAMPAIGN_PREFLIGHT, ok=True)
        with journal.phase("dispatch"):
            for index in range(4):
                journal.record(K.CAMPAIGN_RUN_END, index=index,
                               label=f"case_{index}", ok=index != 2,
                               codes=[] if index != 2 else ["GMP-X"],
                               violations=0 if index != 2 else 1)
        journal.record(K.CAMPAIGN_END, status="ok", executed=4)
    return path


class TestJournalRecording:
    def test_roundtrip_preserves_kinds_order_and_payloads(self, tmp_path):
        path = _sample_journal(tmp_path / "j.jsonl")
        replay = replay_journal(path)
        assert replay.torn_tail is None
        assert [e.kind for e in replay.events] == [
            K.CAMPAIGN_START, K.CAMPAIGN_PREFLIGHT, K.CAMPAIGN_PHASE_START,
            K.CAMPAIGN_RUN_END, K.CAMPAIGN_RUN_END, K.CAMPAIGN_RUN_END,
            K.CAMPAIGN_RUN_END, K.CAMPAIGN_PHASE_END, K.CAMPAIGN_END]
        assert [e.seq for e in replay.events] == list(range(9))
        bad = replay.of(K.CAMPAIGN_RUN_END)[2]
        assert bad.get("codes") == ["GMP-X"]
        assert bad.get("ok") is False
        assert replay.complete

    def test_start_stamps_schema_version(self, tmp_path):
        path = _sample_journal(tmp_path / "j.jsonl")
        start = replay_journal(path).events[0]
        assert start.get("schema") == SCHEMA_VERSION
        assert start.get("engine") == "fuzz"

    def test_unknown_kind_rejected(self, tmp_path):
        with Journal(tmp_path / "j.jsonl") as journal:
            with pytest.raises(ValueError, match="unknown journal event"):
                journal.record("net.send", uid=1)
            with pytest.raises(ValueError):
                journal.record("campaign.bogus")

    def test_closed_journal_rejects_appends(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.close()
        with pytest.raises(RuntimeError, match="closed"):
            journal.record(K.CAMPAIGN_END, status="ok")
        journal.close()  # idempotent

    def test_payloads_json_sanitized(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.record(K.CAMPAIGN_RUN_END, index=0,
                           codes={"B", "A"}, blob=b"\x00\xff",
                           where=path)
        event = replay_journal(path).events[0]
        assert sorted(event.get("codes")) == ["A", "B"]
        assert event.get("blob") == {"__bytes__": "00ff"}
        assert isinstance(event.get("where"), str)

    def test_each_line_is_one_complete_json_document(self, tmp_path):
        path = _sample_journal(tmp_path / "j.jsonl")
        for line in path.read_bytes().splitlines():
            doc = json.loads(line)
            assert set(doc) == {"kind", "seq", "t", "data"}

    def test_appending_engine_shares_open_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.start("fuzz", seed=0)
            journal.record(K.CAMPAIGN_END, status="ok")
            journal.start("shrink", code="GMP-X")
            journal.record(K.CAMPAIGN_END, status="ok")
        replay = replay_journal(path)
        assert len(replay.of(K.CAMPAIGN_START)) == 2
        assert [e.seq for e in replay.events] == list(range(4))


class TestEnsure:
    """What a flight makes of the three ``journal=`` arguments."""

    def test_none_stays_off(self, tmp_path):
        with Flight(None, "fuzz", {"seed": 0}) as flight:
            assert flight.journal is NULL_JOURNAL
            assert not isinstance(flight.journal, Journal)
            assert flight.journal.record(K.CAMPAIGN_RUN_END, index=0) is None
            with flight.journal.phase("dispatch"):
                pass
        assert list(tmp_path.iterdir()) == []

    def test_path_is_opened_and_owned(self, tmp_path):
        with Flight(tmp_path / "j.jsonl", "fuzz", {"seed": 0}) as flight:
            assert isinstance(flight.journal, Journal)
        with pytest.raises(RuntimeError, match="closed"):
            flight.journal.record(K.CAMPAIGN_RUN_END, index=0)
        kinds = [e.kind for e in replay_journal(tmp_path / "j.jsonl").events]
        assert kinds == [K.CAMPAIGN_START, K.CAMPAIGN_END]

    def test_existing_journal_is_borrowed(self, tmp_path):
        with Journal(tmp_path / "j.jsonl") as original:
            with Flight(original, "fuzz", {"seed": 0}) as flight:
                assert flight.journal is original
            # left open: the caller's next flight appends to it
            original.record(K.CAMPAIGN_RUN_END, index=0)


class TestTornTailRecovery:
    def test_missing_trailing_newline_is_torn(self, tmp_path):
        path = _sample_journal(tmp_path / "j.jsonl")
        blob = path.read_bytes()
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(blob[:-10])
        replay = replay_journal(torn)
        assert replay.torn_tail is not None
        assert len(replay.events) == 8
        assert not replay.complete

    def test_truncation_sweep_recovers_every_complete_event(self, tmp_path):
        """Cut at every byte offset: replay = events before the cut."""
        path = _sample_journal(tmp_path / "j.jsonl")
        blob = path.read_bytes()
        newlines = [i for i, b in enumerate(blob) if b == ord("\n")]
        torn = tmp_path / "torn.jsonl"
        for cut in range(len(blob) + 1):
            torn.write_bytes(blob[:cut])
            replay = replay_journal(torn)
            expected = sum(1 for nl in newlines if nl < cut)
            assert len(replay.events) == expected, f"cut at byte {cut}"
            assert [e.seq for e in replay.events] == list(range(expected))
            clean = newlines[expected - 1] + 1 if expected else 0
            if cut == clean:
                assert replay.torn_tail is None
            else:
                assert replay.torn_tail == blob[clean:cut]

    def test_garbage_line_ends_replay_there(self, tmp_path):
        path = _sample_journal(tmp_path / "j.jsonl")
        blob = path.read_bytes()
        first_nl = blob.index(b"\n") + 1
        mangled = tmp_path / "mangled.jsonl"
        mangled.write_bytes(blob[:first_nl] + b"\xfe\xffnot json\n"
                            + blob[first_nl:])
        replay = replay_journal(mangled)
        assert len(replay.events) == 1
        assert replay.torn_tail.startswith(b"\xfe\xff")

    def test_a_line_nested_too_deep_ends_replay_there(self, tmp_path):
        # json's decoder raises RecursionError, not ValueError, on it
        path = _sample_journal(tmp_path / "j.jsonl")
        blob = path.read_bytes()
        first_nl = blob.index(b"\n") + 1
        deep = b"[" * 100_000 + b"\n"
        path.write_bytes(blob[:first_nl] + deep + blob[first_nl:])
        replay = replay_journal(path)
        assert len(replay.events) == 1
        assert replay.torn_tail.startswith(deep)

    def test_a_reopened_journal_terminates_a_torn_line(self, tmp_path):
        # killed mid-append, then resumed: the next flight starts on a
        # line of its own, so the fold reads it whole
        path = _sample_journal(tmp_path / "j.jsonl")
        blob = path.read_bytes()
        path.write_bytes(blob[:-40])
        with Journal(path) as journal:
            journal.start("fuzz", protocol="gmp", seed=1, budget=2)
            journal.record(K.CAMPAIGN_RUN_END, index=0, label="case_0")
            journal.record(K.CAMPAIGN_END, status="ok", executed=1)
        assert path.read_bytes()[len(blob) - 40:len(blob) - 39] == b"\n"
        summary = summarize_journal(path)
        assert summary.status == "ok" and summary.torn_tail_bytes == 0
        assert summary.start["seed"] == 1 and summary.executed == 1
        # the first flight names the torn line, and the whole-file
        # replay reads both flights around it
        first, second = read_flights(path)
        assert len(first.events) == 8 and len(second.events) == 3
        clean = blob[:-40].rindex(b"\n") + 1
        assert first.torn == blob[clean:-40] + b"\n" and second.torn is None
        replay = replay_journal(path)
        assert len(replay.events) == 11 and replay.torn_tail is None

    def test_a_reopened_clean_journal_gains_no_byte(self, tmp_path):
        path = _sample_journal(tmp_path / "j.jsonl")
        size = path.stat().st_size
        Journal(path).close()
        Journal(tmp_path / "new.jsonl").close()
        assert path.stat().st_size == size
        assert (tmp_path / "new.jsonl").read_bytes() == b""

    def test_empty_journal_replays_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        replay = replay_journal(path)
        assert replay.events == [] and replay.torn_tail is None
        assert not replay.complete


class TestFollow:
    def test_follow_stops_at_campaign_end(self, tmp_path):
        path = tmp_path / "j.jsonl"

        def writer():
            with Journal(path) as journal:
                journal.start("fuzz", seed=0)
                journal.record(K.CAMPAIGN_RUN_END, index=0, ok=True)
                journal.record(K.CAMPAIGN_END, status="ok")

        thread = threading.Thread(target=writer)
        thread.start()
        events = list(follow_journal(path, poll=0.01, timeout=5.0))
        thread.join()
        assert [e.kind for e in events] == [
            K.CAMPAIGN_START, K.CAMPAIGN_RUN_END, K.CAMPAIGN_END]

    def test_follow_times_out_on_stalled_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.start("fuzz", seed=0)
        events = list(follow_journal(path, poll=0.01, timeout=0.05))
        assert [e.kind for e in events] == [K.CAMPAIGN_START]


class TestOneReader:
    def test_no_module_imports_a_private_reader(self):
        """The flight readers are public; what journal.py keeps private
        stays there (a test may still patch one, as the decode census
        does)."""
        import ast
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        offenders = []
        for source in sorted((root / "src").rglob("*.py")) + sorted(
                (root / "tests").rglob("*.py")):
            if source.name == "journal.py" and source.parent.name == "obs":
                continue
            tree = ast.parse(source.read_text(), str(source))
            modules = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module:
                    if node.module == "repro.obs.journal":
                        offenders += [f"{source}: {alias.name}"
                                      for alias in node.names
                                      if alias.name.startswith("_")]
                    elif node.module == "repro.obs":
                        modules |= {alias.asname or alias.name
                                    for alias in node.names
                                    if alias.name == "journal"}
                elif isinstance(node, ast.Import):
                    modules |= {alias.asname for alias in node.names
                                if alias.name == "repro.obs.journal"}
            if "tests" in source.parts:
                continue
            offenders += [f"{source}: {node.attr}"
                          for node in ast.walk(tree)
                          if isinstance(node, ast.Attribute)
                          and isinstance(node.value, ast.Name)
                          and node.value.id in modules
                          and node.attr.startswith("_")]
        assert offenders == []

    def test_last_flight_is_the_last_of_read_flights(self, tmp_path):
        path = _sample_journal(tmp_path / "j.jsonl")
        blob = path.read_bytes()
        path.write_bytes(blob[:-40] + b"\n" + blob + blob[:-10])
        flights = read_flights(path)
        assert [len(flight.events) for flight in flights] == [8, 9, 8]
        assert [flight.torn is not None for flight in flights] \
            == [True, False, True]
        assert last_flight(path) == flights[-1]

    def test_an_empty_file_is_one_empty_flight(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        assert read_flights(path) == [last_flight(path)]
        assert last_flight(path).events == []

    def test_follow_reads_past_a_torn_line_and_an_earlier_end(
            self, tmp_path):
        # a resumed journal: the first flight ended, the second was cut
        # and resumed; the follower yields all three flights' events and
        # stops only at the end nothing follows
        path = _sample_journal(tmp_path / "j.jsonl")
        blob = path.read_bytes()
        path.write_bytes(blob + blob[:-40] + b"\n" + blob)
        events = list(follow_journal(path, poll=0.01, timeout=5.0))
        assert events == replay_journal(path).events
        assert [e.kind for e in events].count(K.CAMPAIGN_START) == 3

    def test_follow_decodes_each_appended_byte_once(self, tmp_path,
                                                    monkeypatch):
        import repro.obs.journal as journal_module
        decoded = []
        decode = journal_module._flights

        def counting(path, blob, start=None):
            decoded.append(len(blob))
            return decode(path, blob, start)

        monkeypatch.setattr(journal_module, "_flights", counting)
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.start("fuzz", budget=6)
        for index in range(3):
            journal.record(K.CAMPAIGN_RUN_END, index=index, label=f"r{index}")
        follower = follow_journal(path, poll=0, timeout=5.0)
        first = [next(follower) for _ in range(4)]
        for index in range(3, 6):
            journal.record(K.CAMPAIGN_RUN_END, index=index, label=f"r{index}")
        journal.record(K.CAMPAIGN_END, status="ok", executed=6)
        journal.close()
        events = first + list(follower)
        # every poll decoded only what was appended since the last one
        assert sum(decoded) == path.stat().st_size
        assert events == replay_journal(path).events


class TestSchemaRegistry:
    def test_journal_kinds_live_in_the_trace_registry(self):
        from repro.netsim.kinds import all_kinds
        assert JOURNAL_KINDS <= set(all_kinds())

    def test_schema_fingerprint_pinned_to_version(self):
        """Changing the journal kind set must bump SCHEMA_VERSION."""
        import hashlib
        blob = ",".join(sorted(JOURNAL_KINDS)).encode()
        fingerprint = hashlib.sha256(blob).hexdigest()[:12]
        pinned = {1: "f26643f04ebc"}
        assert pinned.get(SCHEMA_VERSION) == fingerprint, (
            f"journal schema drifted (fingerprint {fingerprint}); bump "
            f"SCHEMA_VERSION and re-pin")
