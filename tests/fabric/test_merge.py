"""Journal merging: shard records fold into the serial scorecard."""

import pytest

from repro.core.fabric import campaign_journals, merge_campaign_dir
from repro.core.orchestrator import (Campaign, _run_end_payload,
                                     run_one)
from repro.netsim import kinds as K
from repro.obs import campaign_report
from repro.obs import journal as journal_module
from repro.obs.campaign_report import summarize_journal
from repro.obs.journal import Journal, replay_journal
from tests.fabric.rig import chaos_body, make_configs


def _serial_rows(tmp_path, count):
    journal = tmp_path / "serial.jsonl"
    Campaign(chaos_body, seed=1995, lint="off").run(
        make_configs(count), journal=journal)
    return [row.stable_key() for row in summarize_journal(journal).runs]


def _write_shard(path, indices, configs):
    journal = Journal(path)
    for index in indices:
        result = run_one(chaos_body, 1995, configs[index])
        journal.record(K.CAMPAIGN_RUN_START, index=index,
                       label=f"item={configs[index]['item']}")
        journal.record(K.CAMPAIGN_RUN_END,
                       **_run_end_payload(index, result))
    journal.close()


def _write_coordinator(path, configs):
    journal = Journal(path)
    journal.start("campaign", backend="sockets", seed=1995,
                  configs=len(configs), workers=2)
    journal.record(K.CAMPAIGN_END, status="ok",
                   executed=len(configs), cached=0)
    journal.close()


def test_merge_matches_serial_scorecard(tmp_path):
    configs = make_configs(4)
    fabric = tmp_path / "fabric"
    (fabric / "journals").mkdir(parents=True)
    _write_coordinator(fabric / "journals" / "coordinator.jsonl", configs)
    _write_shard(fabric / "journals" / "shard-0000-try1-w1.jsonl",
                 [0, 1], configs)
    _write_shard(fabric / "journals" / "shard-0001-try1-w2.jsonl",
                 [2, 3], configs)
    merged = merge_campaign_dir(fabric)
    assert [row.stable_key() for row in merged.runs] \
        == _serial_rows(tmp_path, 4)
    assert merged.engine == "campaign"


def test_merge_replays_each_journal_once(tmp_path, monkeypatch):
    # the coordinator's one fold gives the lifecycle and its rows alike
    configs = make_configs(4)
    fabric = tmp_path / "fabric"
    (fabric / "journals").mkdir(parents=True)
    _write_coordinator(fabric / "journals" / "coordinator.jsonl", configs)
    _write_shard(fabric / "journals" / "shard-0000-try1-w1.jsonl",
                 [0, 1], configs)
    _write_shard(fabric / "journals" / "shard-0001-try1-w2.jsonl",
                 [2, 3], configs)
    replayed = []
    replay = campaign_report.last_flight

    def counting_replay(path):
        replayed.append(path)
        return replay(path)

    monkeypatch.setattr(campaign_report, "last_flight", counting_replay)
    merged = merge_campaign_dir(fabric)
    assert replayed == campaign_journals(fabric)
    assert merged.status == "ok" and len(merged.runs) == 4


def test_merge_decodes_only_the_last_flight(tmp_path, monkeypatch):
    # a sweep resumed three times: its coordinator journal holds four
    # flights, and the merge decodes the lines of the last one alone
    fabric = tmp_path / "fabric"
    campaign = Campaign(chaos_body, seed=1995, lint="off")
    for _ in range(4):
        campaign.run(make_configs(4), fabric_dir=fabric)
    coordinator = fabric / "journals" / "coordinator.jsonl"
    events = replay_journal(coordinator).events
    starts = [i for i, event in enumerate(events)
              if event.kind == K.CAMPAIGN_START]
    assert len(starts) == 4
    decoded = []
    decode = journal_module._decode_line

    def counting_decode(line):
        decoded.append(line)
        return decode(line)

    monkeypatch.setattr(journal_module, "_decode_line", counting_decode)
    merged = merge_campaign_dir(fabric)
    assert len(decoded) == len(events) - starts[-1]
    assert merged.status == "ok" and len(merged.runs) == 4
    assert merged.end["executed"] == 0 and merged.end["cached"] == 4


def test_merge_dedupes_stolen_shard_duplicates(tmp_path):
    # shard 0 was stolen but its original holder finished anyway: both
    # attempts journaled the same rows; the merge keeps one per index
    configs = make_configs(3)
    fabric = tmp_path / "fabric"
    (fabric / "journals").mkdir(parents=True)
    _write_coordinator(fabric / "journals" / "coordinator.jsonl", configs)
    _write_shard(fabric / "journals" / "shard-0000-try1-w1.jsonl",
                 [0, 1, 2], configs)
    _write_shard(fabric / "journals" / "shard-0000-try2-w2.jsonl",
                 [0, 1, 2], configs)
    merged = merge_campaign_dir(fabric)
    assert [row.index for row in merged.runs] == [0, 1, 2]
    assert [row.stable_key() for row in merged.runs] \
        == _serial_rows(tmp_path, 3)


def test_merge_accepts_bare_journal_directory(tmp_path):
    # `repro report --campaign DIR` on a directory of journal files
    # (no journals/ subdirectory) works too
    configs = make_configs(2)
    bare = tmp_path / "bare"
    bare.mkdir()
    _write_shard(bare / "shard-0000-try1-w1.jsonl", [0, 1], configs)
    merged = merge_campaign_dir(bare)
    assert [row.index for row in merged.runs] == [0, 1]


def test_merge_partial_directory_lists_only_durable_rows(tmp_path):
    # a killed sweep: one shard journaled, the other never started
    configs = make_configs(4)
    fabric = tmp_path / "fabric"
    (fabric / "journals").mkdir(parents=True)
    _write_shard(fabric / "journals" / "shard-0000-try1-w1.jsonl",
                 [0, 1], configs)
    merged = merge_campaign_dir(fabric)
    assert [row.index for row in merged.runs] == [0, 1]


def test_merge_empty_directory_raises(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    with pytest.raises(FileNotFoundError):
        merge_campaign_dir(empty)


def test_campaign_journals_orders_coordinator_first(tmp_path):
    journals = tmp_path / "fabric" / "journals"
    journals.mkdir(parents=True)
    for name in ("shard-0001-try1-w2.jsonl", "coordinator.jsonl",
                 "shard-0000-try1-w1.jsonl", "notes.txt"):
        (journals / name).write_text("")
    names = [p.name for p in campaign_journals(tmp_path / "fabric")]
    assert names == ["coordinator.jsonl", "shard-0000-try1-w1.jsonl",
                     "shard-0001-try1-w2.jsonl"]
