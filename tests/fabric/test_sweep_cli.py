"""`repro sweep` / `repro report --campaign DIR` end to end."""

import json
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from tests.fabric.rig import REPO_ROOT, campaign_ends, make_spec, rig_env


def _repro(*argv, timeout=180):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv], cwd=str(REPO_ROOT),
        env=rig_env(), capture_output=True, text=True, timeout=timeout)


def _sweep(journal_dir, *extra):
    return _repro("sweep", "--protocol", "gmp", "--targets", "fixed",
                  "--count", "2", "--seed", "7", "--journal-dir",
                  str(journal_dir), "--stable", *extra)


def _stable_section(stdout):
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("stable scorecard:"))
    return "\n".join(lines[start:])


def test_sockets_sweep_matches_local_backend(tmp_path):
    local = _sweep(tmp_path / "local", "--backend", "local")
    assert local.returncode == 0, local.stderr
    sockets = _sweep(tmp_path / "sockets", "--backend", "sockets",
                     "--workers", "2")
    assert sockets.returncode == 0, sockets.stderr
    # the user-facing acceptance check: identical stable scorecards
    assert _stable_section(sockets.stdout) \
        == _stable_section(local.stdout)

    # --resume performs zero new runs and reprints the same scorecard
    resumed = _repro("sweep", "--resume", str(tmp_path / "sockets"),
                     "--backend", "sockets", "--workers", "2",
                     "--stable")
    assert resumed.returncode == 0, resumed.stderr
    assert _stable_section(resumed.stdout) \
        == _stable_section(sockets.stdout)
    end = campaign_ends(tmp_path / "sockets")[-1]
    assert end["executed"] == 0 and end["cached"] == 2


def test_report_campaign_accepts_fabric_directory(tmp_path):
    sweep = _sweep(tmp_path / "fabric", "--backend", "sockets",
                   "--workers", "2")
    assert sweep.returncode == 0, sweep.stderr
    report = _repro("report", "--campaign", str(tmp_path / "fabric"))
    assert report.returncode == 0, report.stderr
    assert "campaign" in report.stdout
    assert "2" in report.stdout
    # JSON mode merges the same rows
    as_json = _repro("report", "--campaign", str(tmp_path / "fabric"),
                     "--format", "json")
    assert as_json.returncode == 0, as_json.stderr
    payload = json.loads(as_json.stdout)
    assert payload["executed"] == 2
    assert len(payload["runs"]) == 2


def test_sweep_requires_a_campaign_directory(tmp_path):
    missing = _repro("sweep", "--protocol", "gmp", "--count", "1")
    assert missing.returncode == 2
    assert "--journal-dir" in missing.stderr


def test_sweep_survives_the_scripts_the_grammar_rejects(tmp_path):
    # script 24 fails the grammar's own lint when drawn bare; the sweep
    # used to die on it with a traceback before running anything (tcp:
    # gmp script 20 dies in the body on the separate missing-field
    # TclError bug)
    sweep = _repro("sweep", "--protocol", "tcp", "--targets", "SunOS 4.1.3",
                   "--count", "25", "--journal-dir", str(tmp_path / "d"))
    assert sweep.returncode == 0, sweep.stderr
    end = campaign_ends(tmp_path / "d")[-1]
    assert end["status"] == "ok" and end["executed"] == 25


@pytest.mark.parametrize("workers", [
    ["--workers", "abc"],
    ["--workers", "0", "--backend", "sockets"],
    ["--workers", "0"],
], ids=["not-a-number", "zero-sockets", "zero-local"])
def test_sweep_workers_is_a_count_or_auto(tmp_path, capsys, workers):
    with pytest.raises(SystemExit) as exited:
        main(["sweep", "--journal-dir", str(tmp_path / "d"), *workers])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = [text for text in err.splitlines()
              if text.startswith("repro sweep:")]
    assert "argument --workers: expected an int >= 1 or 'auto'" in line
    assert not (tmp_path / "d").exists()


def test_sweep_workers_parse():
    parser = build_parser()
    assert parser.parse_args(["sweep"]).workers == 2
    assert parser.parse_args(["sweep", "--workers", "3"]).workers == 3
    assert parser.parse_args(["sweep", "--workers", "auto"]).workers \
        == "auto"


def test_resume_nonexistent_directory_fails_cleanly(tmp_path):
    gone = _repro("sweep", "--resume", str(tmp_path / "nowhere"),
                  "--backend", "sockets")
    assert gone.returncode == 2
    assert "resume" in gone.stderr


def test_local_sweep_directory_is_resumable_and_pinned(tmp_path):
    # a --backend local campaign directory carries its spec like a
    # sockets one: --resume finds it, re-runs nothing, and a different
    # sweep aimed at the directory is refused instead of mixed in
    local_dir = tmp_path / "local"
    first = _sweep(local_dir, "--backend", "local")
    assert first.returncode == 0, first.stderr
    assert (local_dir / "spec.pkl").is_file()

    resumed = _repro("sweep", "--resume", str(local_dir), "--stable")
    assert resumed.returncode == 0, resumed.stderr
    assert _stable_section(resumed.stdout) == _stable_section(first.stdout)
    end = campaign_ends(local_dir)[-1]
    assert end["executed"] == 0 and end["cached"] == 2

    # the same directory finishes on the other backend too
    sockets = _repro("sweep", "--resume", str(local_dir), "--backend",
                     "sockets", "--workers", "2", "--stable")
    assert sockets.returncode == 0, sockets.stderr
    assert _stable_section(sockets.stdout) == _stable_section(first.stdout)

    clash = _repro("sweep", "--protocol", "gmp", "--targets", "fixed",
                   "--count", "3", "--seed", "7", "--journal-dir",
                   str(local_dir), "--backend", "local")
    # refused input, not the "aborted, resume me" status 3
    assert clash.returncode == 2
    assert "different sweep" in clash.stderr
    assert len(list((local_dir / "store").rglob("*.pkl"))) == 2


def test_resume_hands_on_the_spec_it_loaded(tmp_path):
    # spec.pkl is the sweep: --resume hands it on whole, so a spec the
    # CLI did not build (the chaos rig's, over its own body) is its own
    # directory's match instead of a spec_mismatch
    fabric_dir = tmp_path / "fabric"
    make_spec(6).save(fabric_dir / "spec.pkl")
    first = _repro("sweep", "--resume", str(fabric_dir))
    assert first.returncode == 0, first.stderr
    assert campaign_ends(fabric_dir)[-1]["executed"] == 6
    for backend in ("local", "sockets"):
        again = _repro("sweep", "--resume", str(fabric_dir), "--backend",
                       backend, "--workers", "2")
        assert again.returncode == 0, again.stderr
        end = campaign_ends(fabric_dir)[-1]
        assert (end["status"], end["executed"], end["cached"]) \
            == ("ok", 0, 6)


def test_tail_shows_both_flights_of_a_torn_then_resumed_journal(tmp_path):
    # the resumed flight is data, not the first flight's torn tail:
    # `repro tail` names the torn line and shows both flights, and so
    # does `repro trace --journal`
    campaign = tmp_path / "torn"
    first = _repro("sweep", "--protocol", "gmp", "--targets",
                   "self_death,fixed", "--count", "6", "--journal-dir",
                   str(campaign))
    assert first.returncode == 0, first.stderr
    journal = campaign / "journals" / "coordinator.jsonl"
    journal.write_bytes(journal.read_bytes()[:-40])
    resumed = _repro("sweep", "--resume", str(campaign))
    assert resumed.returncode == 0, resumed.stderr

    tail = _repro("tail", str(journal))
    assert tail.returncode == 0, tail.stderr
    lines = tail.stdout.splitlines()
    assert "torn tail" not in tail.stdout, tail.stdout
    starts = [i for i, line in enumerate(lines) if "campaign.start" in line]
    torn = [i for i, line in enumerate(lines) if "! torn line:" in line]
    assert len(starts) == 2 and torn == [starts[1] - 1], tail.stdout
    assert "campaign.end" in lines[-1], tail.stdout

    trace = _repro("trace", "--journal", str(journal))
    assert trace.returncode == 0, trace.stderr
    assert trace.stdout.count('"campaign.start"') == 2


@pytest.fixture(scope="module", params=[40, 0], ids=["torn", "clean"])
def resumed_journal(request, tmp_path_factory):
    """A 12-config GMP sweep's coordinator journal, resumed once: with
    its last 40 bytes cut first (a kill mid-append), or clean."""
    campaign = tmp_path_factory.mktemp("resumed") / "campaign"
    first = _repro("sweep", "--protocol", "gmp", "--targets",
                   "self_death,fixed", "--count", "6", "--journal-dir",
                   str(campaign))
    assert first.returncode == 0, first.stderr
    journal = campaign / "journals" / "coordinator.jsonl"
    if request.param:
        journal.write_bytes(journal.read_bytes()[:-request.param])
    resumed = _repro("sweep", "--resume", str(campaign))
    assert resumed.returncode == 0, resumed.stderr
    return journal, bool(request.param)


def test_tail_follow_shows_the_events_tail_shows(resumed_journal):
    # a second terminal watching a resumed sweep sees both flights, the
    # same event lines `repro tail` prints, and no torn line
    journal, torn = resumed_journal
    tail = _repro("tail", str(journal))
    assert tail.returncode == 0, tail.stderr
    markers = [line for line in tail.stdout.splitlines()
               if line.startswith("  !")]
    assert len(markers) == torn and "torn tail" not in tail.stdout
    events = [line for line in tail.stdout.splitlines()
              if not line.startswith("  !")]
    follow = _repro("tail", "--follow", "--timeout", "5", str(journal))
    assert follow.returncode == 0, follow.stderr
    assert follow.stdout.splitlines() == events
    assert sum("campaign.start" in line for line in events) == 2
    assert len(events) == 40 - torn and "campaign.end" in events[-1]


def test_trace_draws_one_process_per_flight(resumed_journal):
    # each flight's clock starts at 0: on one shared process the second
    # flight's spans would overlap the first's on the same thread
    journal, _torn = resumed_journal
    trace = _repro("trace", "--journal", str(journal))
    assert trace.returncode == 0, trace.stderr
    events = json.loads(trace.stdout)["traceEvents"]
    assert [event["args"]["name"] for event in events
            if event["name"] == "process_name"] \
        == ["flight 1: campaign", "flight 2: campaign"]
    lanes = {}
    for event in events:
        if event["ph"] == "X":
            lanes.setdefault((event["pid"], event["tid"]), []).append(
                (event["ts"], event["ts"] + event["dur"]))
    assert {pid for pid, _tid in lanes} == {1, 2}
    for spans in lanes.values():
        spans.sort()
        assert all(end <= later for (_start, end), (later, _end)
                   in zip(spans, spans[1:])), spans


def test_history_records_the_flight_a_resume_completed_after_a_torn_tail(
        tmp_path):
    # a kill in the middle of an append tears the journal's last line;
    # --resume then appends a second flight that completes.  history
    # folds that last flight, as report does, not the torn one before it
    campaign = tmp_path / "torn"
    first = _repro("sweep", "--protocol", "gmp", "--targets",
                   "self_death,fixed", "--count", "6", "--journal-dir",
                   str(campaign))
    assert first.returncode == 0, first.stderr
    journal = campaign / "journals" / "coordinator.jsonl"
    journal.write_bytes(journal.read_bytes()[:-40])
    resumed = _repro("sweep", "--resume", str(campaign))
    assert resumed.returncode == 0, resumed.stderr

    report = _repro("report", "--campaign", str(campaign))
    assert "schema 1, completed" in report.stdout, report.stdout
    history = _repro("history", str(tmp_path / "hist"), "--record",
                     str(journal), "--json")
    assert history.returncode == 0, history.stderr
    row, = json.loads(history.stdout)["rows"]
    assert row["data"]["completed"] is True
    assert row["data"]["status"] == "ok"
    assert row["data"]["executed"] == 12
