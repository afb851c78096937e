"""The chaos oracle: SIGKILL anything mid-sweep, resume, get the
serial scorecard exactly.

Every test here runs a real sockets sweep in a subprocess tree
(coordinator + workers, see :mod:`tests.fabric.rig`), murders part of
it at a *fuzzed* progress offset -- measured in durable
``campaign.run_end`` records, not wall time -- and asserts the
acceptance contract: the (resumed) sweep completes and its merged
scorecard equals the serial run's on stable keys, row for row.  This
is the harness any future fabric backend must pass.
"""

import random

import pytest

from tests.fabric import rig

COUNT = 24
WORK_MS = 100.0
FINISH_TIMEOUT = 120.0


def _wait_for_workers(fabric_dir, expected):
    rig.wait_until(lambda: len(rig.worker_pids(fabric_dir)) >= expected,
                   what=f"{expected} workers in state.json")


def _wait_for_progress(fabric_dir, threshold, proc):
    rig.wait_until(
        lambda: (rig.run_end_count(fabric_dir) >= threshold
                 or proc.poll() is not None),
        what=f"{threshold} durable run_end records")
    assert proc.poll() is None, (
        "sweep finished before the kill offset; grow WORK_MS")


def _finish(proc):
    try:
        return proc.wait(timeout=FINISH_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def _assert_serial_scorecard(fabric_dir, tmp_path):
    merged = rig.merged_stable_keys(fabric_dir)
    serial = rig.serial_stable_keys(COUNT, tmp_path)
    assert len(merged) == COUNT
    assert merged == serial


@pytest.mark.parametrize("case", [0, 1])
def test_kill_one_worker_sweep_still_completes(tmp_path, case):
    # fuzz the kill offset and the victim: the contract may not depend
    # on *when* a worker dies or *which* one
    fuzz = random.Random(0xFAB0 + case)
    threshold = fuzz.randint(1, COUNT // 3)
    fabric_dir = tmp_path / "fabric"
    proc = rig.spawn_sweep(fabric_dir, COUNT, workers=2,
                           work_ms=WORK_MS)
    try:
        _wait_for_workers(fabric_dir, 2)
        _wait_for_progress(fabric_dir, threshold, proc)
        pids = rig.worker_pids(fabric_dir)
        victim = fuzz.choice(sorted(pids))
        assert rig.sigkill(pids[victim])
        # the survivor steals the victim's lease and drains the board:
        # the very same attempt completes, no resume needed
        assert _finish(proc) == 0
    finally:
        _finish(proc)
    _assert_serial_scorecard(fabric_dir, tmp_path)
    ends = rig.campaign_ends(fabric_dir)
    assert ends and ends[-1]["status"] == "ok"
    assert ends[-1]["executed"] + ends[-1]["cached"] == COUNT


def test_kill_all_workers_aborts_resumable(tmp_path):
    fuzz = random.Random(0xFAB2)
    threshold = fuzz.randint(2, COUNT // 2)
    fabric_dir = tmp_path / "fabric"
    proc = rig.spawn_sweep(fabric_dir, COUNT, workers=2,
                           work_ms=WORK_MS)
    try:
        _wait_for_workers(fabric_dir, 2)
        _wait_for_progress(fabric_dir, threshold, proc)
        for pid in rig.worker_pids(fabric_dir).values():
            rig.sigkill(pid)
        # every worker is gone: the coordinator journals workers_lost
        # and aborts instead of hanging (exit 3 = resumable abort)
        assert _finish(proc) == 3
    finally:
        _finish(proc)
    aborted = rig.campaign_ends(fabric_dir)
    assert aborted and aborted[-1]["status"] == "workers_lost"
    done_before = rig.run_end_count(fabric_dir)
    assert done_before < COUNT

    resumed = rig.spawn_sweep(fabric_dir, COUNT, workers=2,
                              work_ms=WORK_MS, resume=True)
    assert _finish(resumed) == 0
    _assert_serial_scorecard(fabric_dir, tmp_path)
    ends = rig.campaign_ends(fabric_dir)
    assert ends[-1]["status"] == "ok"
    # executed totals across attempts account for every config exactly
    # once: nothing re-ran that the store already held
    assert ends[-1]["cached"] + ends[-1]["executed"] == COUNT
    assert ends[-1]["executed"] == COUNT - ends[-1]["cached"]
    assert sum(end["executed"] for end in ends) == COUNT


def test_kill_coordinator_resume_completes(tmp_path):
    fuzz = random.Random(0xFAB3)
    threshold = fuzz.randint(2, COUNT // 2)
    fabric_dir = tmp_path / "fabric"
    proc = rig.spawn_sweep(fabric_dir, COUNT, workers=2,
                           work_ms=WORK_MS)
    try:
        _wait_for_workers(fabric_dir, 2)
        state = rig.read_state(fabric_dir)
        assert state["coordinator_pid"] == proc.pid
        _wait_for_progress(fabric_dir, threshold, proc)
        orphans = rig.worker_pids(fabric_dir)
        rig.sigkill(proc.pid)
        proc.wait()
        # orphaned workers notice the dead socket and exit on their
        # own -- no zombies spinning against a gone coordinator
        rig.wait_until(
            lambda: all(not rig.pid_alive(pid)
                        for pid in orphans.values()),
            what="orphaned workers to exit")
    finally:
        _finish(proc)

    resumed = rig.spawn_sweep(fabric_dir, COUNT, workers=2,
                              work_ms=WORK_MS, resume=True)
    assert _finish(resumed) == 0
    _assert_serial_scorecard(fabric_dir, tmp_path)
    ends = rig.campaign_ends(fabric_dir)
    # the killed attempt never journaled an end record (SIGKILL); the
    # resume's end is the only one, and it completed the sweep
    assert ends[-1]["status"] == "ok"
    assert ends[-1]["cached"] + ends[-1]["executed"] == COUNT


def test_double_resume_is_idempotent(tmp_path):
    fabric_dir = tmp_path / "fabric"
    proc = rig.spawn_sweep(fabric_dir, COUNT, workers=2, work_ms=1.0)
    assert _finish(proc) == 0
    _assert_serial_scorecard(fabric_dir, tmp_path)
    store_files = sorted(
        p.name for p in (fabric_dir / "store").rglob("*.pkl"))
    journals = sorted(
        p.name for p in (fabric_dir / "journals").glob("*.jsonl"))
    baseline = rig.merged_stable_keys(fabric_dir)

    for attempt in range(2):
        resumed = rig.spawn_sweep(fabric_dir, COUNT, workers=2,
                                  work_ms=1.0, resume=True)
        assert _finish(resumed) == 0
        ends = rig.campaign_ends(fabric_dir)
        assert ends[-1] == {"status": "ok", "executed": 0,
                            "cached": COUNT, "stolen": 0, "expired": 0,
                            "findings": 0}
        # zero new runs: no result rewritten, no new shard journal,
        # identical merged report
        assert sorted(p.name for p in
                      (fabric_dir / "store").rglob("*.pkl")) \
            == store_files
        assert sorted(p.name for p in
                      (fabric_dir / "journals").glob("*.jsonl")) \
            == journals
        assert rig.merged_stable_keys(fabric_dir) == baseline


def test_resume_refuses_a_different_sweep(tmp_path):
    fabric_dir = tmp_path / "fabric"
    proc = rig.spawn_sweep(fabric_dir, 4, workers=2, work_ms=1.0)
    assert _finish(proc) == 0
    # same directory, different sweep content: refused, not mixed
    clash = rig.spawn_sweep(fabric_dir, 5, workers=2, work_ms=1.0)
    assert _finish(clash) == 1
    assert len(rig.merged_stable_keys(fabric_dir)) == 4


@pytest.mark.parametrize("started_on, finished_on",
                         [("sockets", "local"), ("local", "sockets")])
def test_one_backend_finishes_what_the_other_started(tmp_path, started_on,
                                                     finished_on):
    # the rig's spec carries meta; a resume that rebuilt the spec from
    # its parts dropped it and was refused as a different sweep
    fabric_dir = tmp_path / "fabric"
    proc = rig.spawn_sweep(fabric_dir, COUNT, backend=started_on,
                           work_ms=1.0)
    assert _finish(proc) == 0
    unfinished = sorted((fabric_dir / "store").rglob("*.pkl"))[::3]
    for entry in unfinished:
        entry.unlink()

    resumed = rig.spawn_sweep(fabric_dir, COUNT, backend=finished_on,
                              work_ms=1.0, resume=True)
    assert _finish(resumed) == 0
    _assert_serial_scorecard(fabric_dir, tmp_path)
    end = rig.campaign_ends(fabric_dir)[-1]
    assert (end["status"], end["executed"], end["cached"]) \
        == ("ok", len(unfinished), COUNT - len(unfinished))


def test_kill_local_sweep_resume_executes_only_the_remainder(tmp_path):
    # the local backend's twin of the coordinator kill: one serial
    # process writing through the same directory layout, murdered at a
    # durable run_end offset, resumed from its own spec.pkl
    fuzz = random.Random(0xFAB4)
    threshold = fuzz.randint(2, COUNT // 2)
    fabric_dir = tmp_path / "fabric"
    proc = rig.spawn_sweep(fabric_dir, COUNT, backend="local",
                           work_ms=WORK_MS)
    try:
        _wait_for_progress(fabric_dir, threshold, proc)
        rig.sigkill(proc.pid)
        proc.wait()
    finally:
        _finish(proc)
    journaled = rig.run_end_count(fabric_dir)
    stored = len(list((fabric_dir / "store").rglob("*.pkl")))
    # store.put precedes the journal's run_end: a row the journal claims
    # is a row the store holds, and at most the one in flight is ahead
    assert threshold <= journaled <= stored <= journaled + 1 < COUNT
    assert not rig.campaign_ends(fabric_dir)  # SIGKILL: no end record

    resumed = rig.spawn_sweep(fabric_dir, COUNT, backend="local",
                              work_ms=1.0, resume=True)
    assert _finish(resumed) == 0
    _assert_serial_scorecard(fabric_dir, tmp_path)
    [end] = rig.campaign_ends(fabric_dir)
    assert end["status"] == "ok"
    assert end["cached"] == stored
    assert end["executed"] == COUNT - stored
