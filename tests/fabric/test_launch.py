"""How the coordinator starts and services workers.

Three things are pinned here.  *Fork hygiene*: the coordinator's own
workers are warm children of the coordinator process -- no interpreter
is booted, nothing of the parent is replayed, nothing of the
coordinator's stays open in a child.  *The cold entry*: ``python -m
repro.core.fabric.worker`` still attaches to a running coordinator,
alone or next to forked workers, now that the default launch no longer
exercises it.  *Event-driven service*: a ``lease`` that finds nothing
pending is answered the moment a shard frees up or the board completes,
and a body that raises ends the attempt as ``worker_error``.
"""

import multiprocessing.process
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core.fabric import (FabricCoordinator, FabricError, LeaseBoard,
                               Shard, SweepSpec, merge_campaign_dir,
                               recv_message, request, send_message)
from repro.core.fabric.worker import EXIT_DRAINED, EXIT_ERROR
from repro.core.orchestrator import Campaign, run_sweep
from repro.netsim import kinds as K
from repro.obs.campaign_report import render_stable, summarize_journal
from repro.obs.journal import replay_journal
from tests.fabric import rig

SEED = 5
JOIN_S = 60.0


def pid_body(env, config):
    """Which process ran the row, and whose child it is."""
    return {"item": config["item"], "pid": os.getpid(),
            "ppid": os.getppid()}


def boom_body(env, config):
    if config["item"] == 3:
        raise ValueError("boom at 3")
    return rig.chaos_body(env, config)


def lambda_body(env, config):
    """A module-level body whose result does not pickle."""
    return {"item": config["item"], "f": lambda: 0}


def _stable(results):
    return [(r.config, r.result, list(r.trace)) for r in results]


def _serial(count):
    return _stable(Campaign(rig.chaos_body, seed=SEED, lint="off")
                   .run(rig.make_configs(count)))


def _sockets(fabric_dir, count, body=rig.chaos_body, **options):
    return Campaign(body, seed=SEED, lint="off").run(
        rig.make_configs(count), backend="sockets", workers=2,
        fabric_dir=fabric_dir, **options)


# ----------------------------------------------------------------------
# fork hygiene
# ----------------------------------------------------------------------

def test_spawned_sweep_boots_no_interpreter(tmp_path, monkeypatch):
    def no_popen(*args, **kwargs):
        raise AssertionError(f"cold interpreter booted: {args!r}")

    monkeypatch.setattr(subprocess, "Popen", no_popen)
    assert _stable(_sockets(tmp_path / "fabric", 8)) == _serial(8)


def test_coordinator_hashes_the_spec_once_per_attempt(tmp_path,
                                                     monkeypatch):
    # every hello, lease and done used to re-hash the spec under the
    # coordinator lock; the forked workers hash it in their own memory
    calls = []
    digest = SweepSpec.digest

    def counting_digest(self):
        calls.append(os.getpid())
        return digest(self)

    monkeypatch.setattr(SweepSpec, "digest", counting_digest)
    fabric_dir = tmp_path / "fabric"
    assert _stable(_sockets(fabric_dir, 8)) == _serial(8)
    assert calls.count(os.getpid()) == 1
    spec = SweepSpec.load(fabric_dir / "spec.pkl")
    assert rig.read_state(fabric_dir)["spec"] == digest(spec)


def test_sockets_after_a_pool_sweep_and_back_to_back(tmp_path):
    # the pool leaves its manager thread and pipes in this process; the
    # first sockets sweep leaves whatever it failed to clean up
    configs = rig.make_configs(8)
    campaign = Campaign(rig.chaos_body, seed=SEED, lint="off")
    campaign.run(configs, journal=tmp_path / "serial.jsonl")
    serial = render_stable(summarize_journal(tmp_path / "serial.jsonl"))
    campaign.run(configs, workers=2, journal=tmp_path / "pool.jsonl")
    assert render_stable(summarize_journal(tmp_path / "pool.jsonl")) \
        == serial
    for name in ("first", "second"):
        _sockets(tmp_path / name, 8)
        assert render_stable(merge_campaign_dir(tmp_path / name)) == serial


def test_workers_are_children_and_keep_no_listener(tmp_path):
    fabric_dir = tmp_path / "fabric"
    results = _sockets(fabric_dir, 8, body=pid_body)
    state = rig.read_state(fabric_dir)
    assert state["coordinator_pid"] == os.getpid()
    workers = set(state["workers"].values())
    assert len(workers) == 2 and os.getpid() not in workers
    assert {r.result["pid"] for r in results} <= workers
    assert {r.result["ppid"] for r in results} == {os.getpid()}
    # every worker has exited and been reaped; had one kept the listener
    # it inherited, the endpoint would still accept
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(tuple(state["endpoint"]), timeout=5.0)


def test_spawn_failing_part_way_leaves_no_listener_and_no_child(
        tmp_path, monkeypatch):
    started = []
    real_start = multiprocessing.process.BaseProcess.start

    def start(proc):
        if started:
            raise OSError("no process for the second worker")
        real_start(proc)
        started.append(proc)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    fabric_dir = tmp_path / "fabric"
    with pytest.raises(OSError, match="second worker"):
        _sockets(fabric_dir, 8)
    [first] = started
    assert first.exitcode is not None
    state = rig.read_state(fabric_dir)
    assert state["status"] == "failed"
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(tuple(state["endpoint"]), timeout=5.0)
    assert rig.campaign_ends(fabric_dir)[-1]["status"] == "failed"


MAIN_SCRIPT = '''\
import atexit
import os
import sys

from repro.core.orchestrator import Campaign


def body(env, config):
    env.scheduler.schedule(1.0, lambda: None)
    env.scheduler.run()
    return {"item": config["item"], "now": env.scheduler.now}


def stable(results):
    return [(r.config, r.result, list(r.trace)) for r in results]


if __name__ == "__main__":
    fabric_dir, sentinel = sys.argv[1:]

    def fired():
        with open(sentinel, "a") as fp:
            fp.write(f"{os.getpid()}\\n")

    atexit.register(fired)
    configs = [{"item": index} for index in range(6)]
    campaign = Campaign(body, seed=3, lint="off")
    serial = campaign.run(configs)
    print(f"parent {os.getpid()}")  # unflushed: stdout is a pipe
    sockets = campaign.run(configs, backend="sockets", workers=2,
                           fabric_dir=fabric_dir)
    print("same" if stable(sockets) == stable(serial) else "DIFFERENT")
'''


@pytest.fixture(scope="module")
def main_script_run(tmp_path_factory):
    """One ``python script.py`` whose sweep body lives in ``__main__``."""
    tmp_path = tmp_path_factory.mktemp("main_script")
    script = tmp_path / "script.py"
    script.write_text(MAIN_SCRIPT)
    sentinel = tmp_path / "atexit.txt"
    done = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "fabric"),
         str(sentinel)],
        env=rig.rig_env(), capture_output=True, text=True, timeout=JOIN_S)
    return done, sentinel


def test_main_module_body_sweeps_on_sockets(main_script_run):
    done, _sentinel = main_script_run
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1:] == ["same"]
    assert done.stderr == ""


def test_parent_atexit_and_stdout_are_not_replayed(main_script_run):
    done, sentinel = main_script_run
    [first, _verdict] = done.stdout.splitlines()
    assert sentinel.read_text().splitlines() == [first.split()[1]]


NO_FORK_SCRIPT = '''\
import multiprocessing
import sys

from repro.core.orchestrator import Campaign
from tests.fabric import rig

if __name__ == "__main__":
    # what a platform without fork() looks like to the coordinator
    multiprocessing.set_start_method("spawn")
    multiprocessing.get_all_start_methods = lambda: ["spawn"]
    configs = rig.make_configs(6)
    campaign = Campaign(rig.chaos_body, seed=3, lint="off")
    serial = campaign.run(configs)
    sockets = campaign.run(configs, backend="sockets", workers=2,
                           fabric_dir=sys.argv[1])
    same = [(r.config, r.result, list(r.trace)) for r in sockets] \\
        == [(r.config, r.result, list(r.trace)) for r in serial]
    print("same" if same else "DIFFERENT")
'''


def test_without_fork_the_default_start_method_serves(tmp_path):
    script = tmp_path / "script.py"
    script.write_text(NO_FORK_SCRIPT)
    done = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "fabric")],
        env=rig.rig_env(), capture_output=True, text=True, timeout=JOIN_S)
    assert (done.returncode, done.stdout, done.stderr) == (0, "same\n", "")
    assert set(rig.worker_pids(tmp_path / "fabric")) == {"w1", "w2"}


# ----------------------------------------------------------------------
# the cold entry
# ----------------------------------------------------------------------

class _Attempt(threading.Thread):
    """One sockets ``run_sweep`` on a thread of this process."""

    def __init__(self, spec, fabric_dir, **sweep):
        super().__init__(daemon=True)
        self.sweep = dict(sweep, backend="sockets", fabric_dir=fabric_dir)
        self.spec = spec
        self.results = None
        self.error = None

    def run(self):
        try:
            self.results = run_sweep(self.spec, **self.sweep)
        except Exception as err:
            self.error = err

    def finish(self):
        self.join(JOIN_S)
        assert not self.is_alive(), "coordinator did not finish"
        if self.error is not None:
            raise self.error
        return self.results


def _cold_worker(fabric_dir, name, *, work_ms=None):
    rig.wait_until(
        lambda: (rig.read_state(fabric_dir) or {}).get("endpoint"),
        what="the coordinator's endpoint in state.json")
    host, port = rig.read_state(fabric_dir)["endpoint"]
    return subprocess.Popen(
        [sys.executable, "-m", "repro.core.fabric.worker", "--connect",
         f"{host}:{port}", "--dir", str(fabric_dir), "--worker", name],
        env=rig.rig_env(work_ms), stderr=subprocess.PIPE, text=True)


def _exit_status(worker):
    _out, err = worker.communicate(timeout=JOIN_S)
    assert "Traceback" not in err, err
    return worker.returncode


def _leases_of(fabric_dir, worker):
    return list((fabric_dir / "journals").glob(f"shard-*-{worker}.jsonl"))


def test_cold_worker_serves_an_unspawned_coordinator(tmp_path):
    fabric_dir = tmp_path / "fabric"
    attempt = _Attempt(rig.make_spec(8, seed=SEED), fabric_dir, workers=1,
                       fabric_options={"spawn": False})
    attempt.start()
    with _cold_worker(fabric_dir, "cold") as worker:
        try:
            assert _stable(attempt.finish()) == _serial(8)
            assert _exit_status(worker) == EXIT_DRAINED
        finally:
            worker.kill()
    assert len(_leases_of(fabric_dir, "cold")) == 4
    assert rig.campaign_ends(fabric_dir)[-1]["status"] == "ok"


def test_late_joiner_works_next_to_forked_workers(tmp_path, monkeypatch):
    # slow rows (inherited by the forked workers, handed to the cold
    # one) keep the sweep alive past the joiner's interpreter boot
    work_ms = 100.0
    monkeypatch.setenv("RIG_WORK_MS", str(work_ms))
    fabric_dir = tmp_path / "fabric"
    attempt = _Attempt(rig.make_spec(24, seed=SEED), fabric_dir, workers=2)
    attempt.start()
    with _cold_worker(fabric_dir, "late", work_ms=work_ms) as late:
        try:
            assert _stable(attempt.finish()) == _serial(24)
            assert _exit_status(late) == EXIT_DRAINED
        finally:
            late.kill()
    assert set(rig.worker_pids(fabric_dir)) == {"w1", "w2", "late"}
    for worker in ("w1", "w2", "late"):
        assert _leases_of(fabric_dir, worker), f"{worker} never leased"


def test_cold_worker_without_a_loadable_spec_says_so(tmp_path):
    (tmp_path / "spec.pkl").write_bytes(b"\x00not a pickle")
    done = subprocess.run(
        [sys.executable, "-m", "repro.core.fabric.worker", "--connect",
         "127.0.0.1:1", "--dir", str(tmp_path), "--worker", "w9"],
        env=rig.rig_env(), capture_output=True, text=True, timeout=JOIN_S)
    assert done.returncode == EXIT_ERROR
    [line] = done.stderr.splitlines()
    assert line.startswith("fabric worker w9: cannot load spec: ")


# ----------------------------------------------------------------------
# event-driven service
# ----------------------------------------------------------------------

POLL = 0.5


class _Peer:
    """A worker's end of a connection some coordinator thread serves."""

    def __init__(self, coordinator, name):
        self.sock, served = socket.socketpair()
        self.sock.settimeout(JOIN_S)
        threading.Thread(target=coordinator._serve_connection,
                         args=(served,), daemon=True).start()
        welcome = request(self.sock, {"type": "hello", "worker": name})
        assert welcome["type"] == "welcome"

    def ask(self, **message):
        return request(self.sock, message)


@pytest.fixture
def one_shard(tmp_path):
    """A coordinator serving one shard, held by peer ``a`` while peer
    ``b``'s lease request is already on the wire."""
    coordinator = FabricCoordinator(rig.make_spec(1), tmp_path,
                                    spawn=False, poll=POLL)
    coordinator._board = LeaseBoard([Shard(0, [0])])
    a, b = _Peer(coordinator, "a"), _Peer(coordinator, "b")
    assert a.ask(type="lease")["type"] == "grant"
    send_message(b.sock, {"type": "lease"})
    time.sleep(POLL / 10)  # b's request is being held, not refused
    assert not coordinator._board.pending()
    yield a, b
    a.sock.close()
    b.sock.close()


def _reply_within_poll(peer):
    start = time.monotonic()
    reply = recv_message(peer.sock)
    assert time.monotonic() - start < POLL / 2
    return reply


def test_held_lease_is_granted_when_the_holder_disconnects(one_shard):
    a, b = one_shard
    a.sock.close()  # EOF -> release_worker
    reply = _reply_within_poll(b)
    assert (reply["type"], reply["shard"], reply["attempt"]) \
        == ("grant", 0, 2)


def test_held_lease_is_drained_by_the_last_done(one_shard):
    a, b = one_shard
    assert a.ask(type="done", shard=0, executed=1, cached=0)["ok"]
    assert _reply_within_poll(b) == {"type": "drain"}


def test_lease_unserved_for_a_poll_is_told_to_wait(one_shard):
    _a, b = one_shard
    assert recv_message(b.sock) == {"type": "wait", "poll": POLL}


def test_body_exception_ends_the_attempt_as_worker_error(tmp_path):
    fabric_dir = tmp_path / "fabric"
    with pytest.raises(FabricError) as raised:
        _sockets(fabric_dir, 6, body=boom_body)
    assert raised.value.status == "worker_error"
    message = str(raised.value)
    assert "shard 3" in message and "ValueError('boom at 3')" in message
    assert "worker w1 raised" in message or "worker w2 raised" in message
    end = rig.campaign_ends(fabric_dir)[-1]
    assert end["status"] == "worker_error"
    # completed rows stay published; the failed one is not among them
    stored = len(list((fabric_dir / "store").rglob("*.pkl")))
    assert end["executed"] == stored < 6
    [error] = replay_journal(
        fabric_dir / "journals" / "coordinator.jsonl"
    ).of(K.CAMPAIGN_WORKER_ERROR)
    assert error.data == {"shard": 3, "worker": error.get("worker"),
                          "error": "ValueError('boom at 3')"}


def test_a_result_that_does_not_pickle_is_a_worker_error(tmp_path):
    """The store is how a fabric row travels: a ``put`` it refuses ends
    the shard as ``done{error}``, before any journal claims the row --
    not as a full set of ``run_end`` claims over an empty store that
    the coordinator can only read as lost workers (and a resume as
    work to redo, forever)."""
    fabric_dir = tmp_path / "fabric"
    with pytest.raises(FabricError) as raised:
        _sockets(fabric_dir, 4, body=lambda_body)
    assert raised.value.status == "worker_error"
    message = str(raised.value)
    assert "campaign config [" in message and "does not pickle" in message
    assert "lambda" in message  # the pickling error itself
    end = rig.campaign_ends(fabric_dir)[-1]
    assert end["status"] == "worker_error" and end["executed"] == 0
    assert list((fabric_dir / "store").rglob("*.pkl")) == []
    # a row the journal claims is a row the store holds
    for journal in (fabric_dir / "journals").glob("shard-*.jsonl"):
        replay = replay_journal(journal)
        assert replay.of(K.CAMPAIGN_RUN_END) == []
        [error] = replay.of(K.CAMPAIGN_WORKER_ERROR)
        assert f"campaign config [{error.get('index')}]" \
            in error.get("error")
    # in-process, the row travels in memory: nothing is stored, nothing
    # is wrong
    local_dir = tmp_path / "local"
    results = Campaign(lambda_body, seed=SEED, lint="off").run(
        rig.make_configs(2), fabric_dir=local_dir)
    assert [r.result["item"] for r in results] == [0, 1]
    assert list((local_dir / "store").rglob("*.pkl")) == []
    end = rig.campaign_ends(local_dir)[-1]
    assert (end["status"], end["executed"]) == ("ok", 2)


def test_sweep_cli_exits_1_on_a_result_that_does_not_pickle(tmp_path):
    from repro.core.fabric import SweepSpec
    fabric_dir = tmp_path / "fabric"
    SweepSpec(body=lambda_body, seed=SEED, configs=rig.make_configs(4),
              lint="off").save(fabric_dir / "spec.pkl")
    done = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "--resume",
         str(fabric_dir), "--backend", "sockets", "--workers", "2"],
        cwd=str(rig.REPO_ROOT), env=rig.rig_env(), capture_output=True,
        text=True, timeout=JOIN_S)
    assert done.returncode == 1, done.stderr
    assert "does not pickle" in done.stderr
    assert "--resume" not in done.stderr


def test_sweep_cli_exits_1_on_a_body_exception(tmp_path):
    from repro.core.fabric import SweepSpec
    fabric_dir = tmp_path / "fabric"
    SweepSpec(body=boom_body, seed=SEED, configs=rig.make_configs(6),
              lint="off").save(fabric_dir / "spec.pkl")
    done = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "--resume",
         str(fabric_dir), "--backend", "sockets", "--workers", "2"],
        cwd=str(rig.REPO_ROOT), env=rig.rig_env(), capture_output=True,
        text=True, timeout=JOIN_S)
    assert done.returncode == 1, done.stderr
    assert "repro sweep: worker w" in done.stderr
    assert "ValueError('boom at 3')" in done.stderr
