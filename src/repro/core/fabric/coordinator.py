"""The fabric coordinator: the sockets backend's lease service.

:func:`~repro.core.orchestrator.run_sweep` owns a sweep attempt -- spec,
store, journal, ``campaign.start``, preflight, plan, result slots,
progress, ``campaign.end`` -- on every backend.  On ``backend="sockets"``
its rows come from here: :meth:`FabricCoordinator.rows` cuts the todo
into leases (with the orchestrator's one partitioner), binds a socket,
starts (or admits) workers, serves the lease protocol from a
:class:`~repro.core.fabric.shards.LeaseBoard`, and hands each completed
shard's rows back as they load from the store.  It watches for loss -- a
disconnected worker's leases return to the pending queue immediately, a
zombie's by TTL expiry.  All durable state lives *outside* the
coordinator (the spec, the content-addressed store, append-only
journals), so SIGKILLing the coordinator loses nothing: the next
``--resume`` probes the store for completed rows and only the remainder
is leased out again.

Its own workers start warm: each is a :mod:`multiprocessing` child of
the coordinator running :func:`~repro.core.fabric.worker.run_worker`,
forked where the platform can fork, so it inherits every imported
module, ``sys.path``, ``os.environ`` and ``__main__`` instead of booting
an interpreter and importing the program again.  The fork happens after
the listener is bound and *before* the coordinator's first thread
exists; the child closes the listener and the coordinator journal it
inherited and leaves through ``multiprocessing``'s ``os._exit``, so no
``atexit`` handler or stream buffer of the parent is replayed.  Workers
the coordinator did not start (``spawn=False``, late joiners, other
hosts) attach through ``python -m repro.core.fabric.worker``; both run
the one worker loop.

Service is event-driven: one :class:`threading.Condition` on the
coordinator lock is notified whenever a shard completes, a worker
disconnects or the attempt aborts.  The dispatch loop waits on it (at
most ``poll`` seconds, so TTL expiry is still served), and a ``lease``
request that finds nothing pending is held on it for up to ``poll``
seconds and answered ``grant`` / ``drain`` the moment a shard frees up
or the board completes; ``wait`` is what a request still unserved after
``poll`` gets.

``state.json`` in the campaign directory is advisory observability --
endpoint, coordinator pid, known worker pids, lease board snapshot --
refreshed atomically; the chaos rig reads it to find victims to SIGKILL,
and operators read it to see who holds what.  Nothing consumes it for
correctness.

When every worker is gone and shards remain, :meth:`~FabricCoordinator
.rows` raises :class:`FabricError` (``status="workers_lost"``), which the
lifecycle journals as ``campaign.end`` -- it does not silently hang,
and it does not respawn: the decision to retry belongs to the caller
(``repro sweep --resume``), which is the resumability story, not a
supervision tree.  A body that raises in a worker aborts the attempt
too, as ``status="worker_error"`` carrying the worker's error: a resume
would only raise it again.  Either way the rows the workers did publish
are loaded first, so ``campaign.end{executed}`` is what the attempt
produced.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import socket
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Union

from repro.core.fabric.protocol import (ProtocolError, recv_message,
                                        send_message)
from repro.core.fabric.shards import DONE, LeaseBoard, Shard
from repro.core.fabric.spec import SweepSpec
from repro.core.orchestrator import (PREFIX_STATS, ShardRow, ShardSink,
                                     _prefix_chunks)
from repro.netsim import kinds as K
from repro.obs.journal import NULL_JOURNAL, Journal, NullJournal

DEFAULT_TTL_S = 15.0
DEFAULT_POLL_S = 0.05
DRAIN_TIMEOUT_S = 10.0


class FabricError(RuntimeError):
    """A fabric sweep attempt that cannot make progress.

    ``status`` mirrors the ``campaign.end`` journal payload --
    ``"workers_lost"`` when every worker died mid-sweep (the remainder
    is resumable), ``"worker_error"`` when the body raised in a worker
    (a resume raises it again), ``"spec_mismatch"`` when a resume
    directory holds a different sweep.
    """

    def __init__(self, message: str, *, status: str = "failed"):
        super().__init__(message)
        self.status = status


def _write_json(path: Path, payload: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def persist_spec(spec: SweepSpec, fabric_dir: Union[str, Path]) -> None:
    """Pin ``fabric_dir`` to ``spec``: write ``spec.pkl`` on first use,
    refuse (``spec_mismatch``) a directory that holds a different sweep.

    Every backend calls this before touching the directory, so ``repro
    sweep --resume`` finds a spec -- and the store never mixes two
    sweeps' rows under one scorecard -- however the sweep was started.
    """
    spec_path = Path(fabric_dir) / "spec.pkl"
    if not spec_path.exists():
        spec.save(spec_path)
        return
    existing = SweepSpec.load(spec_path).digest()
    if existing != spec.digest():
        raise FabricError(
            f"{fabric_dir} holds a different sweep (spec {existing}, "
            f"ours {spec.digest()}); refusing to mix results",
            status="spec_mismatch")


class FabricCoordinator:
    """The lease service behind one sockets sweep attempt."""

    def __init__(self, spec: SweepSpec, fabric_dir: Union[str, Path], *,
                 workers: int = 2, ttl: float = DEFAULT_TTL_S,
                 poll: float = DEFAULT_POLL_S, spawn: bool = True,
                 host: str = "127.0.0.1"):
        self._spec = spec
        self._dir = Path(fabric_dir)
        self._workers = workers
        self._ttl = ttl
        self._poll = poll
        self._spawn = spawn
        self._host = host
        self._lock = threading.Lock()
        #: notified (lock held) when a shard completes, a worker
        #: disconnects or the attempt aborts
        self._wake = threading.Condition(self._lock)
        self._board: Optional[LeaseBoard] = None
        #: the attempt's journal while :meth:`rows` serves it
        self._journal: Union[Journal, NullJournal] = NULL_JOURNAL
        self._listener: Optional[socket.socket] = None
        self._procs: List[multiprocessing.process.BaseProcess] = []
        self._connections = 0
        self._worker_pids: Dict[str, int] = {}
        self._aborted = False
        #: the first ``done{error}``: ``{shard, worker, error}``
        self._worker_error: Optional[Dict[str, Any]] = None
        self._port: Optional[int] = None
        #: prefix-sharing counters summed from workers' ``done`` messages
        self._prefix_stats: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # directory state
    # ------------------------------------------------------------------

    def _write_state(self, status: str) -> None:
        board = self._board
        _write_json(self._dir / "state.json", {
            "status": status,
            "endpoint": ([self._host, self._port]
                         if self._port is not None else None),
            "coordinator_pid": os.getpid(),
            "spec": self._spec.digest(),
            "workers": dict(self._worker_pids),
            "board": board.as_dict() if board is not None else None,
        })

    # ------------------------------------------------------------------
    # protocol service
    # ------------------------------------------------------------------

    def _handle(self, state: Dict[str, Any],
                message: Dict[str, Any]) -> Dict[str, Any]:
        """One request → one reply, under the coordinator lock (which
        a ``lease`` with nothing to grant releases while it waits)."""
        kind = message.get("type")
        board = self._board
        journal = self._journal
        now = time.monotonic()
        if kind == "hello":
            worker = str(message.get("worker", "?"))
            state["worker"] = worker
            claimed = message.get("spec")
            if claimed is not None and claimed != self._spec.digest():
                return {"type": "drain", "reason": "spec_mismatch"}
            pid = message.get("pid")
            if isinstance(pid, int):
                self._worker_pids[worker] = pid
                self._write_state("running")
            return {"type": "welcome", "lease_ttl": self._ttl,
                    "poll": self._poll}
        worker = state.get("worker")
        if worker is None:
            raise ProtocolError(f"{kind!r} before hello")
        if kind == "lease":
            deadline = now + self._poll
            while True:
                if self._aborted or board is None or board.done():
                    return {"type": "drain"}
                shard = board.lease(worker, now)
                if shard is not None:
                    self._write_state("running")
                    return {"type": "grant", "shard": shard.shard_id,
                            "indices": list(shard.indices),
                            "attempt": shard.attempts, "ttl": self._ttl}
                if now >= deadline:
                    return {"type": "wait", "poll": self._poll}
                self._wake.wait(deadline - now)
                now = time.monotonic()
        if kind == "heartbeat":
            ok = (board is not None
                  and board.heartbeat(worker, int(message["shard"]), now))
            return {"type": "ack", "ok": ok}
        if kind == "done":
            shard_id = int(message["shard"])
            if message.get("error") is not None:
                # the shard is handed back, not done, and nobody else
                # should try it: the body is deterministic, so the
                # attempt ends here
                failure = {"shard": shard_id, "worker": worker,
                           "error": str(message["error"])}
                journal.record(K.CAMPAIGN_WORKER_ERROR, **failure)
                if board is not None:
                    board.release_worker(worker)
                if self._worker_error is None:
                    self._worker_error = failure
                self._aborted = True
                self._wake.notify_all()
                return {"type": "ack", "ok": True}
            for name in PREFIX_STATS:
                if name in message:
                    self._prefix_stats[name] = (
                        self._prefix_stats.get(name, 0)
                        + int(message[name]))
            if board is not None:
                board.complete(worker, shard_id)
            self._wake.notify_all()
            self._write_state("running")
            return {"type": "ack", "ok": True}
        raise ProtocolError(f"unknown message type {kind!r}")

    def _serve_connection(self, conn: socket.socket) -> None:
        state: Dict[str, Any] = {}
        with self._lock:
            self._connections += 1
        try:
            while True:
                message = recv_message(conn)
                if message is None:
                    break
                with self._lock:
                    reply = self._handle(state, message)
                send_message(conn, reply)
        except (ProtocolError, OSError):
            pass
        finally:
            with self._lock:
                self._connections -= 1
                worker = state.get("worker")
                if worker is not None and self._board is not None:
                    reclaimed = self._board.release_worker(worker)
                    if reclaimed:
                        self._journal.record(
                            K.CAMPAIGN_WORKER_ERROR, worker=worker,
                            reason="worker_disconnect",
                            shards=[s.shard_id for s in reclaimed])
                self._wake.notify_all()
            try:
                conn.close()
            except OSError:
                pass

    def _accept_loop(self) -> None:
        listener = self._listener
        while listener is not None:
            try:
                conn, _addr = listener.accept()
            except OSError:
                return  # listener closed: sweep over
            threading.Thread(target=self._serve_connection,
                             args=(conn,), daemon=True).start()

    # ------------------------------------------------------------------
    # worker processes
    # ------------------------------------------------------------------

    def _spawn_workers(self) -> None:
        """Start this attempt's workers as children of this process.

        Must run before the accept thread starts: a forked child keeps
        only the forking thread, so a lock some other thread of ours
        held at that instant would stay locked in the child for good.
        """
        # imported here, once, for every child to inherit: ``python -m
        # repro.core.fabric.worker`` imports this package first and
        # must not find its own module already loaded
        from repro.core.fabric.worker import child_main
        forking = "fork" in multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if forking else None)
        inherited = (self._listener, self._journal) if forking else ()
        for number in range(1, self._workers + 1):
            proc = context.Process(
                target=child_main,
                args=((self._host, self._port), self._dir, f"w{number}",
                      inherited))
            proc.start()
            self._procs.append(proc)

    def _reap_workers(self, drain_s: float) -> None:
        """Join our children, killing any still alive after ``drain_s``."""
        deadline = time.monotonic() + drain_s
        for proc in self._procs:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.exitcode is None:
                proc.kill()
                proc.join()

    def _workers_lost(self) -> bool:
        """True when no worker can ever lease again this attempt."""
        if self._connections:
            return False
        if self._spawn:
            return bool(self._procs) and all(
                proc.exitcode is not None for proc in self._procs)
        return False

    # ------------------------------------------------------------------
    # the row transport
    # ------------------------------------------------------------------

    def rows(self, todo: List[int], sink: ShardSink) -> Iterator[ShardRow]:
        """Lease ``todo`` out; yield every row the workers published.

        Workers publish for themselves (``store.put`` -> shard-journal
        ``run_end`` -> heartbeat); this side loads what they put and
        only tallies it into ``sink``: a shard's rows when it completes,
        then -- every worker reaped -- whatever the unfinished shards
        left in the store.  So even an attempt that ends in
        :class:`FabricError` counts exactly the rows it produced.
        """
        status = "failed"
        self._journal = sink.journal
        try:
            if todo:
                yield from self._serve(todo, sink)
            status = "ok"
        except FabricError as err:
            status = err.status
            raise
        finally:
            with self._lock:
                # connection threads outlive the attempt (a straggler's
                # EOF may still be on its way); they stop journaling
                # here, before the lifecycle closes the journal
                self._journal = NULL_JOURNAL
            self._write_state(status)

    def end_stats(self) -> Dict[str, int]:
        """What ``campaign.end`` can only learn from the lease service:
        steals, expiries, and the prefix-sharing counters the workers'
        sinks tallied (ours sees their rows, not how each was served)."""
        board = self._board
        return {"stolen": board.stolen if board is not None else 0,
                "expired": board.expired if board is not None else 0,
                **self._prefix_stats}

    def _load(self, indices: List[int], sink: ShardSink
              ) -> Iterator[ShardRow]:
        """The rows of ``indices`` the store holds, tallied as executed."""
        found, _absent = sink.store.probe([sink.keys[i] for i in indices])
        for index, result in zip(indices, found):
            if result is not None:
                row = ShardRow(index, result, None, False)
                sink.tally(row)
                yield row

    def _serve(self, todo: List[int], sink: ShardSink) -> Iterator[ShardRow]:
        """Shard ``todo``, serve leases until the board is done or the
        attempt aborts, tear down, load the stragglers' rows."""
        journal = sink.journal
        chunks = _prefix_chunks(todo, self._spec.execution_prefix_keys(),
                                self._workers)
        board = self._board = LeaseBoard(
            [Shard(shard_id, indices)
             for shard_id, indices in enumerate(chunks)], ttl=self._ttl)
        self._listener = socket.create_server((self._host, 0),
                                              backlog=self._workers * 2)
        self._port = self._listener.getsockname()[1]
        self._write_state("running")
        accept = threading.Thread(target=self._accept_loop, daemon=True)
        executed_before = sink.executed
        loaded: Set[int] = set()
        try:
            if self._spawn:
                self._spawn_workers()
            accept.start()
            with journal.phase("dispatch", shards=len(chunks),
                               workers=self._workers):
                over = False
                while not over:
                    with self._wake:
                        ready = self._await_shards(loaded)
                        over = self._aborted or board.done()
                    # loading happens outside the lock: workers keep
                    # being served while this side unpickles
                    for shard in ready:
                        loaded.add(shard.shard_id)
                        yield from self._load(shard.indices, sink)
        finally:
            # children of a spawn that failed part-way were never
            # served and never will be: no point waiting for a drain
            self._reap_workers(DRAIN_TIMEOUT_S if accept.is_alive()
                               else 0.0)
            listener, self._listener = self._listener, None
            try:
                # close() alone leaves accept() blocked on a socket
                # that still takes one more connection
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            listener.close()
            if accept.is_alive():
                # immediate where shutdown() wakes accept(); not worth
                # a stall where it does not
                accept.join(self._poll)
        # no worker is left to write: what the shards nobody reported
        # done left in the store is final
        yield from self._load(
            [index for shard in board.shards
             if shard.shard_id not in loaded for index in shard.indices],
            sink)
        if self._worker_error is not None:
            raise FabricError(
                "worker {worker} raised in shard {shard}: {error}"
                .format(**self._worker_error), status="worker_error")
        missing = len(todo) - (sink.executed - executed_before)
        if missing:
            raise FabricError(
                f"all workers lost with {missing} of "
                f"{len(self._spec.configs)} configurations incomplete; "
                f"resume with: repro sweep --resume {self._dir}",
                status="workers_lost")

    def _await_shards(self, loaded: Set[int]) -> List[Shard]:
        """Wait (``_wake`` held) for completed shards not yet loaded;
        empty once the attempt has aborted with none outstanding."""
        board = self._board
        while True:
            ready = [shard for shard in board.shards
                     if shard.state == DONE
                     and shard.shard_id not in loaded]
            if ready or self._aborted:
                return ready
            for shard in board.expire(time.monotonic()):
                self._journal.record(K.CAMPAIGN_WORKER_ERROR,
                                     shard=shard.shard_id,
                                     reason="lease_expired")
            if self._workers_lost():
                # no connection is left, so nobody waits on us
                self._aborted = True
                return []
            self._wake.wait(self._poll)
