"""The fabric worker: lease a shard, execute it, publish, repeat.

:func:`run_worker` is the one worker loop.  A coordinator starts its own
workers warm, as :mod:`multiprocessing` children that call it directly
(see :mod:`repro.core.fabric.coordinator`); ``python -m
repro.core.fabric.worker --connect HOST:PORT --dir DIR [--worker NAME]``
is the cold entry to the same loop for a worker nobody forked -- one on
another host, or one joining a sweep already under way -- and needs the
sweep's body importable from its own ``sys.path``.

The worker connects to a coordinator, loads the sweep spec from the
campaign directory, and loops: request a lease, run the granted shard
through the orchestrator's :func:`~repro.core.orchestrator.execute_shard`
and publish each row through a
:class:`~repro.core.orchestrator.ShardSink` -- ``put`` into the shared
store *before* journaling ``run_end`` -- then heartbeat.  A SIGKILL at
any byte offset loses at most the configuration in flight, never a row
the journal claims done; a result the store cannot hold (it does not
pickle) ends the shard as ``done{error}`` for the same reason -- the
store is how this worker's rows reach the sweep.  The worker is that
pipeline's sockets transport and adds exactly one step of its own: the
heartbeat.

Each lease gets its own journal file
(``journals/shard-NNNN-tryA-WORKER.jsonl``): per-shard journals never
share a writer, so worker loss cannot tear another worker's record, and
the merge step (:mod:`repro.core.fabric.merge`) folds them by config
index where duplicate rows from a stolen-but-finished shard are
harmless -- determinism makes them byte-identical on stable keys.

A ``lease`` with nothing pending is held by the coordinator until a
shard frees up, so the worker never sleeps between shards: ``wait``
only says the request timed out unserved, and the worker asks again at
once.  A heartbeat answered ``ok: false`` means the lease expired and
was stolen; the worker abandons the rest of the shard immediately (the
new holder owns it) and asks for fresh work.  A dead coordinator socket
exits the worker with status 3 -- orphaned workers never spin.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import time
from pathlib import Path
from typing import Any, List, Optional, Tuple

from repro.core.fabric.protocol import (ProtocolError, recv_message,
                                        request, send_message)
from repro.core.fabric.spec import SpecError, SweepSpec
from repro.core.fabric.store import ResultStore
from repro.core.orchestrator import ShardSink, execute_shard
from repro.netsim import kinds as K
from repro.obs.journal import Journal

#: worker exit statuses (asserted by the chaos rig)
EXIT_DRAINED = 0
EXIT_ERROR = 1
EXIT_COORDINATOR_LOST = 3

CONNECT_RETRIES = 50
CONNECT_BACKOFF_S = 0.1


def _connect(endpoint: Tuple[str, int]) -> socket.socket:
    """Dial the coordinator, retrying while it finishes binding."""
    last: Optional[Exception] = None
    for _attempt in range(CONNECT_RETRIES):
        try:
            return socket.create_connection(endpoint, timeout=30.0)
        except OSError as err:
            last = err
            time.sleep(CONNECT_BACKOFF_S)
    raise ConnectionError(
        f"could not reach coordinator at {endpoint[0]}:{endpoint[1]}: "
        f"{last}")


def _shard_journal_path(fabric_dir: Path, shard: int, attempt: int,
                        worker: str) -> Path:
    return (fabric_dir / "journals"
            / f"shard-{shard:04d}-try{attempt}-{worker}.jsonl")


class _LeaseLost(Exception):
    """The coordinator declined our heartbeat: the shard was stolen."""


def _heartbeat(sock: socket.socket, shard: int) -> None:
    reply = request(sock, {"type": "heartbeat", "shard": shard})
    if not reply.get("ok", False):
        raise _LeaseLost(f"lease on shard {shard} was reclaimed")


def run_worker(endpoint: Tuple[str, int], fabric_dir: Path,
               worker: str) -> int:
    """The worker main loop; returns a process exit status."""
    fabric_dir = Path(fabric_dir)
    try:
        spec = SweepSpec.load(fabric_dir / "spec.pkl")
    except SpecError as err:
        print(f"fabric worker {worker}: cannot load spec: {err}",
              file=sys.stderr)
        return EXIT_ERROR
    store = ResultStore(fabric_dir / "store")
    store_keys = spec.store_keys(store)
    try:
        sock = _connect(endpoint)
    except ConnectionError as err:
        print(f"fabric worker {worker}: {err}", file=sys.stderr)
        return EXIT_COORDINATOR_LOST
    try:
        welcome = request(sock, {"type": "hello", "worker": worker,
                                 "pid": os.getpid(),
                                 "spec": spec.digest()})
        if welcome.get("type") != "welcome":
            print(f"fabric worker {worker}: unexpected handshake reply "
                  f"{welcome!r}", file=sys.stderr)
            return EXIT_ERROR
        while True:
            reply = request(sock, {"type": "lease"})
            kind = reply.get("type")
            if kind == "drain":
                return EXIT_DRAINED
            if kind == "wait":
                # the coordinator already held the request for ``poll``
                continue
            if kind != "grant":
                print(f"fabric worker {worker}: unexpected lease reply "
                      f"{reply!r}", file=sys.stderr)
                return EXIT_ERROR
            shard = int(reply["shard"])
            indices = [int(i) for i in reply["indices"]]
            attempt = int(reply.get("attempt", 1))
            journal = Journal(_shard_journal_path(fabric_dir, shard,
                                                  attempt, worker))
            sink = ShardSink(spec, store, journal, keys=store_keys,
                             carrier=True)
            try:
                try:
                    # rows another attempt (or a concurrent local run)
                    # already published are journaled as cached, not
                    # re-run; every fresh row renews the lease, so a
                    # slow shard does not expire under a live worker
                    _held, todo = sink.plan(indices)
                    for _row in sink.drain(execute_shard(spec, todo)):
                        _heartbeat(sock, shard)
                except _LeaseLost:
                    journal.record(K.CAMPAIGN_WORKER_ERROR, shard=shard,
                                   worker=worker, reason="lease_lost")
                    continue
                except Exception as err:
                    send_message(sock, {"type": "done", "shard": shard,
                                        "error": repr(err)})
                    recv_message(sock)
                    raise
            finally:
                journal.close()
            request(sock, {"type": "done", "shard": shard,
                           "executed": sink.executed,
                           "cached": sink.cached, **sink.prefix_stats()})
    except (ProtocolError, OSError) as err:
        # the coordinator vanished (SIGKILL, abort); exit distinctly so
        # the chaos rig can tell orphaning from worker bugs
        print(f"fabric worker {worker}: coordinator lost: {err}",
              file=sys.stderr)
        return EXIT_COORDINATOR_LOST
    finally:
        try:
            sock.close()
        except OSError:
            pass


def child_main(endpoint: Tuple[str, int], fabric_dir: Path, worker: str,
               inherited: Tuple[Any, ...]) -> None:
    """What a worker its coordinator started runs, in the child process.

    ``inherited`` holds the coordinator's open handles a forked child
    got a copy of and has no use for (a child started any other way
    gets none): held open, the listener would keep the endpoint
    connectable after the coordinator closed it.
    """
    for handle in inherited:
        handle.close()
    sys.exit(run_worker(endpoint, fabric_dir, worker))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-fabric-worker",
        description="one fabric sweep worker, attached to a running "
                    "coordinator (which forks its own)")
    parser.add_argument("--connect", required=True,
                        metavar="HOST:PORT")
    parser.add_argument("--dir", required=True,
                        help="campaign fabric directory (spec + store)")
    parser.add_argument("--worker", default=None,
                        help="worker name (default: w<pid>)")
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    worker = args.worker or f"w{os.getpid()}"
    return run_worker((host or "127.0.0.1", int(port)),
                      Path(args.dir), worker)


if __name__ == "__main__":
    sys.exit(main())
