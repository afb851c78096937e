"""The work-stealing contract, unit-tested with an injected clock.

The :class:`~repro.core.fabric.shards.LeaseBoard` is pure (callers
inject ``now``), so every lease/steal/expiry property here runs without
sockets, threads, or wall time -- including the acceptance bullets:
an expired lease is handed to a live worker *exactly once*, and
1-config shards drain starvation-free.  Leases are cut by the
orchestrator's one partitioner, ``_prefix_chunks`` (the pool's chunks
come from it too; its split-at-fair-share cases and the property over
arbitrary layouts live in ``tests/core/test_campaign_prefix.py``); the
cases here pin what a lease board needs of it.
"""

from repro.core.fabric import LeaseBoard, Shard
from repro.core.fabric.shards import DONE, LEASED, PENDING
from repro.core.orchestrator import _prefix_chunks


def _flat(chunks):
    return [index for chunk in chunks for index in chunk]


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------

def test_partition_covers_todo_exactly_once_in_order():
    todo = list(range(0, 40, 2))
    assert _flat(_prefix_chunks(todo, [None] * 40, workers=3)) == todo


def test_partition_empty_todo_is_empty():
    assert _prefix_chunks([], [], workers=4) == []


def test_partition_target_shard_count_scales_with_workers():
    chunks = _prefix_chunks(list(range(96)), [None] * 96, workers=3)
    # aim: workers * _CHUNKS_PER_WORKER = 12 shards of 8
    assert [len(chunk) for chunk in chunks] == [8] * 12


def test_partition_keeps_a_group_within_fair_share_whole():
    # groups of 5 across 20 configs, 2 workers: the load-balancing size
    # is 3, so a naive size-based cut would slice every group -- but
    # none exceeds a worker's fair share (10), so none is split
    keys = [f"g{i // 5}" for i in range(20)]
    chunks = _prefix_chunks(list(range(20)), keys, workers=2)
    assert _flat(chunks) == list(range(20))
    for chunk in chunks:
        for group in {keys[i] for i in chunk}:
            members = [i for i in range(20) if keys[i] == group]
            assert set(members) <= set(chunk), (
                f"group {group} split across shards")


def test_partition_respects_sparse_todo_indices():
    # resumed sweeps hand in global indices with gaps
    todo = [1, 3, 4, 8, 9]
    chunks = _prefix_chunks(todo, [None] * 10, workers=1)
    assert _flat(chunks) == todo and len(chunks) > 1


# ----------------------------------------------------------------------
# lease / steal / expiry
# ----------------------------------------------------------------------

def _board(count, ttl=10.0):
    shards = [Shard(shard_id=i, indices=[i]) for i in range(count)]
    return LeaseBoard(shards, ttl=ttl)


def test_lease_grants_lowest_pending_to_one_worker():
    board = _board(2)
    first = board.lease("w1", now=0.0)
    assert first.shard_id == 0 and first.state == LEASED
    assert first.worker == "w1" and first.attempts == 1
    second = board.lease("w2", now=0.0)
    assert second.shard_id == 1
    assert board.lease("w3", now=0.0) is None


def test_expired_lease_is_stolen_by_exactly_one_live_worker():
    board = _board(1, ttl=5.0)
    board.lease("w1", now=0.0)
    # w1 goes silent past the ttl; the coordinator's expiry sweep runs
    reclaimed = board.expire(now=6.0)
    assert [s.shard_id for s in reclaimed] == [0]
    assert board.expired == 1
    # two live workers race for the reclaimed shard: exactly one wins
    grants = [board.lease(w, now=6.0) for w in ("w2", "w3")]
    granted = [g for g in grants if g is not None]
    assert len(granted) == 1
    assert granted[0].worker == "w2" and granted[0].attempts == 2
    assert board.stolen == 1
    # the zombie's heartbeat is refused; the thief's is renewed
    assert board.heartbeat("w1", 0, now=7.0) is False
    assert board.heartbeat("w2", 0, now=7.0) is True
    # completion by the thief ends it; nothing re-enters the queue
    assert board.complete("w2", 0) is True
    assert board.done()
    assert board.expire(now=100.0) == []


def test_heartbeat_extends_deadline_past_original_ttl():
    board = _board(1, ttl=5.0)
    board.lease("w1", now=0.0)
    assert board.heartbeat("w1", 0, now=4.0) is True
    # 4.0 + ttl = 9.0 > original deadline 5.0: no expiry at 8.0
    assert board.expire(now=8.0) == []
    assert board.expire(now=9.5) != []


def test_zombie_completion_accepted_once_then_refused():
    board = _board(1, ttl=5.0)
    board.lease("w1", now=0.0)
    board.expire(now=6.0)
    stolen = board.lease("w2", now=6.0)
    assert stolen.attempts == 2
    # the original holder finished anyway: its rows are
    # content-addressed, so the completion stands...
    assert board.complete("w1", 0) is True
    assert board.done()
    # ...and the thief's late completion is a no-op
    assert board.complete("w2", 0) is False
    assert board.done()


def test_release_worker_reclaims_all_its_leases_immediately():
    board = _board(3)
    board.lease("w1", now=0.0)
    board.lease("w1", now=0.0)
    board.lease("w2", now=0.0)
    reclaimed = board.release_worker("w1")
    assert sorted(s.shard_id for s in reclaimed) == [0, 1]
    assert board.released == 2
    assert {s.shard_id for s in board.pending()} == {0, 1}
    assert [s.shard_id for s in board.held_by("w2")] == [2]
    # a live worker picks the reclaimed work right back up
    assert board.lease("w3", now=0.0).shard_id == 0


def test_single_config_shards_drain_starvation_free():
    # worst-case shard granularity: every shard is one config; a lone
    # worker must drain the board in exactly N lease/complete cycles
    board = _board(25)
    cycles = 0
    while not board.done():
        shard = board.lease("w1", now=float(cycles))
        assert shard is not None, "pending work but no grant"
        assert board.complete("w1", shard.shard_id)
        cycles += 1
        assert cycles <= 25, "board never converged"
    assert cycles == 25
    assert board.stolen == 0 and board.expired == 0


def test_done_shard_never_reenters_pending():
    board = _board(2, ttl=5.0)
    shard = board.lease("w1", now=0.0)
    board.complete("w1", shard.shard_id)
    assert board.expire(now=100.0) == []
    assert board.release_worker("w1") == []
    assert board._by_id[shard.shard_id].state == DONE


def test_board_snapshot_reflects_counters_and_states():
    board = _board(2, ttl=5.0)
    board.lease("w1", now=0.0)
    board.expire(now=6.0)
    board.lease("w2", now=6.0)
    snapshot = board.as_dict()
    assert snapshot["expired"] == 1 and snapshot["stolen"] == 1
    states = {s["shard"]: s["state"] for s in snapshot["shards"]}
    assert states == {0: LEASED, 1: PENDING}
