"""Unit tests for the checkpoint/fork engine (repro.core.checkpoint)."""

import pytest

from repro.core.checkpoint import (Checkpoint, CheckpointError,
                                   CheckpointPool, audit_scheduler)
from repro.core.orchestrator import make_env


class Counter:
    """A minimal self-rescheduling rig: bound-method callbacks only."""

    def __init__(self, env, period=1.0):
        self.env = env
        self.fired = 0
        env.scheduler.schedule(period, self.tick, period)

    def tick(self, period):
        self.fired += 1
        self.env.trace.record("counter.tick", n=self.fired)
        self.env.scheduler.schedule(period, self.tick, period)


def warmed_env(depth=5.0):
    env = make_env(seed=0)
    counter = Counter(env)
    env.run_until(depth)
    return env, counter


# ----------------------------------------------------------------------
# capture / fork semantics
# ----------------------------------------------------------------------

def test_fork_continues_where_capture_left_off():
    env, counter = warmed_env(5.0)
    cp = Checkpoint.capture(env, {"counter": counter})
    forked = cp.fork()
    assert forked.env.scheduler.now == 5.0
    assert forked["counter"].fired == 5
    forked.env.run_until(10.0)
    assert forked["counter"].fired == 10


def test_capture_leaves_the_original_running():
    env, counter = warmed_env(5.0)
    cp = Checkpoint.capture(env, {"counter": counter})
    forked = cp.fork()
    forked.env.run_until(10.0)
    # the original world never moved
    assert env.scheduler.now == 5.0
    assert counter.fired == 5
    # ...and still runs to the same place the fork reached
    env.run_until(10.0)
    assert counter.fired == forked["counter"].fired == 10


def test_forks_are_mutually_independent():
    env, counter = warmed_env(3.0)
    cp = Checkpoint.capture(env, {"counter": counter})
    a, b = cp.fork(), cp.fork()
    a.env.run_until(20.0)
    assert b.env.scheduler.now == 3.0
    b.env.run_until(20.0)
    assert a["counter"].fired == b["counter"].fired == 20
    assert cp.forks == 2


def test_trace_prefix_is_shared_not_copied():
    env, counter = warmed_env(4.0)
    cp = Checkpoint.capture(env, {"counter": counter})
    forked = cp.fork()
    prefix = list(env.trace)
    # entries are values; the rows' attrs dicts are what a fork shares
    assert [a == b and a.attrs is b.attrs
            for a, b in zip(prefix, forked.env.trace)] == [True] * len(prefix)
    forked.env.run_until(6.0)
    assert len(forked.env.trace) > len(prefix)
    assert list(env.trace) == prefix  # parent undisturbed


def test_capture_compacts_tombstones_first():
    env, counter = warmed_env(2.0)
    doomed = [env.scheduler.schedule(50.0 + i, counter.tick, 1.0)
              for i in range(10)]
    for event in doomed:
        event.cancel()
    before = env.scheduler.compactions
    cp = Checkpoint.capture(env, {"counter": counter})
    assert env.scheduler.compactions == before + 1
    assert cp.fork().env.scheduler.pending_count == 1


def test_default_label_and_repr():
    env, _counter = warmed_env(5.0)
    cp = Checkpoint.capture(env)
    assert cp.label == "t=5"
    assert "t=5" in repr(cp)
    assert cp.position == len(env.trace)


# ----------------------------------------------------------------------
# the capture-time audit
# ----------------------------------------------------------------------

def test_capture_rejects_closure_callbacks():
    env, _counter = warmed_env(1.0)
    leaked = []
    env.scheduler.schedule(1.0, lambda: leaked.append(1))
    with pytest.raises(CheckpointError, match="closure"):
        Checkpoint.capture(env)


def test_capture_rejects_world_smuggling_defaults():
    env, counter = warmed_env(1.0)

    def poke(target=counter):
        target.fired += 1

    env.scheduler.schedule(1.0, poke)
    with pytest.raises(CheckpointError, match="default"):
        Checkpoint.capture(env)


def test_audit_accepts_clean_heaps_and_atomic_defaults():
    env, _counter = warmed_env(1.0)

    def ping(n=3, tag="x"):
        return n, tag

    env.scheduler.schedule(1.0, ping)
    assert audit_scheduler(env.scheduler) == []


def test_audit_recurses_into_partials():
    import functools
    env, _counter = warmed_env(1.0)
    captured = []
    env.scheduler.schedule(1.0, functools.partial(
        lambda: captured.append(1)))
    issues = audit_scheduler(env.scheduler)
    assert len(issues) == 1 and "closure" in issues[0]


def test_audit_false_skips_the_check():
    env, _counter = warmed_env(1.0)
    env.scheduler.schedule(1.0, lambda: None)
    Checkpoint.capture(env, audit=False)  # does not raise


# ----------------------------------------------------------------------
# re-seeding forks
# ----------------------------------------------------------------------

def test_fork_reseed_matches_cold_run():
    env, _counter = warmed_env(2.0)
    stream = env.dist("noise", "a")  # derived, but never drawn from
    cp = Checkpoint.capture(env)
    forked = cp.fork(seed=7)
    assert forked.env.seed == 7
    cold = make_env(seed=7)
    assert forked.env.dists[0].dst_uniform(0, 1) \
        == cold.dist("noise", "a").dst_uniform(0, 1)
    assert stream.draws == 0  # the original stream was never touched


def test_fork_same_seed_skips_reseed():
    env, _counter = warmed_env(2.0)
    stream = env.dist("noise")
    stream.dst_uniform(0, 1)  # consumed -- reseed would refuse
    cp = Checkpoint.capture(env)
    cp.fork(seed=0)  # captured seed: no reseed attempted, no error


def test_fork_reseed_refuses_consumed_streams():
    env, _counter = warmed_env(2.0)
    env.dist("noise").dst_uniform(0, 1)
    cp = Checkpoint.capture(env)
    with pytest.raises(CheckpointError, match="re-seeded"):
        cp.fork(seed=9)


# ----------------------------------------------------------------------
# identity digests
# ----------------------------------------------------------------------

def test_identity_stable_across_identical_captures():
    def build():
        env, counter = warmed_env(5.0)
        return Checkpoint.capture(env, {"counter": counter}, label="x")
    assert build().identity == build().identity


def test_identity_distinguishes_depth_label_and_seed():
    def capture(depth=5.0, label="x", seed=0):
        env = make_env(seed=seed)
        Counter(env)
        env.run_until(depth)
        return Checkpoint.capture(env, label=label).identity

    base = capture()
    assert capture(depth=6.0) != base
    assert capture(label="y") != base
    assert capture(seed=1) != base


# ----------------------------------------------------------------------
# checkpoint trees: capture on a fork
# ----------------------------------------------------------------------

def test_capture_on_fork_records_parent_and_depth():
    env, counter = warmed_env(3.0)
    root = Checkpoint.capture(env, {"counter": counter})
    branch = root.fork()
    branch.env.run_until(6.0)
    child = Checkpoint.capture(branch)
    assert child.parent is root
    assert root.depth == 0 and child.depth == 1
    assert "depth=1" in repr(child)
    grandbranch = child.fork()
    grandbranch.env.run_until(9.0)
    grandchild = Checkpoint.capture(grandbranch)
    assert grandchild.depth == 2


def test_nested_capture_inherits_fork_roots():
    env, counter = warmed_env(2.0)
    root = Checkpoint.capture(env, {"counter": counter})
    branch = root.fork()
    branch.env.run_until(5.0)
    child = Checkpoint.capture(branch)  # no explicit roots
    refork = child.fork()
    assert refork["counter"].fired == 5
    refork.env.run_until(8.0)
    assert refork["counter"].fired == 8


def test_nested_fork_matches_flat_run():
    # root -> branch -> nested capture -> fork must land exactly where
    # one uninterrupted run of the same world lands
    env, counter = warmed_env(2.0)
    root = Checkpoint.capture(env, {"counter": counter})
    branch = root.fork()
    branch.env.run_until(6.0)
    child = Checkpoint.capture(branch)
    leaf = child.fork()
    leaf.env.run_until(12.0)
    env.run_until(12.0)  # the original, never checkpointed past t=2
    assert leaf["counter"].fired == counter.fired == 12
    assert list(leaf.env.trace)[-1].time == list(env.trace)[-1].time


def test_nested_capture_leaves_the_branch_running():
    env, counter = warmed_env(2.0)
    root = Checkpoint.capture(env, {"counter": counter})
    branch = root.fork()
    branch.env.run_until(5.0)
    Checkpoint.capture(branch)
    branch.env.run_until(9.0)  # the branch keeps going after capture
    assert branch["counter"].fired == 9


def test_nested_identity_chains_the_parent_digest():
    env, counter = warmed_env(2.0)
    root = Checkpoint.capture(env, {"counter": counter}, label="x")
    branch = root.fork()
    branch.env.run_until(5.0)
    nested = Checkpoint.capture(branch, label="x")
    # same world state, captured flat vs on the branch: the parent link
    # alone must split the identities
    flat_env, flat_counter = warmed_env(5.0)
    flat = Checkpoint.capture(flat_env, {"counter": flat_counter},
                              label="x")
    assert nested.identity != flat.identity
    assert nested.identity != root.identity


# ----------------------------------------------------------------------
# CheckpointPool
# ----------------------------------------------------------------------

def _pooled_checkpoint(depth=2.0):
    env, counter = warmed_env(depth)
    return Checkpoint.capture(env, {"counter": counter})


class TestCheckpointPool:
    def test_get_put_and_counters(self):
        pool = CheckpointPool()
        assert pool.get("a") is None and pool.misses == 1
        cp = _pooled_checkpoint()
        pool.put("a", cp)
        assert pool.get("a") is cp
        assert pool.stats() == {"hits": 1, "misses": 1, "evictions": 0,
                                "items": 1, "entries": cp.position}
        assert "a" in pool and len(pool) == 1

    def test_max_items_evicts_lru(self):
        pool = CheckpointPool(max_items=2)
        for key in ("a", "b", "c"):
            pool.put(key, _pooled_checkpoint())
        assert pool.keys() == ["b", "c"]
        assert pool.evictions == 1
        pool.get("b")  # refresh: "c" becomes LRU
        pool.put("d", _pooled_checkpoint())
        assert pool.keys() == ["b", "d"]

    def test_clear_keeps_counters(self):
        pool = CheckpointPool()
        pool.put("a", _pooled_checkpoint())
        pool.get("a")
        pool.clear()
        assert len(pool) == 0
        assert pool.hits == 1
