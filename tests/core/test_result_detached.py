"""A result holds its rows, not the world it ran in.

An in-process run's trace records against its scheduler's clock, and a
simulated world is a web of reference cycles, so a result still bound
to that clock kept the whole world alive for as long as the caller kept
the result -- and left it to the cyclic collector afterwards, whenever
that next came round.  ``run_one`` now detaches the trace and tears the
world down once the run is judged, so the world dies by reference
counting the moment the row is made, cold, forked or explored; rows
from the pool, the fabric and the store never carried a clock.
"""

import gc
import types
import weakref

import pytest

import repro.oracle.explore as explore_module
from repro.analysis.export import VOLATILE_ATTRS, dump_trace
from repro.core.orchestrator import (Campaign, PrefixedBody, _capture_prefix,
                                     run_one)
from repro.netsim.scheduler import Scheduler
from repro.oracle.fuzz import prefixed_fuzz_body, sweep_battery

_OPAQUE = (type, types.ModuleType, types.FunctionType)


def _reaches_a_scheduler(root):
    seen, todo = {id(root)}, [root]
    while todo:
        obj = todo.pop()
        if isinstance(obj, Scheduler):
            return True
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, _OPAQUE):
                seen.add(id(ref))
                todo.append(ref)
    return False


@pytest.mark.parametrize("group", [True, False],
                         ids=["forked", "cold"])
def test_returned_results_pin_no_world(group):
    battery = sweep_battery("gmp", ["self_death", "fixed"], 2)
    results = Campaign(prefixed_fuzz_body, seed=0).run(battery,
                                                       group=group)
    assert len(results) == len(battery)
    for result in results:
        assert len(result.trace) > 0
        assert not _reaches_a_scheduler(result)


def test_a_returned_trace_records_only_with_an_explicit_time():
    result, = Campaign(prefixed_fuzz_body, seed=0).run(
        sweep_battery("gmp", ["fixed"], 1))
    rows = len(result.trace)
    with pytest.raises(RuntimeError, match="no clock bound"):
        result.trace.record("note")
    result.trace.record("note", t=1.0)
    assert len(result.trace) == rows + 1


# ----------------------------------------------------------------------
# a finished run's world dies by reference counting
# ----------------------------------------------------------------------

class _Watch:
    """A body part that keeps a weak reference to the scheduler of each
    world it runs in, and checks, as each run starts, that every earlier
    world is gone already."""

    def __init__(self, part):
        self.part = part
        self.schedulers = []
        self.alive_at_start = []

    def __call__(self, env, *args):
        self.alive_at_start.append(sum(ref() is not None
                                       for ref in self.schedulers))
        self.schedulers.append(weakref.ref(env.scheduler))
        return self.part(env, *args)


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def config():
    return sweep_battery("gmp", ["self_death"], 1)[0]


def test_a_cold_run_frees_its_world_by_refcount(collector_off, config):
    watch = _Watch(prefixed_fuzz_body)
    row = run_one(watch, 0, config)
    assert len(row.trace) > 0
    scheduler, = watch.schedulers
    assert scheduler() is None


def test_a_forked_run_frees_its_world_by_refcount(collector_off, config):
    watch = _Watch(prefixed_fuzz_body.continuation)
    body = PrefixedBody(prefixed_fuzz_body.prefix, watch,
                        key=prefixed_fuzz_body.key)
    checkpoint = _capture_prefix(body, config, body.prefix_key(config))
    rows = [run_one(body, 0, config, checkpoint) for _ in range(3)]
    assert len(rows[0].trace) > 0
    assert watch.alive_at_start == [0, 0, 0]
    assert all(scheduler() is None for scheduler in watch.schedulers)


def test_an_explore_schedule_frees_its_world_by_refcount(collector_off,
                                                         monkeypatch):
    watch = _Watch(explore_module.schedule_body.continuation)
    monkeypatch.setattr(explore_module.schedule_body, "continuation", watch)
    report = explore_module.explore("gmp", "self_death", max_schedules=4)
    assert report.schedules == 4
    assert watch.alive_at_start == [0, 0, 0, 0]
    assert all(scheduler() is None for scheduler in watch.schedulers)


def _digest(row):
    return dump_trace(row.trace, exclude_attrs=VOLATILE_ATTRS)


def test_a_checkpoint_forks_the_same_world_after_torn_down_forks(config):
    # a teardown cuts only what its own fork owns: the checkpoint's
    # snapshot, shared by every fork's plan, stays as captured
    body = prefixed_fuzz_body
    checkpoint = _capture_prefix(body, config, body.prefix_key(config))
    first = _digest(run_one(body, 0, config, checkpoint))
    for _ in range(4):
        run_one(body, 0, config, checkpoint)
    assert checkpoint.forks == 5
    assert _digest(run_one(body, 0, config, checkpoint)) == first
    assert _digest(run_one(body, 0, config)) == first
