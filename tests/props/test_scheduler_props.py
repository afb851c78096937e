"""Property-based tests for the scheduler: ordering and clock invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.scheduler import Scheduler, SchedulerError

delays = st.lists(st.floats(min_value=0.0, max_value=1000.0,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=50)


@given(delays)
def test_events_always_dispatch_in_nondecreasing_time(delay_list):
    sched = Scheduler()
    fire_times = []
    for delay in delay_list:
        sched.schedule(delay, lambda: fire_times.append(sched.now))
    sched.run()
    assert fire_times == sorted(fire_times)
    assert len(fire_times) == len(delay_list)


@given(delays)
def test_clock_never_goes_backwards(delay_list):
    sched = Scheduler()
    observations = []
    for delay in delay_list:
        sched.schedule(delay, lambda: observations.append(sched.now))
    last = -1.0
    while sched.step():
        assert sched.now >= last
        last = sched.now


@given(delays, st.integers(min_value=0, max_value=49))
def test_cancellation_removes_exactly_that_event(delay_list, cancel_index):
    sched = Scheduler()
    fired = []
    events = []
    for i, delay in enumerate(delay_list):
        events.append(sched.schedule(delay, fired.append, i))
    victim = cancel_index % len(events)
    events[victim].cancel()
    sched.run()
    assert victim not in fired
    assert sorted(fired) == [i for i in range(len(delay_list)) if i != victim]


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                    allow_nan=False),
                          st.integers(min_value=0, max_value=5)),
                min_size=1, max_size=30))
def test_same_time_events_preserve_scheduling_order(pairs):
    sched = Scheduler()
    fired = []
    for i, (delay, bucket) in enumerate(pairs):
        sched.schedule(float(bucket), fired.append, (bucket, i))
    sched.run()
    # within each time bucket, sequence numbers must be increasing
    for bucket in {b for _, b in pairs}:
        in_bucket = [i for b, i in fired if b == bucket]
        assert in_bucket == sorted(in_bucket)


@given(delays)
@settings(max_examples=25)
def test_run_until_partitions_cleanly(delay_list):
    """Running to t then to the end fires every event exactly once."""
    boundary = 500.0
    sched = Scheduler()
    fired = []
    for delay in delay_list:
        sched.schedule(delay, fired.append, delay)
    sched.run_until(boundary)
    early = list(fired)
    assert all(d <= boundary for d in early)
    sched.run()
    assert sorted(fired) == sorted(delay_list)


# ----------------------------------------------------------------------
# one dispatch loop: every way of driving a program dispatches the same
# ----------------------------------------------------------------------

#: a program's nodes; a node fires, schedules later nodes, cancels others
MAX_NODES = 6
#: no program's events run past this (MAX_NODES chained 2.5 s delays)
HORIZON = 20.0

node = st.tuples(
    st.sampled_from((0.0, 0.5, 1.0, 2.5)),                  # its delay
    st.lists(st.integers(0, MAX_NODES - 1), max_size=2),    # it schedules
    st.lists(st.integers(0, MAX_NODES - 1), max_size=2))    # it cancels
event_programs = st.tuples(
    st.lists(node, min_size=1, max_size=MAX_NODES),
    st.lists(st.integers(0, MAX_NODES - 1), min_size=1, max_size=3))
#: on the delays' half-second grid, so a limit often equals an event time
instants = st.integers(0, 2 * int(HORIZON) - 2).map(lambda n: n / 2)


def _load(program):
    """A scheduler holding ``program``'s roots, and the ``(now, node)``
    log its callbacks append to as they fire."""
    nodes, roots = program
    sched, log, handles = Scheduler(), [], {}

    def fire(k):
        log.append((sched.now, k))
        _delay, spawns, cancels = nodes[k]
        for j in spawns:
            if k < j < len(nodes):              # later nodes only: finite
                handles[j] = sched.schedule(nodes[j][0], fire, j)
        for j in cancels:
            if j in handles:
                handles[j].cancel()

    for k in roots:
        k %= len(nodes)
        handles[k] = sched.schedule(nodes[k][0], fire, k)
    return sched, log


def _due(log, limit):
    """The part of a dispatch log a run up to ``limit`` fires."""
    return [row for row in log if row[0] <= limit]


def _last_time(log):
    return log[-1][0] if log else 0.0


@given(event_programs, st.lists(instants, max_size=4), instants)
@settings(max_examples=150, deadline=None)
def test_every_run_method_dispatches_the_same_sequence(program, cuts, quiet):
    sched, reference = _load(program)
    assert sched.run() == len(reference)
    assert sched.now == _last_time(reference)
    assert (sched.dispatched_count, sched.pending_count) == (
        len(reference), 0)

    # chained run_until splits: the clock ends at each deadline
    sched, log = _load(program)
    fired = 0
    for deadline in sorted(cuts) + [HORIZON]:
        fired += sched.run_until(deadline)
        assert sched.now == deadline
        assert log == _due(reference, deadline)
    assert (log, fired) == (reference, len(reference))

    # run_until_quiet leaves the clock at the last event it dispatched
    sched, log = _load(program)
    fired = sched.run_until_quiet(quiet)
    assert log == _due(reference, quiet) == reference[:fired]
    assert sched.now == _last_time(log)
    fired += sched.run()
    assert (log, fired) == (reference, len(reference))
    assert sched.now == _last_time(reference)

    # one event at a time
    sched, log = _load(program)
    steps = 0
    while sched.step():
        steps += 1
    assert (log, steps) == (reference, len(reference))
    assert sched.now == _last_time(reference)
    assert (sched.dispatched_count, sched.pending_count) == (
        len(reference), 0)


@pytest.mark.parametrize("method", ["run", "run_until", "run_until_quiet"])
@given(program=event_programs, max_events=st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_max_events_raises_after_exactly_that_many_dispatches(
        method, program, max_events):
    full, reference = _load(program)
    full.run()
    sched, log = _load(program)
    limit = () if method == "run" else (HORIZON,)
    drive = getattr(sched, method)
    if max_events > len(reference):
        assert drive(*limit, max_events=max_events) == len(reference)
        assert log == reference
        return
    with pytest.raises(SchedulerError, match=f"max_events={max_events}"):
        drive(*limit, max_events=max_events)
    assert log == reference[:max_events]
    assert sched.dispatched_count == max_events
