"""Unit tests for the virtual-time event scheduler."""

import pytest

from repro.netsim.scheduler import Scheduler, SchedulerError


def test_starts_at_zero():
    assert Scheduler().now == 0.0


def test_starts_at_custom_time():
    assert Scheduler(start_time=5.0).now == 5.0


def test_schedule_and_run_advances_clock():
    sched = Scheduler()
    fired = []
    sched.schedule(1.5, fired.append, "a")
    sched.run()
    assert fired == ["a"]
    assert sched.now == 1.5


def test_events_fire_in_time_order():
    sched = Scheduler()
    fired = []
    sched.schedule(3.0, fired.append, "late")
    sched.schedule(1.0, fired.append, "early")
    sched.schedule(2.0, fired.append, "middle")
    sched.run()
    assert fired == ["early", "middle", "late"]


def test_same_time_events_fire_fifo():
    sched = Scheduler()
    fired = []
    for i in range(10):
        sched.schedule(1.0, fired.append, i)
    sched.run()
    assert fired == list(range(10))


def test_negative_delay_rejected():
    with pytest.raises(SchedulerError):
        Scheduler().schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sched = Scheduler()
    sched.schedule(5.0, lambda: None)
    sched.run()
    with pytest.raises(SchedulerError):
        sched.schedule_at(1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sched = Scheduler()
    fired = []
    event = sched.schedule(1.0, fired.append, "x")
    event.cancel()
    sched.run()
    assert fired == []


def test_cancel_is_idempotent():
    sched = Scheduler()
    event = sched.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert sched.run() == 0


def test_run_until_stops_at_deadline():
    sched = Scheduler()
    fired = []
    sched.schedule(1.0, fired.append, "in")
    sched.schedule(10.0, fired.append, "out")
    sched.run_until(5.0)
    assert fired == ["in"]
    assert sched.now == 5.0


def test_run_until_includes_deadline_events():
    sched = Scheduler()
    fired = []
    sched.schedule(5.0, fired.append, "edge")
    sched.run_until(5.0)
    assert fired == ["edge"]


def test_run_until_backwards_rejected():
    sched = Scheduler()
    sched.run_until(10.0)
    with pytest.raises(SchedulerError):
        sched.run_until(5.0)


def test_events_scheduled_during_run_fire():
    sched = Scheduler()
    fired = []

    def chain():
        fired.append("first")
        sched.schedule(1.0, fired.append, "second")

    sched.schedule(1.0, chain)
    sched.run()
    assert fired == ["first", "second"]
    assert sched.now == 2.0


def test_run_guards_against_cascade():
    sched = Scheduler()

    def rearm():
        sched.schedule(0.0, rearm)

    sched.schedule(0.0, rearm)
    with pytest.raises(SchedulerError):
        sched.run(max_events=100)


def test_pending_count_ignores_cancelled():
    sched = Scheduler()
    sched.schedule(1.0, lambda: None)
    event = sched.schedule(2.0, lambda: None)
    event.cancel()
    assert sched.pending_count == 1


def test_step_returns_false_when_empty():
    assert Scheduler().step() is False


def test_dispatched_count():
    sched = Scheduler()
    for i in range(5):
        sched.schedule(i, lambda: None)
    sched.run()
    assert sched.dispatched_count == 5


def test_callback_args_passed_through():
    sched = Scheduler()
    seen = []
    sched.schedule(1.0, lambda a, b: seen.append((a, b)), 1, "two")
    sched.run()
    assert seen == [(1, "two")]


def test_clock_left_at_deadline_even_if_drained():
    sched = Scheduler()
    sched.schedule(1.0, lambda: None)
    sched.run_until(100.0)
    assert sched.now == 100.0


def test_pending_count_tracks_schedule_and_dispatch():
    sched = Scheduler()
    events = [sched.schedule(float(i), lambda: None) for i in range(4)]
    assert sched.pending_count == 4
    sched.step()
    assert sched.pending_count == 3
    events[1].cancel()
    assert sched.pending_count == 2
    sched.run()
    assert sched.pending_count == 0


def test_pending_count_double_cancel_counts_once():
    sched = Scheduler()
    keep = sched.schedule(1.0, lambda: None)
    victim = sched.schedule(2.0, lambda: None)
    victim.cancel()
    victim.cancel()
    victim.cancel()
    assert sched.pending_count == 1
    keep.cancel()
    assert sched.pending_count == 0


def test_pending_count_live_during_dispatch():
    sched = Scheduler()
    observed = []

    def chain(n):
        observed.append(sched.pending_count)
        if n:
            sched.schedule(1.0, chain, n - 1)

    sched.schedule(0.0, chain, 2)
    sched.run()
    # inside each callback the fired event is already popped
    assert observed == [0, 0, 0]
    assert sched.pending_count == 0


def test_pending_count_cancelled_events_drain_cleanly():
    sched = Scheduler()
    cancelled = [sched.schedule(1.0, lambda: None) for _ in range(3)]
    sched.schedule(2.0, lambda: None)
    for event in cancelled:
        event.cancel()
    assert sched.pending_count == 1
    sched.run()
    assert sched.pending_count == 0
    assert sched.dispatched_count == 1


def test_cancel_after_fire_is_harmless():
    # the paper's timer code keeps stale handles around; cancelling an
    # already-fired event must neither raise nor corrupt pending_count
    sched = Scheduler()
    fired = []
    event = sched.schedule(1.0, lambda: fired.append(True))
    sched.run()
    assert fired == [True]
    event.cancel()
    event.cancel()
    assert sched.pending_count == 0
    assert sched.dispatched_count == 1


def test_cancel_then_reschedule_same_instant():
    # cancel one event at t and immediately schedule a replacement at the
    # exact same instant: the replacement fires, the victim does not, and
    # pending_count stays exact throughout
    sched = Scheduler()
    fired = []
    victim = sched.schedule(5.0, lambda: fired.append("victim"))
    assert sched.pending_count == 1
    victim.cancel()
    assert sched.pending_count == 0
    replacement = sched.schedule(5.0, lambda: fired.append("replacement"))
    assert sched.pending_count == 1
    victim.cancel()  # double-cancel after replacement exists
    assert sched.pending_count == 1
    sched.run()
    assert fired == ["replacement"]
    assert sched.pending_count == 0
    assert not replacement.cancelled


def test_run_until_quiet_leaves_clock_at_last_event():
    sched = Scheduler()
    times = []
    for t in (1.0, 2.5, 4.0):
        sched.schedule_at(t, lambda t=t: times.append(t))
    fired = sched.run_until_quiet()
    assert fired == 3
    assert times == [1.0, 2.5, 4.0]
    assert sched.now == 4.0  # not advanced past the last event


def test_run_until_quiet_respects_max_time():
    sched = Scheduler()
    fired = []
    sched.schedule_at(1.0, lambda: fired.append(1))
    sched.schedule_at(10.0, lambda: fired.append(10))
    sched.run_until_quiet(max_time=5.0)
    assert fired == [1]
    assert sched.pending_count == 1  # the t=10 event survives


# ----------------------------------------------------------------------
# lazy-cancel tombstone compaction
# ----------------------------------------------------------------------

def test_compact_removes_tombstones():
    sched = Scheduler()
    live = [sched.schedule(float(i), lambda: None) for i in range(10)]
    for event in live[::2]:
        event.cancel()
    removed = sched.compact()
    assert removed == 5
    assert sched.compactions == 1
    assert sched.pending_count == 5
    # dispatch order of the survivors is unchanged
    assert [e.time for e in sched.pending_events()] == [1.0, 3.0, 5.0, 7.0, 9.0]


def test_compact_noop_without_tombstones():
    sched = Scheduler()
    sched.schedule(1.0, lambda: None)
    assert sched.compact() == 0
    assert sched.compactions == 0


def test_cancel_storm_auto_compacts():
    from repro.netsim.scheduler import COMPACT_THRESHOLD
    sched = Scheduler()
    events = [sched.schedule(float(i), lambda: None)
              for i in range(COMPACT_THRESHOLD + 2)]
    for event in events:
        event.cancel()
    # the storm crossed the threshold while tombstones outnumbered the
    # few live entries, so the heap compacted itself mid-storm
    assert sched.compactions >= 1
    assert sched.pending_count == 0


def test_auto_compact_waits_for_majority_dead():
    from repro.netsim.scheduler import COMPACT_THRESHOLD
    sched = Scheduler()
    keep = COMPACT_THRESHOLD * 3
    for i in range(keep):
        sched.schedule(float(i), lambda: None)
    doomed = [sched.schedule(float(keep + i), lambda: None)
              for i in range(COMPACT_THRESHOLD + 1)]
    for event in doomed:
        event.cancel()
    # tombstones exceed the threshold but live entries still dominate:
    # no compaction, the dead entries pop lazily instead
    assert sched.compactions == 0
    sched.run()
    assert sched.dispatched_count == keep


def test_peek_entry_skips_cancelled_and_preserves_order():
    sched = Scheduler()
    first = sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    first.cancel()
    entry = sched.peek_entry()
    assert entry.time == 2.0
    assert sched.peek_entry() is entry  # peeking does not consume
    assert Scheduler().peek_entry() is None


def test_step_dispatches_exactly_one_event():
    sched = Scheduler()
    fired = []
    sched.schedule(1.0, lambda: fired.append(1))
    sched.schedule(2.0, lambda: fired.append(2))
    assert sched.step() is True
    assert fired == [1]
    assert sched.now == 1.0


def test_clear_empties_the_queue_and_cuts_every_handle():
    sched = Scheduler()
    fired = []
    kept = sched.schedule(1.0, fired.append, "a")
    dropped = sched.schedule(2.0, fired.append, "b")
    dropped.cancel()
    sched.clear()
    assert sched.pending_count == 0
    assert sched.run() == 0 and fired == []
    # a handle held elsewhere reaches nothing of the world any more
    assert kept.cancelled and kept.callback is None and kept.args is None
    kept.cancel()
    assert sched.pending_count == 0
