"""Unit tests for the GMP timer table, correct and buggy semantics."""

import pytest

from repro.gmp.timers import GmpTimerTable
from repro.netsim.scheduler import Scheduler


@pytest.fixture
def sched():
    return Scheduler()


class TestCorrectSemantics:
    def test_unregister_kind_removes_all(self, sched):
        table = GmpTimerTable(sched)
        fired = []
        for key in ("a", "b", "c"):
            table.register("expect", key, 1.0, lambda k=key: fired.append(k))
        assert table.unregister("expect") == 3
        sched.run()
        assert fired == []

    def test_unregister_key_removes_one(self, sched):
        table = GmpTimerTable(sched)
        fired = []
        for key in ("a", "b"):
            table.register("expect", key, 1.0, lambda k=key: fired.append(k))
        assert table.unregister("expect", "a") == 1
        sched.run()
        assert fired == ["b"]


class TestBuggySemantics:
    """The inverted logic of paper Experiment 4."""

    def test_null_arg_removes_only_first_registered(self, sched):
        table = GmpTimerTable(sched, inverted_unregister=True)
        fired = []
        for key in ("self", "leader", "other"):
            table.register("expect", key, 1.0, lambda k=key: fired.append(k))
        assert table.unregister("expect") == 1
        sched.run()
        # first-registered ("self") was removed; the rest survive and fire
        assert fired == ["leader", "other"]

    def test_keyed_arg_removes_all_of_kind(self, sched):
        table = GmpTimerTable(sched, inverted_unregister=True)
        fired = []
        for key in ("a", "b"):
            table.register("expect", key, 1.0, lambda k=key: fired.append(k))
        assert table.unregister("expect", "a") == 2
        sched.run()
        assert fired == []

    def test_rearm_keeps_registration_order(self, sched):
        """Re-arming must not change which timer is 'first'."""
        table = GmpTimerTable(sched, inverted_unregister=True)
        fired = []
        table.register("expect", "self", 1.0, lambda: fired.append("self"))
        table.register("expect", "leader", 1.0, lambda: fired.append("leader"))
        # heartbeats re-arm both repeatedly, leader last
        table.register("expect", "self", 2.0, lambda: fired.append("self"))
        table.register("expect", "leader", 2.0, lambda: fired.append("leader"))
        table.unregister("expect")  # buggy: removes only the FIRST created
        sched.run()
        assert fired == ["leader"]


class TestQueries:
    def test_armed_keys_in_order(self, sched):
        table = GmpTimerTable(sched)
        table.register("expect", 3, 1.0, lambda: None)
        table.register("expect", 1, 1.0, lambda: None)
        assert table.armed_keys("expect") == [3, 1]

    def test_armed_kinds(self, sched):
        table = GmpTimerTable(sched)
        table.register("expect", "a", 1.0, lambda: None)
        table.register("mc", "x", 1.0, lambda: None)
        assert table.armed_kinds() == ["expect", "mc"]

    def test_stop_all(self, sched):
        table = GmpTimerTable(sched)
        fired = []
        table.register("expect", "a", 1.0, lambda: fired.append(1))
        table.stop_all()
        sched.run()
        assert fired == []
        assert len(table) == 0

    def test_register_replaces_callback(self, sched):
        table = GmpTimerTable(sched)
        fired = []
        table.register("t", "k", 1.0, lambda: fired.append("old"))
        table.register("t", "k", 1.0, lambda: fired.append("new"))
        sched.run()
        assert fired == ["new"]

    def test_reregister_rearms_the_same_timer_in_place(self, sched):
        table = GmpTimerTable(sched)
        fired = []
        first = table.register("t", "k", 1.0, lambda: fired.append("old"))
        again = table.register("t", "k", 2.0, lambda: fired.append("new"))
        assert again is first                   # no new Timer
        assert sched.pending_count == 1         # the old deadline is cancelled
        sched.run()
        assert fired == ["new"]
        assert table.register("t", "k", 1.0, lambda: None) is first  # idle too

    def test_deferred_expiry_keeps_its_timer_and_callback(self, sched):
        # what `repro explore`'s defer does: cancel the pending event and
        # schedule the same bound `_fire` later.  That expiry belongs to
        # the timer it was armed on, so a re-register meanwhile must arm
        # a new timer (and stay cancellable) instead of adopting the old
        table = GmpTimerTable(sched)
        fired = []
        first = table.register("t", "k", 1.0, lambda: fired.append("old"))
        event = sched.peek_entry()
        event.cancel()
        sched.schedule_at(3.0, event.callback, *event.args)
        second = table.register("t", "k", 1.0, lambda: fired.append("new"))
        assert second is not first
        third = table.register("t", "k", 4.0, lambda: fired.append("newer"))
        assert third is second
        sched.run()
        assert fired == ["old", "newer"]
