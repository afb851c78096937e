"""Unit tests for Timer and the keyed timer table built on it.

The table is :class:`repro.gmp.timers.GmpTimerTable`, the only one; these
cases pin its correct (non-inverted) semantics.
"""

import pytest

from repro.gmp.timers import GmpTimerTable
from repro.netsim.scheduler import Scheduler
from repro.netsim.timer import Timer


@pytest.fixture
def sched():
    return Scheduler()


class TestTimer:
    def test_fires_after_delay(self, sched):
        fired = []
        timer = Timer(sched, lambda: fired.append(sched.now))
        timer.start(2.0)
        sched.run()
        assert fired == [2.0]

    def test_stop_prevents_firing(self, sched):
        fired = []
        timer = Timer(sched, lambda: fired.append(1))
        timer.start(2.0)
        timer.stop()
        sched.run()
        assert fired == []

    def test_restart_cancels_previous_deadline(self, sched):
        fired = []
        timer = Timer(sched, lambda: fired.append(sched.now))
        timer.start(2.0)
        sched.run_until(1.0)
        timer.start(5.0)
        sched.run()
        assert fired == [6.0]

    def test_armed_reflects_state(self, sched):
        timer = Timer(sched, lambda: None)
        assert not timer.armed
        timer.start(1.0)
        assert timer.armed
        sched.run()
        assert not timer.armed

    def test_deadline(self, sched):
        timer = Timer(sched, lambda: None)
        assert timer.deadline is None
        timer.start(3.0)
        assert timer.deadline == 3.0

    def test_expiry_count(self, sched):
        timer = Timer(sched, lambda: None)
        for _ in range(3):
            timer.start(1.0)
            sched.run()
        assert timer.expiry_count == 3

    def test_stop_idempotent(self, sched):
        timer = Timer(sched, lambda: None)
        timer.stop()
        timer.stop()
        assert not timer.armed

    def test_can_restart_from_callback(self, sched):
        fired = []

        def callback():
            fired.append(sched.now)
            if len(fired) < 3:
                timer.start(1.0)

        timer = Timer(sched, callback)
        timer.start(1.0)
        sched.run()
        assert fired == [1.0, 2.0, 3.0]


class TestTimerTable:
    def test_register_and_fire(self, sched):
        table = GmpTimerTable(sched)
        fired = []
        table.register("hb", "a", 1.0, lambda: fired.append("a"))
        sched.run()
        assert fired == ["a"]

    def test_register_replaces_existing(self, sched):
        table = GmpTimerTable(sched)
        fired = []
        table.register("hb", "a", 1.0, lambda: fired.append("old"))
        table.register("hb", "a", 2.0, lambda: fired.append("new"))
        sched.run()
        assert fired == ["new"]

    def test_unregister_single(self, sched):
        table = GmpTimerTable(sched)
        fired = []
        table.register("hb", "a", 1.0, lambda: fired.append("a"))
        table.register("hb", "b", 1.0, lambda: fired.append("b"))
        assert table.unregister("hb", "a") == 1
        sched.run()
        assert fired == ["b"]

    def test_unregister_all_of_kind(self, sched):
        table = GmpTimerTable(sched)
        fired = []
        table.register("hb", "a", 1.0, lambda: fired.append("a"))
        table.register("hb", "b", 1.0, lambda: fired.append("b"))
        table.register("other", "c", 1.0, lambda: fired.append("c"))
        assert table.unregister("hb") == 2
        sched.run()
        assert fired == ["c"]

    def test_unregister_missing_returns_zero(self, sched):
        table = GmpTimerTable(sched)
        assert table.unregister("hb", "nope") == 0
        assert table.unregister("hb") == 0

    def test_restart(self, sched):
        # registering an existing (kind, key) again re-arms it
        table = GmpTimerTable(sched)
        fired = []
        table.register("hb", "a", 1.0, lambda: fired.append(sched.now))
        table.register("hb", "a", 5.0, lambda: fired.append(sched.now))
        sched.run()
        assert fired == [5.0]

    def test_armed_queries(self, sched):
        table = GmpTimerTable(sched)
        table.register("hb", "a", 1.0, lambda: None)
        assert table.armed("hb")
        assert table.armed("hb", "a")
        assert not table.armed("hb", "b")
        assert not table.armed("other")

    def test_armed_kinds(self, sched):
        table = GmpTimerTable(sched)
        table.register("hb", "a", 1.0, lambda: None)
        table.register("mc", "x", 1.0, lambda: None)
        assert table.armed_kinds() == ["hb", "mc"]

    def test_stop_all(self, sched):
        table = GmpTimerTable(sched)
        fired = []
        table.register("hb", "a", 1.0, lambda: fired.append(1))
        table.register("mc", "b", 1.0, lambda: fired.append(2))
        table.stop_all()
        sched.run()
        assert fired == []
        assert len(table) == 0
