"""Restartable timers built on the scheduler.

Protocol implementations (TCP retransmission, GMP heartbeats) want the
classic start/stop/restart timer idiom rather than raw event scheduling.
:class:`Timer` provides it; :class:`TimerTable` manages a keyed collection of
timers, which is the shape the GMP daemon uses ("timers set for sending and
receiving heartbeats, sending proclaim messages, joining groups ...").
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.netsim.scheduler import Event, Scheduler


class Timer:
    """A one-shot timer that may be started, stopped, and restarted.

    The callback fires once per start; restarting an armed timer cancels the
    previous deadline.  ``expiry_count`` tracks how many times the timer has
    actually fired, which experiments use to count retransmissions.

    ``args`` are passed to the callback on every expiry.  Prefer a bound
    method plus ``args`` over a closure: closures are atomic under
    ``copy.deepcopy``, so a timer holding one would fire into the original
    world after a checkpoint fork.
    """

    __slots__ = ("_scheduler", "_callback", "_args", "name", "_event",
                 "expiry_count")

    def __init__(self, scheduler: Scheduler, callback: Callable[..., Any],
                 name: str = "timer", *, args: Tuple = ()):
        self._scheduler = scheduler
        self._callback = callback
        self._args = tuple(args)
        self.name = name
        self._event: Optional[Event] = None
        self.expiry_count = 0

    @property
    def armed(self) -> bool:
        """True if the timer is currently counting down."""
        return self._event is not None and not self._event.cancelled

    @property
    def deadline(self) -> Optional[float]:
        """Virtual time at which the timer will fire, or None if idle."""
        if self.armed:
            return self._event.time
        return None

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now."""
        self.stop()
        self._event = self._scheduler.schedule(delay, self._fire)

    def stop(self) -> None:
        """Disarm the timer.  A stopped timer never fires."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def rearm(self, delay: float, callback: Callable[[], Any]) -> bool:
        """Stop, then :meth:`start` with a new callback -- a table entry
        updated in place instead of replaced by a new timer.

        Returns False, with the timer stopped and not re-armed, when its
        pending event was cancelled behind its back: the schedule
        explorer defers an expiry by cancelling the event and scheduling
        ``_fire`` again, and that expiry still belongs to this timer, so
        the caller has to arm a new one.
        """
        event = self._event
        if event is not None:
            self._event = None
            if event.cancelled:
                return False
            event.cancel()
        self._callback = callback
        self._event = self._scheduler.schedule(delay, self._fire)
        return True

    def _fire(self) -> None:
        self._event = None
        self.expiry_count += 1
        self._callback(*self._args)

    def __repr__(self) -> str:
        state = f"fires@{self._event.time:.3f}" if self.armed else "idle"
        return f"Timer({self.name}, {state}, expiries={self.expiry_count})"


class TimerTable:
    """A registry of timers keyed by ``(kind, key)``.

    ``kind`` is a timer category ("heartbeat_expect", "commit_wait", ...);
    ``key`` distinguishes instances within a category (e.g. the peer the
    heartbeat is expected from).  This mirrors the timer bookkeeping in the
    paper's GMP implementation, including the unregister-by-kind operation
    whose inverted logic was one of the bugs the PFI tool uncovered (the
    buggy variant itself lives in :mod:`repro.gmp.timers`).
    """

    def __init__(self, scheduler: Scheduler):
        self._scheduler = scheduler
        self._timers: Dict[Tuple[str, Hashable], Timer] = {}

    def register(self, kind: str, key: Hashable, delay: float,
                 callback: Callable[[], Any]) -> Timer:
        """Create (or replace) and start the timer for ``(kind, key)``."""
        self.unregister(kind, key)
        timer = Timer(self._scheduler, callback, name=f"{kind}/{key}")
        self._timers[(kind, key)] = timer
        timer.start(delay)
        return timer

    def unregister(self, kind: str, key: Optional[Hashable] = None) -> int:
        """Stop and remove timers.

        With ``key=None`` every timer of the given ``kind`` is removed; with
        a key only that single timer is removed.  Returns the number of
        timers removed.
        """
        if key is not None:
            timer = self._timers.pop((kind, key), None)
            if timer is None:
                return 0
            timer.stop()
            return 1
        victims = [entry for entry in self._timers if entry[0] == kind]
        for entry in victims:
            self._timers.pop(entry).stop()
        return len(victims)

    def restart(self, kind: str, key: Hashable, delay: float) -> bool:
        """Re-arm an existing timer.  Returns False if it does not exist."""
        timer = self._timers.get((kind, key))
        if timer is None:
            return False
        timer.start(delay)
        return True

    def get(self, kind: str, key: Hashable) -> Optional[Timer]:
        """Look up the timer for ``(kind, key)``, or None."""
        return self._timers.get((kind, key))

    def armed(self, kind: str, key: Optional[Hashable] = None) -> bool:
        """True if any matching timer is armed (any key when key=None)."""
        if key is not None:
            timer = self._timers.get((kind, key))
            return timer is not None and timer.armed
        return any(
            timer.armed for (k, _), timer in self._timers.items() if k == kind
        )

    def armed_kinds(self) -> List[str]:
        """Sorted list of distinct kinds that currently have an armed timer."""
        kinds = {k for (k, _), timer in self._timers.items() if timer.armed}
        return sorted(kinds)

    def stop_all(self) -> None:
        """Disarm and drop every timer in the table."""
        for timer in self._timers.values():
            timer.stop()
        self._timers.clear()

    def __len__(self) -> int:
        return len(self._timers)

    def __repr__(self) -> str:
        return f"TimerTable({len(self._timers)} timers, armed={self.armed_kinds()})"
