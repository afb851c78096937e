"""Restartable timers built on the scheduler.

Protocol implementations (TCP retransmission, GMP heartbeats) want the
classic start/stop/restart timer idiom rather than raw event scheduling.
:class:`Timer` provides it.  The keyed collection of timers the GMP daemon
keeps is :class:`repro.gmp.timers.GmpTimerTable`, built on it.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

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
        if self._event is not None:
            self.stop()
        self._event = self._scheduler.schedule(delay, self._fire)

    def stop(self) -> None:
        """Disarm the timer.  A stopped timer never fires."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def callback(self) -> Callable[..., Any]:
        """What the timer calls (with its ``args``) when it fires."""
        return self._callback

    def rearm(self, delay: float,
              callback: Optional[Callable[..., Any]] = None) -> bool:
        """Stop, then :meth:`start` -- with a new callback, when one is
        given -- a table entry updated in place instead of replaced by a
        new timer.

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
        if callback is not None:
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

