"""GMP timer table, including the inverted-unregister bug.

The protocol "uses timers extensively.  There are timers set for sending
and receiving heartbeats, sending proclaim messages, joining groups, and
preparing to commit new groups, among others."

The paper's Experiment 4 found: "In the procedure [that unregisters
timeouts], if an argument is NULL, all timeouts of the same type are
unregistered.  If the argument is non-NULL, only the first is
unregistered.  It worked the opposite of how it should have because of a
logic error."

:class:`GmpTimerTable` implements both semantics behind the
``inverted_unregister`` flag:

- **correct**: ``unregister(kind)`` removes *all* timers of that kind;
  ``unregister(kind, key)`` removes just that one;
- **buggy**: ``unregister(kind)`` removes only the *first-registered*
  timer of the kind; ``unregister(kind, key)`` removes all of the kind.

The consequence the PFI tool observed -- a heartbeat-expect timer left
armed while the daemon was IN_TRANSITION -- falls out of the buggy
``unregister("heartbeat_expect")`` call removing only one of several
per-member timers.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, List, Optional, Tuple

from repro.netsim.scheduler import Scheduler
from repro.netsim.timer import Timer


class GmpTimerTable:
    """Keyed timers with correct or historically buggy unregistration."""

    def __init__(self, scheduler: Scheduler, *, inverted_unregister: bool = False):
        self._scheduler = scheduler
        self.inverted_unregister = inverted_unregister
        self._timers: "OrderedDict[Tuple[str, Hashable], Timer]" = OrderedDict()

    def register(self, kind: str, key: Hashable, delay: float,
                 callback: Callable[[], None]) -> Timer:
        """Create (or re-arm) the timer for ``(kind, key)``.

        Re-registering an existing timer keeps its position in the table:
        "the first" timer the buggy unregister removes is the first one
        *created*, not the most recently re-armed -- matching a timer
        table that updates entries in place.
        """
        timer = self._timers.get((kind, key))
        if timer is None or not timer.rearm(delay, callback):
            timer = self._fresh(kind, key, delay, callback)
        return timer

    def rearm(self, kind: str, key: Hashable, delay: float) -> bool:
        """Re-arm the timer registered for ``(kind, key)`` in place, with
        the callback it already has; False, arming nothing, when none is
        registered (the caller then registers one with :meth:`register`).

        For a caller whose callback for a key never changes, this is
        :meth:`register` without building the callback again.  A timer
        whose expiry the schedule explorer cancelled behind its back is
        replaced in its slot, as :meth:`register` replaces it.
        """
        timer = self._timers.get((kind, key))
        if timer is None:
            return False
        if not timer.rearm(delay):
            self._fresh(kind, key, delay, timer.callback)
        return True

    def _fresh(self, kind: str, key: Hashable, delay: float,
               callback: Callable[[], None]) -> Timer:
        timer = Timer(self._scheduler, callback, name=f"{kind}/{key}")
        self._timers[(kind, key)] = timer  # same slot, same order
        timer.start(delay)
        return timer

    def unregister(self, kind: str, key: Optional[Hashable] = None) -> int:
        """Remove timers of ``kind`` (all, or just ``key``'s).

        Under ``inverted_unregister`` the two cases are swapped, exactly
        like the bug the paper found.  Returns the number removed.
        """
        remove_all = key is None
        if self.inverted_unregister:
            remove_all = not remove_all
        if remove_all:
            victims = [entry for entry in self._timers if entry[0] == kind]
        else:
            if key is None:
                # buggy path: NULL argument removes only the first of kind
                victims = [entry for entry in self._timers
                           if entry[0] == kind][:1]
            else:
                victims = [(kind, key)] if (kind, key) in self._timers else []
        for entry in victims:
            self._timers.pop(entry).stop()
        return len(victims)

    def armed(self, kind: str, key: Optional[Hashable] = None) -> bool:
        """Is any matching timer armed?"""
        if key is not None:
            timer = self._timers.get((kind, key))
            return timer is not None and timer.armed
        return any(t.armed for (k, _), t in self._timers.items() if k == kind)

    def armed_kinds(self) -> List[str]:
        """Sorted distinct kinds with at least one armed timer."""
        return sorted({k for (k, _), t in self._timers.items() if t.armed})

    def armed_keys(self, kind: str) -> List[Hashable]:
        """Keys of armed timers of one kind, in registration order."""
        return [key for (k, key), t in self._timers.items()
                if k == kind and t.armed]

    def stop_all(self) -> None:
        """Disarm everything (daemon shutdown)."""
        for timer in self._timers.values():
            timer.stop()
        self._timers.clear()

    def __len__(self) -> int:
        return len(self._timers)
