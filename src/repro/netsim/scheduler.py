"""Virtual-time discrete-event scheduler.

The scheduler is the single source of time in the simulator.  All protocol
timers, link latencies, and fault-injection delays are events on one heap,
which makes every experiment deterministic: two runs with the same inputs
produce identical event orderings.

Events scheduled for the same instant fire in the order they were scheduled
(a monotonically increasing sequence number breaks ties), which mirrors the
FIFO behaviour of a real event loop and keeps traces stable.

Hot-path layout: the heap stores plain ``(time, seq, callback, args,
event)`` tuples rather than :class:`Event` objects, so every sift
comparison during push/pop is a C-level tuple comparison (the unique
``seq`` guarantees the comparison never reaches the non-orderable tail).
:class:`Event` survives purely as the cancellation handle returned to
callers; it never participates in heap ordering.  :meth:`run`,
:meth:`run_until` and :meth:`run_until_quiet` share one dispatch loop,
:meth:`Scheduler._drain`, which pops and dispatches inline instead of
going through :meth:`step` per event; they differ only in the time limit
they pass it and in where they leave the clock.  :meth:`Scheduler.clear`
empties the queue when a run ends.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Any, Callable, List, Optional, Tuple

_heappush = heapq.heappush
_heappop = heapq.heappop
_heapify = heapq.heapify
_new_event = object.__new__

#: lazy-cancel tombstones tolerated on the heap before :meth:`Scheduler
#: .compact` runs automatically (and only when tombstones also outnumber
#: live entries -- a large busy heap is not worth rebuilding)
COMPACT_THRESHOLD = 256


class SchedulerError(Exception):
    """Raised on scheduler misuse (negative delays, running an empty loop)."""


class CapturedWorldError(RuntimeError):
    """A world a checkpoint holds as its snapshot was run: only forks of
    it may run, since every later fork would start from the moved world
    (see :meth:`repro.core.checkpoint.Checkpoint.capture`)."""

    def __init__(self, label: str):
        super().__init__(f"this world is the snapshot of checkpoint "
                         f"{label!r}: run a fork of it instead")


class SchedulerClock:
    """A ``() -> now`` callable reading a scheduler's virtual clock.

    Equivalent to ``lambda: scheduler.now`` but an instance of a class,
    so anything holding one (trace recorders, congestion controllers)
    deep-copies cleanly: ``copy.deepcopy`` treats functions as atomic
    values, and a lambda closing over a scheduler would keep pointing at
    the *original* scheduler inside a checkpointed fork.
    """

    __slots__ = ("scheduler",)

    def __init__(self, scheduler: "Scheduler"):
        self.scheduler = scheduler

    def __call__(self) -> float:
        return self.scheduler.now

    def __repr__(self) -> str:
        return f"SchedulerClock({self.scheduler!r})"


class Event:
    """A scheduled callback's cancellation handle.

    Returned by :meth:`Scheduler.schedule` so callers can cancel it later.
    Cancellation is lazy: the heap entry stays put and is skipped when it
    surfaces, which keeps cancel O(1).  Cancelling an event that has
    already fired (or was already cancelled) is a harmless no-op, so
    callers may keep stale handles around without corrupting the
    scheduler's pending count.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "dispatched",
                 "_scheduler")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any],
                 args: tuple, scheduler: "Optional[Scheduler]" = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.dispatched = False
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once,
        and safe to call after the event has already fired."""
        if self.cancelled or self.dispatched:
            return
        self.cancelled = True
        scheduler = self._scheduler
        if scheduler is None:
            return
        # Long fuzz runs cancel events far faster than the heap surfaces
        # them (every restarted timer leaves one behind), so without
        # compaction the heap grows without bound and every push/pop pays
        # for dead entries.  Compaction triggers once tombstones exceed
        # COMPACT_THRESHOLD *and* outnumber live entries, keeping the
        # rebuild amortized O(1) per cancellation.
        scheduler._cancelled += 1
        scheduler._tombstones += 1
        if (scheduler._tombstones > COMPACT_THRESHOLD
                and scheduler._tombstones * 2 > len(scheduler._heap)):
            scheduler.compact()

    def __repr__(self) -> str:
        if self.cancelled:
            status = "cancelled"
        elif self.dispatched:
            status = "fired"
        else:
            status = "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.6f}, {name}, {status})"


#: heap entry shape: (time, seq, callback, args, handle)
_HeapEntry = Tuple[float, int, Callable[..., Any], tuple, Event]


class Scheduler:
    """Priority-queue event loop over a virtual clock.

    The clock only advances when events are dispatched; there is no relation
    to wall-clock time.  A ``max_events`` safety valve guards against
    accidental infinite event cascades (e.g. two protocols ping-ponging
    messages with zero latency).
    """

    #: the label of the checkpoint that holds this world as its snapshot;
    #: a run call (:meth:`step`, :meth:`_drain`) then raises
    #: :class:`CapturedWorldError`
    captured: Optional[str] = None

    def __init__(self, start_time: float = 0.0):
        #: current virtual time in seconds; a plain attribute read on
        #: every hop, written only by :meth:`step`, :meth:`_drain` and
        #: :meth:`run_until`
        self.now = start_time
        self._heap: List[_HeapEntry] = []
        self._next_seq = 0
        self._dispatched = 0
        self._scheduled = 0
        self._cancelled = 0
        self._tombstones = 0
        self.compactions = 0

    @property
    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still on the heap.

        Derived from three live counters (scheduled/cancelled/dispatched)
        rather than a heap scan, so polling it inside an event loop stays
        O(1) and the dispatch loop never has to maintain a fourth counter.
        """
        return self._scheduled - self._cancelled - self._dispatched

    @property
    def dispatched_count(self) -> int:
        """Total number of events dispatched since construction."""
        return self._dispatched

    def compact(self) -> int:
        """Drop cancelled entries from the heap.  Returns how many went.

        The heap list is filtered *in place* (slice assignment, then
        heapify) so ``run*`` loops holding a local reference to the list
        keep seeing the live heap even when a callback's cancellation
        triggers compaction mid-run.
        """
        if not self._tombstones:
            return 0
        removed = self._tombstones
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[4].cancelled]
        _heapify(heap)
        self._tombstones = 0
        self.compactions += 1
        return removed

    def clear(self) -> None:
        """End the world's run: empty the queue.

        Every pending event is cancelled and loses its callback and
        arguments, so a handle something still holds (a timer's armed
        event, a link's in-flight delivery) no longer reaches back into
        the world, and the world's cycles through the queue are gone.
        """
        for _time, _seq, _callback, _args, event in self._heap:
            if not event.cancelled:
                event.cancelled = True
                self._cancelled += 1
            event.callback = event.args = None
        self._heap.clear()
        self._tombstones = 0

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulerError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        seq = self._next_seq
        self._next_seq = seq + 1
        # Event(time, seq, callback, args, scheduler=self), slots filled
        # without running __init__ (here and in schedule_at)
        event = _new_event(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = event.dispatched = False
        event._scheduler = self
        _heappush(self._heap, (time, seq, callback, args, event))
        self._scheduled += 1
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute virtual time."""
        if time < self.now:
            raise SchedulerError(
                f"cannot schedule at t={time} which is before now={self.now}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        event = _new_event(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = event.dispatched = False
        event._scheduler = self
        _heappush(self._heap, (time, seq, callback, args, event))
        self._scheduled += 1
        return event

    def _live_head(self) -> Optional[_HeapEntry]:
        """The first heap entry that is not cancelled, or ``None`` if idle.

        Cancelled entries surfacing at the top are popped on the way.
        """
        heap = self._heap
        while heap and heap[0][4].cancelled:
            _heappop(heap)
            self._tombstones -= 1
        return heap[0] if heap else None

    def peek_entry(self) -> Optional[Event]:
        """The next pending event's handle, without dispatching it.

        The delivery-order explorer uses this to classify (and possibly
        cancel or reschedule) the event that would fire next before
        deciding to :meth:`step`.
        """
        head = self._live_head()
        return None if head is None else head[4]

    def pending_events(self) -> List[Event]:
        """Live (uncancelled) event handles in firing order.

        A diagnostic/exploration view -- O(n log n) -- not a hot path.
        """
        live = [entry for entry in self._heap if not entry[4].cancelled]
        return [entry[4] for entry in sorted(live)]

    def step(self) -> bool:
        """Dispatch the single next event.  Returns False if none remained."""
        if self.captured is not None:
            raise CapturedWorldError(self.captured)
        if self._live_head() is None:
            return False
        time, _seq, callback, args, event = _heappop(self._heap)
        event.dispatched = True
        self.now = time
        self._dispatched += 1
        callback(*args)
        return True

    def _drain(self, limit: float, max_events: int) -> int:
        """Dispatch events due at or before ``limit`` in (time, seq)
        order; returns how many fired.

        The one dispatch loop behind every ``run*`` method.  The clock
        is left at the last dispatched event.  Raises
        :class:`SchedulerError` once ``max_events`` have fired.
        """
        if self.captured is not None:
            raise CapturedWorldError(self.captured)
        heap = self._heap
        pop = _heappop
        fired = 0
        while heap and heap[0][0] <= limit:
            time, _seq, callback, args, event = pop(heap)
            if event.cancelled:
                self._tombstones -= 1
                continue
            event.dispatched = True
            self.now = time
            self._dispatched += 1
            callback(*args)
            fired += 1
            if fired >= max_events:
                raise SchedulerError(
                    f"exceeded max_events={max_events}; probable event cascade"
                )
        return fired

    def run(self, max_events: int = 1_000_000) -> int:
        """Run until the heap drains.  Returns the number of events fired."""
        return self._drain(inf, max_events)

    def run_until(self, deadline: float, max_events: int = 1_000_000) -> int:
        """Run events up to and including ``deadline``, then set now=deadline.

        Events scheduled exactly at the deadline do fire.  The clock is left
        at the deadline even if the heap drained earlier, so subsequent
        relative scheduling behaves as if time genuinely passed.
        """
        if deadline < self.now:
            raise SchedulerError(
                f"deadline {deadline} is before current time {self.now}"
            )
        fired = self._drain(deadline, max_events)
        self.now = deadline
        return fired

    def run_until_quiet(self, max_time: float = 1e9,
                        max_events: int = 1_000_000) -> int:
        """Run until no events at or before ``max_time`` remain.

        Unlike :meth:`run_until`, the clock is left at the last dispatched
        event rather than advanced to ``max_time``, matching "run until the
        experiment quiesces" semantics.  Returns the number of events fired.
        """
        return self._drain(max_time, max_events)

    def __repr__(self) -> str:
        return f"Scheduler(now={self.now:.6f}, pending={self.pending_count})"
