"""Retransmission machinery: tracked segments, backoff, fault counters.

One :class:`RetransmissionManager` per connection tracks every segment
consuming sequence space, runs the single retransmission timer (oldest
outstanding segment, BSD style), applies exponential backoff through the
estimator's ``rto_for(shift)``, and decides when to give up.

Two give-up disciplines coexist, selected by the vendor profile:

- **per-segment count** (BSD): the connection dies when one segment has
  been retransmitted ``max_retransmits`` (12) times;
- **global fault counter** (Solaris, the paper's Experiment 2 discovery):
  every retransmission increments a per-connection counter that is only
  reset by an *unambiguous* ACK (one acknowledging a segment never
  retransmitted).  The connection dies when the counter reaches the
  threshold (9), which is why a 35 s-delayed ACK for segment m1 left only
  three attempts for m2.

Karn's rule lives here too: RTT samples are taken only from segments never
retransmitted, and the backoff shift is retained until a valid sample's
ACK arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.netsim.scheduler import Scheduler
from repro.netsim.timer import Timer
from repro.netsim.trace import TraceRecorder
from repro.tcp.rtt import RTTEstimatorBase
from repro.tcp.segment import FIN, SEQ_HALF, SEQ_MOD, SEQ_SPACE, SYN, Segment
from repro.tcp.vendors import VendorProfile
from repro.netsim import kinds as K


@dataclass
class TrackedSegment:
    """Bookkeeping for one outstanding segment."""

    segment: Segment
    sent_at: float
    retransmit_count: int = 0

    @property
    def seq(self) -> int:
        return self.segment.seq

    @property
    def end_seq(self) -> int:
        return self.segment.end_seq


class RetransmissionManager:
    """Tracks unacknowledged segments and drives retransmission."""

    def __init__(self, scheduler: Scheduler, estimator: RTTEstimatorBase,
                 profile: VendorProfile, *,
                 retransmit: Callable[[Segment], None],
                 give_up: Callable[[TrackedSegment], None],
                 trace: Optional[TraceRecorder] = None,
                 name: str = ""):
        self._scheduler = scheduler
        self.estimator = estimator
        self._profile = profile
        self._retransmit_cb = retransmit
        self._give_up_cb = give_up
        self._trace = trace
        self._name = name
        self._queue: List[TrackedSegment] = []
        self._timer = Timer(scheduler, self._on_timeout, name=f"rto/{name}")
        self.backoff_shift = 0
        self.global_faults = 0
        self.total_retransmissions = 0
        self._dead = False
        #: optional hook invoked on every timeout-driven retransmission
        #: (congestion control listens here)
        self.on_timeout_event = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Number of unacknowledged tracked segments."""
        return len(self._queue)

    @property
    def oldest(self) -> Optional[TrackedSegment]:
        """The segment the retransmission timer is protecting."""
        return self._queue[0] if self._queue else None

    def current_rto(self) -> float:
        """The timeout that would be used right now."""
        return self.estimator.rto_for(self.backoff_shift)

    # ------------------------------------------------------------------
    # tracking
    # ------------------------------------------------------------------

    def track(self, segment: Segment) -> None:
        """Register a newly transmitted sequence-consuming segment."""
        if self._dead:
            return
        self._queue.append(TrackedSegment(segment, self._scheduler.now))
        if not self._timer.armed:
            self._timer.start(self.current_rto())

    def on_ack(self, ack: int) -> bool:
        """Process a cumulative ACK.  Returns True if new data was acked."""
        if self._dead:
            return False
        # one pass, reading each segment's fields here: a send filter's
        # msg_set_field may have rewritten a tracked segment in place, so
        # its end is computed per ACK, never cached at track()
        acked: List[TrackedSegment] = []
        kept: List[TrackedSegment] = []
        unambiguous = True
        for tracked in self._queue:
            seg = tracked.segment
            end = (seg.seq + len(seg.payload)
                   + SEQ_SPACE[seg.flags & (SYN | FIN)]) % SEQ_MOD
            if end == ack or (end - ack) % SEQ_MOD > SEQ_HALF:  # end <= ack
                acked.append(tracked)
                if tracked.retransmit_count:
                    unambiguous = False
            else:
                kept.append(tracked)
        if not acked:
            return False
        self._queue = kept
        first = acked[0]
        if first.retransmit_count == 0:
            # Karn: only sample segments never retransmitted
            self.estimator.sample(self._scheduler.now - first.sent_at)
        elif not self.estimator.karn:
            # pre-Karn estimators sample ambiguous ACKs against the most
            # recent transmission (sent_at is updated on retransmit),
            # systematically underestimating the true RTT
            self.estimator.sample(self._scheduler.now - first.sent_at)
        if unambiguous or not self.estimator.karn:
            # Karn: keep the backoff until a valid sample.  Pre-Karn
            # stacks reset it on any acknowledgement.
            self.backoff_shift = 0
        if unambiguous:
            # The Solaris-style global fault counter resets only on an
            # unambiguous acknowledgement -- the paper's Experiment 2
            # discovery hinges on this asymmetry.
            self.global_faults = 0
        if self._queue:
            self._timer.start(self.current_rto())
        else:
            self._timer.stop()
        return True

    def stop(self) -> None:
        """Halt the manager (connection closing)."""
        self._dead = True
        self._timer.stop()
        self._queue.clear()

    # ------------------------------------------------------------------
    # timeout path
    # ------------------------------------------------------------------

    def _on_timeout(self) -> None:
        if self._dead or not self._queue:
            return
        oldest = self._queue[0]
        if oldest.retransmit_count >= self._profile.max_retransmits:
            self._dead = True
            self._record(K.TCP_RETX_GIVE_UP, reason="max_retransmits",
                         count=oldest.retransmit_count, seq=oldest.seq)
            self._give_up_cb(oldest)
            return
        threshold = self._profile.global_fault_threshold
        if threshold is not None and self.global_faults >= threshold:
            self._dead = True
            self._record(K.TCP_RETX_GIVE_UP, reason="global_fault_counter",
                         count=oldest.retransmit_count, seq=oldest.seq,
                         global_faults=self.global_faults)
            self._give_up_cb(oldest)
            return

        oldest.retransmit_count += 1
        oldest.sent_at = self._scheduler.now
        self.total_retransmissions += 1
        self.global_faults += 1
        self.backoff_shift += 1
        self._record(K.TCP_RETRANSMIT, seq=oldest.seq,
                     attempt=oldest.retransmit_count,
                     global_faults=self.global_faults,
                     rto=self.current_rto())
        self._retransmit_cb(oldest.segment)
        self._timer.start(self.current_rto())
        if self.on_timeout_event is not None:
            self.on_timeout_event()

    def force_retransmit(self) -> bool:
        """Retransmit the oldest outstanding segment immediately.

        Used by fast retransmit: the loss signal is duplicate ACKs, not a
        timer, so the backoff shift is left alone.  Returns False when
        nothing is outstanding.
        """
        if self._dead or not self._queue:
            return False
        oldest = self._queue[0]
        oldest.retransmit_count += 1
        oldest.sent_at = self._scheduler.now
        self.total_retransmissions += 1
        self.global_faults += 1
        self._record(K.TCP_RETRANSMIT, seq=oldest.seq,
                     attempt=oldest.retransmit_count,
                     global_faults=self.global_faults,
                     rto=self.current_rto(), fast=True)
        self._retransmit_cb(oldest.segment)
        self._timer.start(self.current_rto())
        return True

    def _record(self, kind: str, /, **attrs) -> None:
        if self._trace is not None:
            self._trace.record(kind, t=self._scheduler.now, conn=self._name,
                               **attrs)
