"""Tahoe-style congestion control.

The 1994-era BSD stacks the paper probed ran 4.3BSD-Tahoe congestion
control: **slow start** (cwnd grows one MSS per ACK until ssthresh),
**congestion avoidance** (roughly one MSS per round trip above ssthresh),
a **timeout reaction** (ssthresh halves to half the flight size, cwnd
collapses to one MSS), and **fast retransmit** (the third duplicate ACK
retransmits the oldest segment without waiting for the timer, with the
same multiplicative decrease).

The controller is pure bookkeeping: the connection consults
:meth:`send_allowance` before transmitting and reports ACK/timeout/dupack
events.  It is enabled per :class:`~repro.tcp.vendors.VendorProfile`
(``congestion_control=True``) and disabled by default, because the
paper's experiments are flow-control and timer driven.
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.trace import TraceRecorder
from repro.tcp.vendors import VendorProfile
from repro.netsim import kinds as K


class TahoeController:
    """Congestion window state machine (Tahoe: no fast recovery)."""

    def __init__(self, profile: VendorProfile, *,
                 trace: Optional[TraceRecorder] = None,
                 clock=None, name: str = ""):
        self._p = profile
        self._trace = trace
        self._clock = clock or (lambda: 0.0)
        self._name = name
        self.cwnd = profile.mss
        self.ssthresh = profile.initial_ssthresh
        self.dup_acks = 0
        self.fast_retransmits = 0
        self.timeout_collapses = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def send_allowance(self, peer_window: int) -> int:
        """Bytes the sender may have in flight right now."""
        return min(peer_window, self.cwnd)

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------

    def on_new_ack(self, bytes_in_flight: int) -> None:
        """An ACK advanced snd_una: grow the window."""
        self.dup_acks = 0
        if self.in_slow_start:
            self.cwnd += self._p.mss
        else:
            # congestion avoidance: ~one MSS per RTT
            self.cwnd += max(1, self._p.mss * self._p.mss // self.cwnd)
        self._record(K.TCP_CWND, cwnd=self.cwnd, ssthresh=self.ssthresh,
                     phase="slow_start" if self.in_slow_start
                     else "avoidance")

    def on_duplicate_ack(self, bytes_in_flight: int) -> bool:
        """A duplicate ACK arrived.  Returns True when the third in a row
        triggers a fast retransmit."""
        self.dup_acks += 1
        if self.dup_acks == self._p.dupack_threshold:
            self._multiplicative_decrease(bytes_in_flight)
            self.fast_retransmits += 1
            self._record(K.TCP_FAST_RETRANSMIT, cwnd=self.cwnd,
                         ssthresh=self.ssthresh)
            return True
        return False

    def on_timeout(self, bytes_in_flight: int) -> None:
        """The retransmission timer expired: collapse to one segment."""
        self._multiplicative_decrease(bytes_in_flight)
        self.timeout_collapses += 1
        self.dup_acks = 0
        self._record(K.TCP_CWND_COLLAPSE, cwnd=self.cwnd,
                     ssthresh=self.ssthresh)

    def _multiplicative_decrease(self, bytes_in_flight: int) -> None:
        self.ssthresh = max(bytes_in_flight // 2, 2 * self._p.mss)
        self.cwnd = self._p.mss

    def _record(self, kind: str, /, **attrs) -> None:
        if self._trace is not None:
            self._trace.record(kind, t=self._clock(), conn=self._name,
                               **attrs)

    def __repr__(self) -> str:
        phase = "slow-start" if self.in_slow_start else "avoidance"
        return (f"TahoeController(cwnd={self.cwnd}, "
                f"ssthresh={self.ssthresh}, {phase})")
