"""Reliable communication layer over UDP.

"A Reliable communication layer was implemented using retransmission
timers and sequence numbers."  This layer provides per-peer, at-most-once,
bounded-retry delivery for GMP control messages; heartbeats are marked
unreliable and bypass the machinery (a lost heartbeat is itself a signal).

Per peer, each direction keeps:

- a send sequence number; unacknowledged messages are retransmitted up to
  ``max_retries`` times at ``retry_interval`` before being abandoned;
- a receive dedup window: a message with an already-seen sequence number
  is acknowledged again but not delivered up.

The layer sits *above* the PFI layer in the GMP stack
(gmd / reliable / **PFI** / UDP), matching Figure 5 of the paper: the PFI
tool was inserted "into the communication interface code where udp send
and receive calls were made", so injected faults see reliable-layer
retransmissions as distinct wire messages to drop or delay.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set, Tuple

from repro.netsim.scheduler import Scheduler
from repro.netsim.timer import Timer
from repro.netsim.trace import TraceRecorder
from repro.xkernel.message import Message
from repro.xkernel.protocol import Protocol
from repro.netsim import kinds as K


class RelHeader:
    """Reliable-layer header (slotted: one per datagram)."""

    __slots__ = ("seq", "is_ack", "reliable")
    __hash__ = None  # mutable value object, compared by field

    def __init__(self, seq: int, is_ack: bool = False, reliable: bool = True):
        self.seq = seq
        self.is_ack = is_ack
        self.reliable = reliable

    def clone(self) -> "RelHeader":
        """Message header ``clone()`` protocol."""
        return RelHeader(self.seq, self.is_ack, self.reliable)

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return ((self.seq, self.is_ack, self.reliable)
                    == (other.seq, other.is_ack, other.reliable))
        return NotImplemented

    def __repr__(self) -> str:
        return (f"RelHeader(seq={self.seq!r}, is_ack={self.is_ack!r}, "
                f"reliable={self.reliable!r})")


class _Pending:
    """One unacknowledged message and its retransmission timer.

    The timer is armed with the ``(dst, seq)`` key, never with this
    object: a pending entry that referenced itself through its timer's
    arguments would be a cycle, alive after the ack until the next full
    garbage collection.
    """

    __slots__ = ("msg", "retries", "timer")

    def __init__(self, msg: Message, timer: Timer):
        self.msg = msg
        self.retries = 0
        self.timer = timer

    def __repr__(self) -> str:
        return (f"_Pending(msg={self.msg!r}, retries={self.retries!r}, "
                f"timer={self.timer!r})")


class ReliableChannel(Protocol):
    """Bounded-retry reliable delivery above the PFI/UDP layers."""

    def __init__(self, local_address: int, scheduler: Scheduler, *,
                 max_retries: int = 3, retry_interval: float = 0.4,
                 trace: Optional[TraceRecorder] = None,
                 name: str = "reliable"):
        super().__init__(name)
        self.local_address = local_address
        self.scheduler = scheduler
        self.max_retries = max_retries
        self.retry_interval = retry_interval
        self.trace = trace
        self._next_seq: Dict[int, int] = {}
        self._pending: Dict[Tuple[int, int], _Pending] = {}
        self._seen: Dict[int, Set[int]] = {}
        self.abandoned_count = 0
        self.duplicate_count = 0

    def teardown(self) -> None:
        """The world's run is over: drop the unacknowledged sends, whose
        retransmission timers call :meth:`_retry`."""
        self._pending.clear()

    # ------------------------------------------------------------------
    # downward path
    # ------------------------------------------------------------------

    def push(self, msg: Message) -> None:
        dst = msg.meta.get("dst")
        if dst is None:
            raise ValueError("reliable layer needs meta['dst']")
        reliable = msg.meta.get("reliable", True)
        seq = self._next_seq.get(dst, 0)
        self._next_seq[dst] = seq + 1
        # msg.push_header, inline (see Message: a pushed header is private)
        msg._headers.append(RelHeader(seq, False, reliable))
        if reliable:
            timer = Timer(self.scheduler, self._retry, args=(dst, seq),
                          name=f"rel/{self.local_address}->{dst}/{seq}")
            timer.start(self.retry_interval)
            self._pending[(dst, seq)] = _Pending(msg, timer)
        # each wire transmission is a distinct message object so the PFI
        # layer can drop one retransmission without corrupting the pending
        # original (here and in _retry)
        self.send_down(msg.copy())

    def _retry(self, dst: int, seq: int) -> None:
        pending = self._pending.get((dst, seq))
        if pending is None:
            return
        if pending.retries >= self.max_retries:
            del self._pending[(dst, seq)]
            self.abandoned_count += 1
            self._record(K.REL_ABANDON, dst=dst, seq=seq)
            return
        pending.retries += 1
        wire = pending.msg.copy()
        self._record(K.REL_RETRANSMIT, dst=dst, seq=seq,
                     attempt=pending.retries, uid=wire.uid,
                     parent=pending.msg.uid, relation="retransmit")
        self.send_down(wire)
        pending.timer.start(self.retry_interval)

    # ------------------------------------------------------------------
    # upward path
    # ------------------------------------------------------------------

    def pop(self, msg: Message) -> None:
        # msg.pop_header_of(RelHeader), inline (see Message)
        headers = msg._headers
        if not headers or not isinstance(headers[-1], RelHeader):
            self.send_up(msg)
            return
        header = headers.pop()
        src = msg.meta.get("src")
        if header.is_ack:
            pending = self._pending.pop((src, header.seq), None)
            if pending is not None:
                pending.timer.stop()
            return
        if header.reliable:
            # the ack: a fresh datagram carrying only a RelHeader
            self.send_down(Message(b"", [RelHeader(header.seq, True)],
                                   {"dst": src}))
            seen = self._seen.setdefault(src, set())
            if header.seq in seen:
                self.duplicate_count += 1
                self._record(K.REL_DUPLICATE, src=src, seq=header.seq)
                return
            seen.add(header.seq)
        self.send_up(msg)

    def _record(self, kind: str, /, **attrs: Any) -> None:
        if self.trace is not None:
            self.trace.record(kind, t=self.scheduler.now,
                              node=self.local_address, **attrs)
