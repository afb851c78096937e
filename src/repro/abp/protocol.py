"""Alternating-bit protocol sender and receiver layers.

Stop-and-wait ARQ over an unreliable channel:

- the **sender** transmits one frame at a time, stamped with a sequence
  bit that alternates per frame, and retransmits on a timer until the
  matching ACK arrives;
- the **receiver** delivers a frame only when its bit matches the
  expected bit (duplicates are re-ACKed but not re-delivered), then flips
  its expectation.

Both are ordinary :class:`~repro.xkernel.protocol.Protocol` layers, so a
PFI layer splices beneath them exactly as it does beneath TCP or the GMP
daemon -- no protocol-specific hooks.  :data:`ABP_SCHEMA` is the ABP
packet stubs: both frame types, carried on an :class:`AbpFrame` payload.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from repro.core.stubs import UNKNOWN_TYPE, MessageType, PacketStubs
from repro.netsim.scheduler import Scheduler
from repro.netsim.timer import Timer
from repro.netsim.trace import TraceRecorder
from repro.xkernel.message import Message
from repro.xkernel.protocol import Protocol


@dataclass
class AbpFrame:
    """One ABP frame: DATA carries a payload, ACK carries just the bit."""

    kind: str          # "DATA" or "ACK"
    bit: int           # 0 or 1
    payload: bytes = b""

    def __post_init__(self):
        if self.kind not in ("DATA", "ACK"):
            raise ValueError(f"bad ABP frame kind {self.kind!r}")
        if self.bit not in (0, 1):
            raise ValueError(f"bad ABP bit {self.bit!r}")


class AbpSender(Protocol):
    """Stop-and-wait sender with per-frame retransmission."""

    def __init__(self, scheduler: Scheduler, peer_address: int, *,
                 retransmit_interval: float = 1.0,
                 max_retransmits: Optional[int] = None,
                 trace: Optional[TraceRecorder] = None,
                 name: str = "abp_sender"):
        super().__init__(name)
        self.scheduler = scheduler
        self.peer_address = peer_address
        self.retransmit_interval = retransmit_interval
        self.max_retransmits = max_retransmits
        self.trace = trace
        self.bit = 0
        self._queue: Deque[bytes] = deque()
        self._in_flight: Optional[bytes] = None
        self._attempts = 0
        self._timer = Timer(scheduler, self._on_timeout, name=f"{name}/rtx")
        self.delivered_acks = 0
        self.retransmissions = 0
        self.gave_up = False
        self.on_give_up: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # application API
    # ------------------------------------------------------------------

    def send(self, payload: bytes) -> None:
        """Queue one payload for stop-and-wait delivery."""
        self._queue.append(bytes(payload))
        if self._in_flight is None:
            self._next_frame()

    @property
    def idle(self) -> bool:
        """True when nothing is queued or awaiting acknowledgement."""
        return self._in_flight is None and not self._queue

    # ------------------------------------------------------------------
    # machinery
    # ------------------------------------------------------------------

    def _next_frame(self) -> None:
        if not self._queue:
            return
        self._in_flight = self._queue.popleft()
        self._attempts = 0
        self._transmit()
        self._timer.start(self.retransmit_interval)

    def _transmit(self) -> None:
        frame = AbpFrame("DATA", self.bit, self._in_flight)
        msg = Message(payload=frame)
        msg.meta["dst"] = self.peer_address
        self._record("abp.data_sent", bit=self.bit,
                     attempt=self._attempts)
        self.send_down(msg)

    def _on_timeout(self) -> None:
        if self._in_flight is None or self.gave_up:
            return
        if self.max_retransmits is not None \
                and self._attempts >= self.max_retransmits:
            self.gave_up = True
            self._record("abp.give_up", bit=self.bit)
            if self.on_give_up:
                self.on_give_up()
            return
        self._attempts += 1
        self.retransmissions += 1
        self._record("abp.retransmit", bit=self.bit, attempt=self._attempts)
        self._transmit()
        self._timer.start(self.retransmit_interval)

    def pop(self, msg: Message) -> None:
        frame = msg.payload
        if not isinstance(frame, AbpFrame) or frame.kind != "ACK":
            return
        if self._in_flight is not None and frame.bit == self.bit:
            self._record("abp.acked", bit=self.bit)
            self.delivered_acks += 1
            self._in_flight = None
            self._timer.stop()
            self.bit ^= 1
            self._next_frame()
        else:
            self._record("abp.stale_ack", bit=frame.bit)

    def _record(self, kind: str, /, **attrs) -> None:
        if self.trace is not None:
            self.trace.record(kind, t=self.scheduler.now, node=self.name,
                              **attrs)


class AbpReceiver(Protocol):
    """Stop-and-wait receiver with (optionally buggy) duplicate filtering.

    ``check_bit=False`` reproduces the classic implementation mistake the
    PFI methodology finds instantly: a receiver that ACKs correctly but
    delivers every arriving frame, so one dropped ACK means one duplicate
    delivery.
    """

    def __init__(self, scheduler: Scheduler, peer_address: int, *,
                 check_bit: bool = True,
                 trace: Optional[TraceRecorder] = None,
                 name: str = "abp_receiver"):
        super().__init__(name)
        self.scheduler = scheduler
        self.peer_address = peer_address
        self.check_bit = check_bit
        self.trace = trace
        self.expected_bit = 0
        self.delivered: List[bytes] = []
        self.duplicates_delivered = 0
        self.on_deliver: Optional[Callable[[bytes], None]] = None

    def pop(self, msg: Message) -> None:
        frame = msg.payload
        if not isinstance(frame, AbpFrame) or frame.kind != "DATA":
            return
        if self.check_bit and frame.bit != self.expected_bit:
            # a duplicate of the previous frame: re-ACK, do not deliver
            self._record("abp.duplicate_suppressed", bit=frame.bit)
            self._send_ack(frame.bit)
            return
        if frame.bit != self.expected_bit:
            # buggy path: delivering despite the stale bit
            self.duplicates_delivered += 1
            self._record("abp.duplicate_delivered", bit=frame.bit)
        else:
            self.expected_bit ^= 1
        self.delivered.append(frame.payload)
        self._record("abp.delivered", bit=frame.bit)
        if self.on_deliver:
            self.on_deliver(frame.payload)
        self._send_ack(frame.bit)

    def _send_ack(self, bit: int) -> None:
        ack = Message(payload=AbpFrame("ACK", bit))
        ack.meta["dst"] = self.peer_address
        self._record("abp.ack_sent", bit=bit)
        self.send_down(ack)

    def _record(self, kind: str, /, **attrs) -> None:
        if self.trace is not None:
            self.trace.record(kind, t=self.scheduler.now, node=self.name,
                              **attrs)


def msg_type(msg: Message) -> str:
    """The ABP recogniser: ``ABP_DATA`` / ``ABP_ACK`` from the frame."""
    payload = msg.payload
    if payload.__class__ is AbpFrame:
        return f"ABP_{payload.kind}"
    return UNKNOWN_TYPE


def _generator(kind: str) -> Callable[..., Message]:
    """A generator of ``kind`` frames."""
    def generate(*, bit: int = 0, payload: bytes = b"",
                 dst: Optional[int] = None) -> Message:
        msg = Message(payload=AbpFrame(kind, bit, payload))
        if dst is not None:
            msg.meta["dst"] = dst
        return msg
    return generate


#: the ABP packet stubs (see :mod:`repro.core.stubs`)
ABP_SCHEMA = PacketStubs(
    name="abp",
    msg_type=msg_type,
    types=(MessageType("ABP_DATA", (AbpFrame,), ("bit", "payload"),
                       generate=_generator("DATA")),
           MessageType("ABP_ACK", (AbpFrame,), ("bit",),
                       generate=_generator("ACK"))),
    corruptions=(("ABP_DATA", "bit", 1), ("ABP_ACK", "bit", 1)))
