"""TCP segment wire format.

A :class:`Segment` models the RFC-793 header fields the experiments
exercise: ports, sequence/acknowledgement numbers, flags, and the receive
window, plus the payload.  Segments serialize to a 20-byte header +
payload with a 16-bit ones'-complement checksum so corruption faults are
detectable, and deserialize back -- the PFI layer can therefore operate on
either structured headers or raw bytes.

Classification (:func:`classify`) maps a segment to the message-type names
the recognition stubs report: SYN, SYNACK, FIN, RST, ACK (no payload),
DATA (payload present).  Keep-alive and zero-window probes are DATA/ACK
segments distinguishable only by context (seq relative to the receiver's
window), so filter scripts that need them compare ``seq`` fields, exactly
as the paper's scripts did.

:data:`TCP_SCHEMA` is the TCP packet stubs: the six types, carried on a
:class:`Segment` header, with generators for the stateless probes a
filter may forge (ACK, RST, SYN).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.core.stubs import UNKNOWN_TYPE, MessageType, PacketStubs
from repro.xkernel.message import Message

FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10
URG = 0x20

_FLAG_NAMES = [(SYN, "SYN"), (FIN, "FIN"), (RST, "RST"), (ACK, "ACK"),
               (PSH, "PSH"), (URG, "URG")]

_HEADER_FMT = "!HHIIBBHHH"  # ports, seq, ack, offset, flags, window, cksum, urg
_HEADER_LEN = struct.calcsize(_HEADER_FMT)

SEQ_MOD = 1 << 32
#: half the sequence space: ``a`` precedes ``b`` when ``(a - b) % SEQ_MOD``
#: exceeds it (:func:`seq_lt`)
SEQ_HALF = SEQ_MOD // 2

#: sequence space the control bits consume, indexed by ``flags & (SYN |
#: FIN)``: one each for SYN and FIN
SEQ_SPACE = (0, 1, 1, 2)


@dataclass(init=False)
class Segment:
    """A TCP segment header plus payload.

    The constructor is written out, not generated: a dataclass
    ``__init__`` that reduces ``seq`` and ``ack`` in ``__post_init__``
    costs two Python frames per segment, this costs one.  The fields,
    ``replace`` and equality are the dataclass's.
    """

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    window: int
    payload: bytes = b""

    def __init__(self, src_port: int, dst_port: int, seq: int, ack: int,
                 flags: int, window: int, payload: bytes = b""):
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq % SEQ_MOD
        self.ack = ack % SEQ_MOD
        self.flags = flags
        self.window = window
        self.payload = payload

    # ------------------------------------------------------------------
    # flag helpers
    # ------------------------------------------------------------------

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & SYN)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & FIN)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & RST)

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & ACK)

    def flag_names(self) -> str:
        names = [name for bit, name in _FLAG_NAMES if self.flags & bit]
        return "|".join(names) if names else "NONE"

    @property
    def seg_len(self) -> int:
        """Sequence space consumed: payload bytes, +1 each for SYN and FIN."""
        return len(self.payload) + SEQ_SPACE[self.flags & (SYN | FIN)]

    @property
    def end_seq(self) -> int:
        """First sequence number after this segment."""
        return (self.seq + len(self.payload)
                + SEQ_SPACE[self.flags & (SYN | FIN)]) % SEQ_MOD

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to header+payload with a valid checksum."""
        header = struct.pack(
            _HEADER_FMT, self.src_port, self.dst_port, self.seq, self.ack,
            (_HEADER_LEN // 4) << 4, self.flags, self.window, 0, 0)
        checksum = _checksum(header + self.payload)
        header = header[:16] + struct.pack("!H", checksum) + header[18:]
        return header + self.payload

    @classmethod
    def from_bytes(cls, data: bytes, *, verify: bool = True) -> "Segment":
        """Parse bytes back into a segment, optionally verifying checksum."""
        if len(data) < _HEADER_LEN:
            raise ValueError(f"segment too short: {len(data)} bytes")
        (src_port, dst_port, seq, ack, _offset, flags, window, checksum,
         _urg) = struct.unpack(_HEADER_FMT, data[:_HEADER_LEN])
        payload = data[_HEADER_LEN:]
        if verify:
            zeroed = data[:16] + b"\x00\x00" + data[18:_HEADER_LEN] + payload
            if _checksum(zeroed) != checksum:
                raise ValueError("segment checksum mismatch")
        return cls(src_port=src_port, dst_port=dst_port, seq=seq, ack=ack,
                   flags=flags, window=window, payload=payload)

    def copy(self) -> "Segment":
        """An independent copy (payload bytes are shared, immutable)."""
        return replace(self)

    #: opt-in to the Message header ``clone()`` protocol: duplicating a
    #: message clones its Segment header with a dataclass replace instead
    #: of running it through ``copy.deepcopy``
    clone = copy

    def __repr__(self) -> str:
        return (f"Segment({self.flag_names()} seq={self.seq} ack={self.ack} "
                f"win={self.window} len={len(self.payload)})")


def classify(segment: Segment) -> str:
    """Message-type name for the recognition stubs."""
    flags = segment.flags
    if flags & RST:
        return "RST"
    if flags & SYN:
        return "SYNACK" if flags & ACK else "SYN"
    if flags & FIN:
        return "FIN"
    if segment.payload:
        return "DATA"
    return "ACK"


def seq_lt(a: int, b: int) -> bool:
    """Modular sequence comparison: a < b in 32-bit sequence space."""
    return (a - b) % SEQ_MOD > SEQ_HALF


def seq_leq(a: int, b: int) -> bool:
    """Modular sequence comparison: a <= b."""
    return a == b or (a - b) % SEQ_MOD > SEQ_HALF


def seq_add(a: int, n: int) -> int:
    """Modular sequence addition."""
    return (a + n) % SEQ_MOD


def seq_sub(a: int, b: int) -> int:
    """Modular distance a - b (assumes a is at or after b)."""
    return (a - b) % SEQ_MOD


def _checksum(data: bytes) -> int:
    """16-bit ones'-complement sum, the classic internet checksum."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def msg_type(msg: Message) -> str:
    """The TCP recogniser: the type of the outermost segment header."""
    seg = msg.find_header(Segment)
    return classify(seg) if seg is not None else UNKNOWN_TYPE


def _forger(flags: int, window: int) -> Callable[..., Message]:
    """A generator of stateless probe segments with ``flags`` set."""
    def forge(*, src_port: int = 0, dst_port: int = 0, seq: int = 0,
              ack: int = 0, window: int = window, dst: Optional[int] = None,
              src: Optional[int] = None) -> Message:
        seg = Segment(src_port=src_port, dst_port=dst_port, seq=seq, ack=ack,
                      flags=flags, window=window)
        msg = Message(payload=b"", headers=[seg])
        if dst is not None:
            msg.meta["dst"] = dst
        if src is not None:
            msg.meta["src"] = src
        return msg
    return forge


#: the header fields a filter may set on any segment (not the payload,
#: not the computed ``is_*`` / ``seg_len`` / ``end_seq``)
SEGMENT_FIELDS = ("src_port", "dst_port", "seq", "ack", "flags", "window")

#: the TCP packet stubs (see :mod:`repro.core.stubs`); DATA is the one
#: bulk (non-control) type
TCP_SCHEMA = PacketStubs(
    name="tcp",
    msg_type=msg_type,
    types=tuple(
        MessageType(name, (Segment,), SEGMENT_FIELDS, control=name != "DATA",
                    generate=generate)
        for name, generate in (("SYN", _forger(SYN, 4096)), ("SYNACK", None),
                               ("ACK", _forger(ACK, 4096)), ("DATA", None),
                               ("FIN", None), ("RST", _forger(RST | ACK, 0)))),
    corruptions=(("ACK", "ack", 0), ("DATA", "seq", 0),
                 ("ACK", "window", 0)))
