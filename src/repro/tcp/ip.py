"""A minimal IP layer.

Just enough network layer to give the stack its paper shape
(TCP / **PFI** / IP / device): an :class:`IPHeader` carrying source and
destination addresses is pushed on the way down and popped on the way up.
Routing itself is the network simulator's job; the anchor layer reads
``meta['dst']`` which this layer maintains.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.xkernel.message import Message
from repro.xkernel.protocol import Protocol


@dataclass
class IPHeader:
    """Source/destination addressing for one packet."""

    src: int
    dst: int
    proto: str = "tcp"
    ttl: int = 64

    def clone(self) -> "IPHeader":
        """Message header ``clone()`` protocol: cheap dataclass replace."""
        return replace(self)


class IPProtocol(Protocol):
    """Wraps outbound messages with an IP header; unwraps inbound ones."""

    def __init__(self, local_address: int, name: str = "ip"):
        super().__init__(name)
        self.local_address = local_address
        self.sent_count = 0
        self.received_count = 0

    def push(self, msg: Message) -> None:
        dst = msg.meta.get("dst")
        if dst is None:
            raise ValueError("IP layer needs meta['dst'] to route")
        msg.push_header(IPHeader(src=self.local_address, dst=dst))
        self.sent_count += 1
        self.send_down(msg)

    def pop(self, msg: Message) -> None:
        header = msg.pop_header_of(IPHeader)
        if header is None:
            raise ValueError(f"IP layer popped a non-IP message: {msg!r}")
        if header.dst != self.local_address:
            return  # not for us; a real router would forward
        msg.meta["src"] = header.src
        msg.meta["dst"] = header.dst
        self.received_count += 1
        self.send_up(msg)
