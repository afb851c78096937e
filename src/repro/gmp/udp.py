"""A minimal UDP layer.

The paper's GMP "was written as a user-level server which ran on SUN
machines on top of UDP".  This layer provides unreliable datagram
delivery: a :class:`UDPHeader` with ports is pushed going down and popped
coming up; addressing rides in message metadata like the IP layer.
Datagram loss/delay/duplication is the network's and the PFI layer's
business, not UDP's.
"""

from __future__ import annotations

from repro.xkernel.message import Message
from repro.xkernel.protocol import Protocol


class UDPHeader:
    """Ports for one datagram (slotted: one per datagram)."""

    __slots__ = ("src_port", "dst_port")
    __hash__ = None  # mutable value object, compared by field

    def __init__(self, src_port: int, dst_port: int):
        self.src_port = src_port
        self.dst_port = dst_port

    def clone(self) -> "UDPHeader":
        """Message header ``clone()`` protocol."""
        return UDPHeader(self.src_port, self.dst_port)

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return ((self.src_port, self.dst_port)
                    == (other.src_port, other.dst_port))
        return NotImplemented

    def __repr__(self) -> str:
        return (f"UDPHeader(src_port={self.src_port!r}, "
                f"dst_port={self.dst_port!r})")


class UDPProtocol(Protocol):
    """Datagram layer of a GMP host's stack."""

    def __init__(self, local_address: int, port: int = 7777,
                 name: str = "udp"):
        super().__init__(name)
        self.local_address = local_address
        self.port = port
        self.sent_count = 0
        self.received_count = 0

    def push(self, msg: Message) -> None:
        dst = msg.meta.get("dst")
        if dst is None:
            raise ValueError("UDP layer needs meta['dst'] to route")
        # msg.push_header, inline (see Message: a pushed header is private)
        msg._headers.append(UDPHeader(self.port, self.port))
        msg.meta.setdefault("src", self.local_address)
        self.sent_count += 1
        self.send_down(msg)

    def pop(self, msg: Message) -> None:
        # msg.pop_header_of(UDPHeader), inline (see Message)
        headers = msg._headers
        if not headers or not isinstance(headers[-1], UDPHeader):
            return
        header = headers.pop()
        if header.dst_port != self.port:
            return  # not our port; a real stack would ICMP
        self.received_count += 1
        self.send_up(msg)
