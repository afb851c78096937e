"""TCP as an x-Kernel protocol layer.

:class:`TCPProtocol` owns this host's connections and adapts them to the
stack: a connection's outbound segments become messages pushed down
(through any spliced PFI layer), and inbound messages are demultiplexed by
(local port, remote address, remote port) -- falling back to a listener
bound to the local port -- and fed to :meth:`TCPConnection.on_segment`.

The TCP packet stubs are :data:`repro.tcp.segment.TCP_SCHEMA`, declared
beside the segment format.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.netsim.scheduler import Scheduler
from repro.netsim.trace import TraceRecorder
from repro.tcp.connection import TCPConnection
from repro.tcp.segment import ACK, RST, Segment
from repro.tcp.vendors import VendorProfile
from repro.xkernel.message import Message
from repro.xkernel.protocol import Protocol
from repro.netsim import kinds as K

ConnKey = Tuple[int, int, int]  # local port, remote addr, remote port


def _null_transmit(_seg: Segment) -> None:
    """Placeholder transmit for a connection not yet wired to a protocol."""


class _ConnTransmit:
    """Routes one connection's outgoing segments through its protocol.

    A class rather than ``lambda seg: protocol._transmit(conn, seg)`` so
    that a checkpointed connection deep-copies into its fork's protocol
    instead of leaking segments back into the original world (functions
    are atomic under ``copy.deepcopy``; instances follow the memo).
    """

    __slots__ = ("protocol", "conn")

    def __init__(self, protocol: "TCPProtocol", conn: TCPConnection):
        self.protocol = protocol
        self.conn = conn

    def __call__(self, seg: Segment) -> None:
        self.protocol._transmit(self.conn, seg)


class TCPProtocol(Protocol):
    """The TCP layer of one host's protocol stack."""

    def __init__(self, scheduler: Scheduler, profile: VendorProfile, *,
                 local_address: int, trace: Optional[TraceRecorder] = None,
                 name: str = "tcp", host: str = ""):
        super().__init__(name)
        self.scheduler = scheduler
        self.profile = profile
        self.local_address = local_address
        self.trace = trace
        self.host = host or name
        self._connections: Dict[ConnKey, TCPConnection] = {}
        self._listeners: Dict[int, TCPConnection] = {}
        self._next_iss = 1000
        # uid of the first wire message carrying each payload range, so a
        # retransmission records a lineage edge back to the original
        # transmission; only maintained while a trace is attached
        self._first_uids: Dict[Tuple[str, int, int], int] = {}

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------

    def open_connection(self, *, local_port: int, remote_address: int,
                        remote_port: int,
                        iss: Optional[int] = None) -> TCPConnection:
        """Create an active-open connection (does not send SYN yet)."""
        conn = self._make_connection(local_port, remote_address, remote_port,
                                     iss=iss)
        self._connections[(local_port, remote_address, remote_port)] = conn
        return conn

    def listen(self, local_port: int,
               iss: Optional[int] = None) -> TCPConnection:
        """Create a passive-open connection bound to a local port."""
        conn = self._make_connection(local_port, remote_address=None,
                                     remote_port=0, iss=iss)
        conn.listen()
        self._listeners[local_port] = conn
        return conn

    def _make_connection(self, local_port: int,
                         remote_address: Optional[int], remote_port: int,
                         iss: Optional[int]) -> TCPConnection:
        if iss is None:
            iss = self._next_iss
            self._next_iss += 100_000
        conn = TCPConnection(
            self.scheduler, self.profile,
            local_port=local_port, remote_port=remote_port,
            transmit=_null_transmit,  # replaced below
            trace=self.trace,
            name=f"{self.host}:{local_port}", iss=iss)
        conn.remote_address = remote_address
        conn._transmit = _ConnTransmit(self, conn)
        return conn

    def _transmit(self, conn: TCPConnection, seg: Segment) -> None:
        if conn.remote_address is None:
            return  # listener with no peer yet cannot transmit
        msg = Message(payload=b"", headers=[seg])
        msg.meta["dst"] = conn.remote_address
        msg.meta["src"] = self.local_address
        if self.trace is not None and seg.payload:
            # lineage edge: a re-sent payload range points back to the
            # uid that first carried it.  Recorded as its own additive
            # kind so existing tcp.* queries and entry ordering are
            # untouched.
            key = (conn.name, seg.seq, seg.seq + len(seg.payload))
            parent = self._first_uids.get(key)
            if parent is None:
                self._first_uids[key] = msg.uid
            else:
                self.trace.record(
                    K.TCP_LINEAGE, t=self.scheduler.now, node=self.host,
                    conn=conn.name, seq=seg.seq, uid=msg.uid,
                    parent=parent, relation="retransmit")
        self.send_down(msg)

    def teardown(self) -> None:
        """The world's run is over: dismantle every connection
        (:meth:`TCPConnection.dismantle`); each one routes its segments
        back through this protocol."""
        for conn in (*self._connections.values(), *self._listeners.values()):
            conn.dismantle()

    # ------------------------------------------------------------------
    # stack interface
    # ------------------------------------------------------------------

    def pop(self, msg: Message) -> None:
        seg = msg.pop_header_of(Segment)
        if seg is None:
            return
        src_address = msg.meta.get("src")
        key = (seg.dst_port, src_address, seg.src_port)
        conn = self._connections.get(key)
        if conn is None:
            listener = self._listeners.get(seg.dst_port)
            if listener is not None and seg.is_syn:
                # bind the listener to this peer
                listener.remote_port = seg.src_port
                listener.remote_address = src_address
                self._connections[key] = listener
                del self._listeners[seg.dst_port]
                conn = listener
            elif listener is not None:
                conn = listener
        if conn is None:
            self._refuse(seg, src_address)
            return
        conn.on_segment(seg)

    def _refuse(self, seg: Segment, src_address: Optional[int]) -> None:
        """No connection for this segment: answer with a RST."""
        if seg.is_rst or src_address is None:
            return
        rst = Segment(src_port=seg.dst_port, dst_port=seg.src_port,
                      seq=seg.ack, ack=seg.end_seq, flags=RST | ACK,
                      window=0)
        msg = Message(payload=b"", headers=[rst])
        msg.meta["dst"] = src_address
        msg.meta["src"] = self.local_address
        self.send_down(msg)

    def connection(self, local_port: int, remote_address: int,
                   remote_port: int) -> Optional[TCPConnection]:
        """Look up an established connection."""
        return self._connections.get((local_port, remote_address, remote_port))
