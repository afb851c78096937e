"""The TCP test rig of Figure 3.

One machine runs a vendor TCP implementation; the other is "the x-Kernel
machine" whose stack carries the PFI layer between TCP and IP::

    vendor machine (addr 1)        x-kernel machine (addr 2)
    +----------------+             +----------------+
    |   vendor TCP   |             |  x-kernel TCP  |
    +----------------+             +----------------+
    |       IP       |             |    PFI layer   |   <- filter scripts
    +----------------+             +----------------+
    |     anchor     |             |       IP       |
    +----------------+             +----------------+
                                   |     anchor     |
                                   +----------------+

"In the tests, connections are opened between the vendor TCP
implementations and the x-Kernel TCP."  :func:`build_tcp_testbed` wires
all of this; :func:`open_connection` performs the handshake;
:func:`stream_from_vendor` generates the steady data steam the
retransmission experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import PFILayer, make_env
from repro.core.orchestrator import ExperimentEnv
from repro.tcp import (TCP_SCHEMA, TCPConnection, TCPProtocol, VendorProfile,
                       XKERNEL)
from repro.tcp.ip import IPProtocol
from repro.xkernel.stack import NodeAnchor, ProtocolStack

VENDOR_ADDR = 1
XKERNEL_ADDR = 2
SERVER_PORT = 80
CLIENT_PORT = 5000


@dataclass
class TCPTestbed:
    """Everything an experiment needs to script a TCP run."""

    env: ExperimentEnv
    vendor_tcp: TCPProtocol
    xkernel_tcp: TCPProtocol
    pfi: PFILayer
    vendor_stack: ProtocolStack
    xkernel_stack: ProtocolStack

    @property
    def trace(self):
        return self.env.trace

    @property
    def scheduler(self):
        return self.env.scheduler


def build_tcp_testbed(vendor: VendorProfile, *, seed: int = 0,
                      latency: float = 0.002,
                      xk_profile: VendorProfile = XKERNEL,
                      env: ExperimentEnv = None) -> TCPTestbed:
    """Construct the two-machine rig with the PFI layer on the x-Kernel side.

    ``env`` reuses an existing environment (a :class:`~repro.core
    .orchestrator.Campaign` hands each body one) instead of building a
    private one, so campaign-level machinery -- telemetry, the trace on
    ``RunResult``, the conformance oracle -- observes the testbed's run.
    """
    if env is None:
        env = make_env(seed=seed, default_latency=latency)
    vendor_node = env.network.add_node("vendor", VENDOR_ADDR)
    xk_node = env.network.add_node("xkernel", XKERNEL_ADDR)
    vendor_tcp = TCPProtocol(env.scheduler, vendor, local_address=VENDOR_ADDR,
                             trace=env.trace, host="vendor")
    vendor_stack = ProtocolStack("vendor").build(
        vendor_tcp, IPProtocol(VENDOR_ADDR), NodeAnchor(vendor_node))

    xk_tcp = TCPProtocol(env.scheduler, xk_profile, local_address=XKERNEL_ADDR,
                         trace=env.trace, host="xkernel")
    pfi = PFILayer("pfi", env.scheduler, TCP_SCHEMA, trace=env.trace,
                   sync=env.sync, dist=env.dist("pfi"), node="xkernel")
    xkernel_stack = ProtocolStack("xkernel").build(
        xk_tcp, pfi, IPProtocol(XKERNEL_ADDR), NodeAnchor(xk_node))

    return TCPTestbed(env=env, vendor_tcp=vendor_tcp, xkernel_tcp=xk_tcp,
                      pfi=pfi, vendor_stack=vendor_stack,
                      xkernel_stack=xkernel_stack)


def open_connection(testbed: TCPTestbed, *,
                    settle: float = 0.5) -> "tuple[TCPConnection, TCPConnection]":
    """Open vendor -> x-Kernel connection; returns (client, server)."""
    server = testbed.xkernel_tcp.listen(SERVER_PORT)
    client = testbed.vendor_tcp.open_connection(
        local_port=CLIENT_PORT, remote_address=XKERNEL_ADDR,
        remote_port=SERVER_PORT)
    client.connect()
    testbed.env.run_until(testbed.env.scheduler.now + settle)
    if not client.established:
        raise RuntimeError("handshake did not complete")
    return client, server


def stream_from_vendor(testbed: TCPTestbed, client: TCPConnection, *,
                       segments: int, interval: float = 0.5,
                       size: int = 512, start_delay: float = 0.0) -> None:
    """Schedule a steady application write stream on the vendor machine.

    Writes keep being scheduled even if the connection dies mid-run; the
    connection API tolerates that by dropping the write (matching an app
    whose ``write()`` starts failing after a reset).
    """
    for i in range(segments):
        testbed.scheduler.schedule(start_delay + i * interval,
                                   _stream_write, client, i, size)


def _stream_write(conn: TCPConnection, n: int, size: int) -> None:
    """One scheduled application write (module-level so a checkpointed
    scheduler entry deep-copies cleanly; a closure would keep writing
    into the original connection after a fork)."""
    if conn.state in ("ESTABLISHED", "CLOSE_WAIT"):
        conn.send(bytes([65 + (n % 26)]) * size)
