"""``xDuplicate`` / ``ctx.duplicate()`` copy the message as the filter saw
it, in both directions and on both protocol stacks.

Forwarding hands the filtered message to the next layer, which pushes
(send side) or pops (receive side) its header on that same object, so a
copy taken after forwarding carried one header too many or one too few:
GMP's reliable layer saw ``(RelHeader, UDPHeader)`` or ``()`` and passed
the duplicate straight to the daemon, and the x-kernel TCP never saw a
receive-side duplicate at all.
"""

import pytest

from repro.experiments.gmp_common import build_gmp_cluster
from repro.experiments.tcp_common import (build_tcp_testbed, open_connection,
                                          stream_from_vendor)
from repro.gmp import RelHeader
from repro.tcp import SUNOS_413
from repro.tcp.ip import IPHeader
from repro.tcp.segment import Segment


def _shape(msg):
    """Header classes, innermost first."""
    return tuple(type(header) for header in msg.iter_headers())[::-1]


def _watch_pop(layer, shapes, wanted=lambda msg: True):
    """Record what ``layer`` is handed from below, at the wired seam.

    The stack binds ``layer.pop`` into its lower neighbour's ``send_up``
    when it wires them, so the watch wraps that exit instead of the
    layer's own ``pop``.
    """
    below = layer.below
    real_send_up = below.send_up

    def send_up(msg):
        if wanted(msg):
            shapes.append(_shape(msg))
        real_send_up(msg)

    below.send_up = send_up


@pytest.mark.parametrize("direction", ["send", "receive"])
def test_gmp_duplicate_proclaim_reaches_reliable_layer_intact(direction):
    cluster = build_gmp_cluster([1, 2])
    reliable = cluster.pfis[2].above
    shapes = []
    _watch_pop(reliable, shapes,
               lambda msg: getattr(msg.payload, "kind", None) == "PROCLAIM")
    duplicated = []

    def duplicate_first_proclaim(ctx):
        if ctx.msg_type() == "PROCLAIM" and not duplicated:
            duplicated.append(ctx.msg.uid)
            ctx.duplicate()

    # node 1's send side, or node 2's receive side: the same PROCLAIM
    if direction == "send":
        cluster.pfis[1].set_send_filter(duplicate_first_proclaim)
    else:
        cluster.pfis[2].set_receive_filter(duplicate_first_proclaim)
    cluster.start(stagger=0.0)
    # both copies land at 0.001 s, before any other PROCLAIM does
    cluster.run_until(0.0015)

    trace = cluster.trace
    assert len(duplicated) == 1
    assert trace.count("pfi.duplicate") == 1
    assert shapes == [(RelHeader,), (RelHeader,)]
    # the reliable layer recognises the copy and the daemon reads it once
    assert reliable.duplicate_count == 1
    assert trace.count("rel.duplicate", node=2) == 1
    assert trace.count("gmp.receive", node=2, msg_kind="PROCLAIM") == 1


@pytest.mark.parametrize("direction", ["send", "receive"])
def test_tcp_duplicate_segments_reach_the_peer_intact(direction):
    testbed = build_tcp_testbed(SUNOS_413)
    client, server = open_connection(testbed)
    vendor_ip = testbed.vendor_tcp.below
    shapes = []
    _watch_pop(vendor_ip, shapes)
    getattr(testbed.pfi, f"set_{direction}_filter")(
        lambda ctx: ctx.duplicate())
    stream_from_vendor(testbed, client, segments=3)
    testbed.env.run_until(testbed.env.scheduler.now + 5.0)

    # the vendor's IP layer only ever pops one IP header off a segment
    assert shapes and set(shapes) == {(Segment, IPHeader)}
    assert bytes(server.delivered) == b"A" * 512 + b"B" * 512 + b"C" * 512
    # the handshake's SYN-ACK, then 3 ACKs and 3 duplicates: on the send
    # side the PFI layer copies the x-kernel's ACKs, on the receive side
    # the x-kernel TCP sees each duplicate data segment and answers it
    assert vendor_ip.received_count == 7
    assert len(shapes) == 6
