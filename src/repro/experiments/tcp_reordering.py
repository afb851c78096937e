"""Experiment TCP-5 (paper §4.1, Experiment 5): message reordering.

"The send filter of the fault injection layer was configured to send two
outgoing segments out of order ...  In order to make sure that the second
segment would actually arrive at the receiver first, the first segment was
delayed by three seconds, and any retransmissions of the second segment
were dropped."

Here the x-Kernel machine is the *sender* (the PFI layer manipulates its
outgoing segments) and the vendor machine is the receiver under test.
Expected for all four vendors (RFC-1122 SHOULD): the early-arriving second
segment is queued, and when the first segment lands the receiver
acknowledges the data from both segments at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core import ScriptContext
from repro.experiments.tcp_common import VENDOR_ADDR, build_tcp_testbed
from repro.tcp import VENDORS, VendorProfile

FIRST_SEGMENT_DELAY = 3.0


@dataclass
class ReorderingResult:
    """One row of the Experiment 5 summary."""

    vendor: str
    second_segment_queued: bool
    acked_both_at_once: bool
    data_delivered_in_order: bool
    duplicate_deliveries: int


def reorder_send_filter(delay: float = FIRST_SEGMENT_DELAY):
    """Send filter: delay the 1st data segment; drop retransmissions."""
    def send_filter(ctx: ScriptContext) -> None:
        if ctx.msg_type() != "DATA":
            return
        seq = ctx.field("seq")
        seen = ctx.state.setdefault("seen_seqs", set())
        if seq in seen:
            # a retransmission: the paper's script drops these so the
            # reordering effect is observed cleanly
            ctx.log("retransmission dropped")
            ctx.drop()
            return
        seen.add(seq)
        if ctx.state.get("count", 0) == 0:
            ctx.state["count"] = 1
            ctx.state["first_seq"] = seq
            ctx.delay(delay)
            ctx.log(f"first segment delayed {delay}s")
        else:
            ctx.state["count"] = ctx.state.get("count", 0) + 1
    return send_filter


def execute(vendor: VendorProfile, *, seed: int = 0,
            max_time: float = 30.0):
    """Drive Experiment 5; returns ``(testbed, client, server)``."""
    testbed = build_tcp_testbed(vendor, seed=seed)
    # x-Kernel machine actively opens toward the vendor machine
    server = testbed.vendor_tcp.listen(80)
    client = testbed.xkernel_tcp.open_connection(
        local_port=6000, remote_address=VENDOR_ADDR, remote_port=80)
    client.connect()
    testbed.env.run_until(0.5)
    if not client.established:
        raise RuntimeError("handshake did not complete")

    testbed.pfi.set_send_filter(reorder_send_filter())
    payload_a = b"A" * client.profile.mss
    payload_b = b"B" * client.profile.mss
    client.send(payload_a)
    testbed.scheduler.schedule(0.05, client.send, payload_b)
    testbed.env.run_until(max_time)
    return testbed, client, server


def run_reordering_experiment(vendor: VendorProfile, *, seed: int = 0,
                              max_time: float = 30.0) -> ReorderingResult:
    """Run Experiment 5 against one vendor (as the receiver)."""
    testbed, client, server = execute(vendor, seed=seed, max_time=max_time)
    payload_a = b"A" * client.profile.mss
    payload_b = b"B" * client.profile.mss
    trace = testbed.trace
    vendor_conn = "vendor:80"
    queued = trace.count("tcp.ooo_queued", conn=vendor_conn) > 0
    # "the receiver acked the data from both segments" -- one cumulative
    # ACK must jump past both payloads
    both_len = len(payload_a) + len(payload_b)
    expected_ack = (client.iss + 1 + both_len) % (1 << 32)
    acks = [e for e in trace.entries("tcp.transmit", conn=vendor_conn)
            if e.get("msg_type") in ("ACK", "DATA")
            and e.get("ack") == expected_ack]
    delivered = bytes(server.delivered)
    return ReorderingResult(
        vendor=vendor.name,
        second_segment_queued=queued,
        acked_both_at_once=bool(acks),
        data_delivered_in_order=delivered == payload_a + payload_b,
        duplicate_deliveries=max(0, len(delivered) - both_len),
    )


def run_all(seed: int = 0) -> Dict[str, ReorderingResult]:
    """Experiment 5 across all vendors."""
    return {name: run_reordering_experiment(profile, seed=seed)
            for name, profile in VENDORS.items()}


def invariants():
    """The conformance pack that must hold over this experiment's traces."""
    from repro.oracle import tcp_pack
    return tcp_pack()


def table_rows(results: Dict[str, ReorderingResult]) -> List[List[object]]:
    """Rows of the Experiment 5 summary: OOO policy, ACK, data."""
    return [[r.vendor,
             "queued" if r.second_segment_queued else "dropped",
             "cumulative ACK" if r.acked_both_at_once else "partial ACKs",
             "intact" if r.data_delivered_in_order else "CORRUPTED"]
            for r in results.values()]


def conformance_runs(seed: int = 0):
    """Representative labelled traces for the conformance suite."""
    for name, profile in VENDORS.items():
        yield f"reordering/{name}", execute(profile, seed=seed)[0].trace
