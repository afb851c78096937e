"""Experiment TCP-1 (paper Table 1): TCP retransmission intervals.

"The receive filter script of the PFI layer was configured such that after
allowing thirty packets through without dropping or delaying their ACKs,
all incoming packets were dropped.  ...  each packet was logged with a
timestamp by the receive filter script before it was dropped."

Expected shapes (paper):

- SunOS/AIX/NeXT: 12 retransmissions of the dropped segment, exponential
  backoff levelling off at 64 s, then a TCP reset and the connection is
  closed;
- Solaris: 9 retransmissions (global fault counter), exponential backoff
  from a ~330 ms floor, no upper-bound plateau reached, connection closed
  abruptly with **no** reset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.series import (most_retransmitted_seq,
                                   retransmission_series)
from repro.analysis.shape import is_exponential_backoff, plateau_value
from repro.core import ScriptContext
from repro.experiments.tcp_common import (TCPTestbed, build_tcp_testbed,
                                          open_connection,
                                          stream_from_vendor)
from repro.tcp import VENDORS, VendorProfile

PASS_COUNT = 30


@dataclass
class RetransmissionResult:
    """One Table 1 row."""

    vendor: str
    retransmissions: int
    reset_sent: bool
    close_reason: Optional[str]
    intervals: List[float] = field(default_factory=list)
    upper_bound: Optional[float] = None
    backoff_exponential: bool = False
    logged_packets: int = 0


def drop_after_script(pass_count: int = PASS_COUNT):
    """The paper's receive filter: pass N packets, then log-and-drop all."""
    def receive_filter(ctx: ScriptContext) -> None:
        seen = ctx.state.get("seen", 0) + 1
        ctx.state["seen"] = seen
        if seen > pass_count:
            ctx.log("dropped by experiment filter")
            ctx.drop()
    return receive_filter


def execute(vendor: VendorProfile, *, seed: int = 0,
            max_time: float = 2000.0) -> TCPTestbed:
    """Drive Experiment 1 against one vendor; returns the run testbed.

    Split from :func:`run_retransmission_experiment` so the conformance
    oracle can evaluate the raw trace of exactly the run the table is
    summarized from.
    """
    testbed = build_tcp_testbed(vendor, seed=seed)
    client, _server = open_connection(testbed)
    stream_from_vendor(testbed, client, segments=40, interval=0.5)
    testbed.pfi.set_receive_filter(drop_after_script())
    testbed.env.run_until(max_time)
    return testbed


def run_retransmission_experiment(vendor: VendorProfile, *, seed: int = 0,
                                  max_time: float = 2000.0) -> RetransmissionResult:
    """Run Experiment 1 against one vendor profile."""
    testbed = execute(vendor, seed=seed, max_time=max_time)
    return summarize(testbed, vendor)


def summarize(testbed: TCPTestbed, vendor: VendorProfile) -> RetransmissionResult:
    trace = testbed.trace
    conn = "vendor:5000"
    seq = most_retransmitted_seq(trace, conn)
    intervals = retransmission_series(trace, conn, seq)
    resets = trace.entries("tcp.transmit", conn=conn, msg_type="RST")
    dropped = trace.first("tcp.conn_dropped", conn=conn)
    return RetransmissionResult(
        vendor=vendor.name,
        retransmissions=trace.count("tcp.retransmit", conn=conn, seq=seq),
        reset_sent=bool(resets),
        close_reason=dropped.get("reason") if dropped else None,
        intervals=intervals,
        upper_bound=plateau_value(intervals),
        backoff_exponential=is_exponential_backoff(
            intervals, cap=vendor.max_rto, floor=vendor.min_rto),
        logged_packets=trace.count("pfi.log", node="xkernel"),
    )


def run_all(seed: int = 0) -> Dict[str, RetransmissionResult]:
    """Table 1: every vendor."""
    return {name: run_retransmission_experiment(profile, seed=seed)
            for name, profile in VENDORS.items()}


def invariants():
    """The conformance pack that must hold over this experiment's traces."""
    from repro.oracle import tcp_pack
    return tcp_pack()


def conformance_runs(seed: int = 0):
    """Representative labelled traces for the conformance suite."""
    for name, profile in VENDORS.items():
        yield f"retransmission/{name}", execute(profile, seed=seed).trace


def table_rows(results: Dict[str, RetransmissionResult]) -> List[List[object]]:
    """Rows in the paper's Table 1 layout."""
    rows = []
    for name, r in results.items():
        shape = "exponential" if r.backoff_exponential else "NOT exponential"
        bound = (f"upper bound {r.upper_bound:.0f} s"
                 if r.upper_bound else "no upper bound reached")
        close = ("TCP reset sent, connection closed" if r.reset_sent
                 else "connection closed abruptly, no reset")
        rows.append([name,
                     f"retransmitted {r.retransmissions} times; "
                     f"backoff {shape}; {bound}",
                     close])
    return rows


def figure_rows(results: Dict[str, object]) -> List[str]:
    """Figure 4 lines: each vendor's gaps before every retransmission.

    Serves this experiment's results and ``tcp_delayed_ack``'s alike:
    both carry ``intervals``.
    """
    return [f"{name:<13s} " + " ".join(f"{v:7.2f}" for v in r.intervals)
            for name, r in results.items()]
