"""RFC-793-style conformance invariants for the TCP traces.

Each invariant folds per-connection state over the kinds the connection
machinery records (:mod:`repro.tcp.connection`, ``retransmit``,
``window``).  They are written against what a *conforming* endpoint may
emit, not against what this implementation happens to do -- the
no-false-positive conformance suite pins the former, the fuzzer hunts for
scripts that break the latter.

Sequence arithmetic is 32-bit modular throughout
(:func:`repro.tcp.segment.seq_lt` and friends): "monotone" always means
monotone in sequence space, not in Python integers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.oracle.invariants import EPS, Invariant, Violation
from repro.tcp.segment import SEQ_MOD, seq_leq, seq_lt

#: the RFC-793 connection-state transition diagram, as (old -> allowed
#: new) -- teardown to CLOSED is legal from every state (RST received,
#: retransmission give-up, keep-alive death, abort) and is handled
#: separately
ALLOWED_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    "CLOSED": ("SYN_SENT", "LISTEN"),
    "LISTEN": ("SYN_RCVD",),
    "SYN_SENT": ("ESTABLISHED", "SYN_RCVD"),
    "SYN_RCVD": ("ESTABLISHED", "FIN_WAIT_1"),
    "ESTABLISHED": ("FIN_WAIT_1", "CLOSE_WAIT"),
    "FIN_WAIT_1": ("FIN_WAIT_2", "CLOSING", "TIME_WAIT"),
    "FIN_WAIT_2": ("TIME_WAIT",),
    "CLOSING": ("TIME_WAIT",),
    "CLOSE_WAIT": ("LAST_ACK",),
    "LAST_ACK": (),
    "TIME_WAIT": (),
}

#: sequence space consumed by each segment type beyond its payload
_FLAG_CONSUMPTION = {"SYN": 1, "SYNACK": 1, "FIN": 1}


def _seg_end(seq: int, msg_type: str, length: int) -> int:
    """First sequence number *after* the segment (RFC-793 SEG.SEQ+SEG.LEN)."""
    return (seq + length + _FLAG_CONSUMPTION.get(msg_type, 0)) % SEQ_MOD


class TcpStateTransitions(Invariant):
    """``tcp.state`` transitions follow the RFC-793 state diagram.

    Also checks continuity: a connection cannot teleport -- each
    recorded transition must start from the state the previous one
    ended in.
    """

    code = "TCP-STATE"
    description = ("connection state transitions stay on the RFC-793 "
                   "diagram and are continuous per connection")
    kinds = ("tcp.state",)

    def __init__(self) -> None:
        self._current: Dict[str, str] = {}

    def on_entry(self, entry):
        attrs = entry.attrs
        conn, old, new = attrs["conn"], attrs["old"], attrs["new"]
        out: List[Violation] = []
        known = self._current.get(conn)
        if known is not None and known != old:
            out.append(self.violation(
                entry, f"discontinuous transition: connection was in "
                       f"{known} but transition starts from {old}"))
        self._current[conn] = new
        if new != "CLOSED" and new not in ALLOWED_TRANSITIONS.get(old, ()):
            out.append(self.violation(
                entry, f"illegal transition {old} -> {new}"))
        return out


class TcpSndNxtMonotone(Invariant):
    """SND.NXT never moves backwards.

    Every sequence-consuming first transmission must start exactly at
    the current SND.NXT and pure ACKs must sit on it; a first
    transmission below SND.NXT is a regression, one above it is a send
    gap.  Retransmissions, probes (keep-alive and zero-window re-send
    old or provisional sequence space by design) and the simultaneous-
    open SYN-ACK re-emission are exempt.
    """

    code = "TCP-SND-NXT"
    description = "first transmissions consume sequence space monotonically"
    kinds = ("tcp.transmit",)

    _EXEMPT_PURPOSES = ("retransmission", "keepalive_probe", "zwp_probe",
                        "simultaneous_synack")

    def __init__(self) -> None:
        self._nxt: Dict[str, int] = {}

    def on_entry(self, entry):
        attrs = entry.attrs
        if attrs.get("retransmission") or attrs.get("probe"):
            return None
        if attrs.get("purpose") in self._EXEMPT_PURPOSES:
            return None
        conn, seq = attrs["conn"], attrs["seq"]
        msg_type, length = attrs["msg_type"], attrs["length"]
        nxt = self._nxt.get(conn)
        if nxt is None:
            self._nxt[conn] = _seg_end(seq, msg_type, length)
            return None
        out: List[Violation] = []
        if seq_lt(seq, nxt):
            out.append(self.violation(
                entry, f"{msg_type} transmitted at seq={seq} below "
                       f"SND.NXT={nxt} (sequence-space regression)"))
        elif seq_lt(nxt, seq):
            out.append(self.violation(
                entry, f"{msg_type} transmitted at seq={seq} beyond "
                       f"SND.NXT={nxt} (sequence-space gap)"))
        end = _seg_end(seq, msg_type, length)
        if not seq_lt(end, nxt):
            self._nxt[conn] = end
        return out


class TcpRtoBackoff(Invariant):
    """Timeout retransmissions back off exponentially, bounded by 2x.

    Between two retransmissions of a connection with **no intervening
    inbound segment**, the retransmission timeout must not shrink (the
    backoff shift only grows without an ACK) and must at most double
    (shift increments by one per timeout; the RTO cap can keep it
    flat).  An inbound segment may legitimately reset the backoff or
    re-estimate the RTT, so it restarts the chain.
    """

    code = "TCP-RTO-BACKOFF"
    description = ("retransmission timeouts stay within [prev, 2*prev] "
                   "absent an inbound segment, and are positive")
    kinds = ("tcp.retransmit", "tcp.receive")

    def __init__(self) -> None:
        # conn -> (last rto, receive count when it was recorded)
        self._chain: Dict[str, Tuple[float, int]] = {}
        self._receives: Dict[str, int] = {}

    def on_entry(self, entry):
        attrs = entry.attrs
        conn = attrs["conn"]
        if entry.kind == "tcp.receive":
            self._receives[conn] = self._receives.get(conn, 0) + 1
            return None
        rto = attrs["rto"]
        out: List[Violation] = []
        if not rto > 0:
            out.append(self.violation(
                entry, f"non-positive retransmission timeout rto={rto!r}"))
        seen = self._receives.get(conn, 0)
        chain = self._chain.get(conn)
        if chain is not None and chain[1] == seen:
            prev = chain[0]
            if rto < prev - EPS:
                out.append(self.violation(
                    entry, f"rto shrank {prev:.6f} -> {rto:.6f} with no "
                           f"inbound segment to justify a backoff reset"))
            elif rto > 2 * prev + EPS:
                out.append(self.violation(
                    entry, f"rto grew {prev:.6f} -> {rto:.6f}, more than "
                           f"the exponential-backoff doubling bound"))
        self._chain[conn] = (rto, seen)
        return out


class TcpAckUnsent(Invariant):
    """An endpoint never acknowledges data it has not received.

    Folds the highest in-sequence-space received segment end per
    connection from ``tcp.receive`` (post-fault-injection, so corrupted
    segments count as what actually arrived) and requires every
    transmitted ACK value to stay at or below it.
    """

    code = "TCP-ACK-UNSENT"
    description = "transmitted ACK values never exceed received data"
    kinds = ("tcp.transmit", "tcp.receive")

    def __init__(self) -> None:
        self._max_end: Dict[str, int] = {}

    def on_entry(self, entry):
        attrs = entry.attrs
        conn = attrs["conn"]
        if entry.kind == "tcp.receive":
            end = _seg_end(attrs["seq"], attrs["msg_type"], attrs["length"])
            known = self._max_end.get(conn)
            if known is None or seq_lt(known, end):
                self._max_end[conn] = end
            return None
        ack = attrs["ack"]
        if ack == 0:  # no ACK flag (initial SYN)
            return None
        known = self._max_end.get(conn)
        if known is None:
            return None  # nothing received yet, nothing to bound against
        if not seq_leq(ack, known):
            return [self.violation(
                entry, f"{attrs['msg_type']} acknowledges seq={ack} but "
                       f"highest received segment end is {known}")]
        return None


class TcpZwpCadence(Invariant):
    """Zero-window probes follow the persist-timer discipline.

    Probes may only appear inside an open persist window
    (``tcp.persist_start`` .. ``tcp.persist_stop``), their intervals
    must grow monotonically but at most double (exponential backoff
    with a vendor cap), and the per-connection probe numbering must be
    consecutive.
    """

    code = "TCP-ZWP"
    description = ("zero-window probes stay inside persist windows with "
                   "doubling-bounded intervals and consecutive numbering")
    kinds = ("tcp.zwp_probe", "tcp.persist_start", "tcp.persist_stop")

    def __init__(self) -> None:
        self._active: Dict[str, bool] = {}
        self._interval: Dict[str, Optional[float]] = {}
        self._number: Dict[str, int] = {}

    def on_entry(self, entry):
        attrs = entry.attrs
        conn = attrs["conn"]
        if entry.kind == "tcp.persist_start":
            self._active[conn] = True
            self._interval[conn] = None  # backoff restarts per window
            return None
        if entry.kind == "tcp.persist_stop":
            self._active[conn] = False
            return None
        out: List[Violation] = []
        if not self._active.get(conn, False):
            out.append(self.violation(
                entry, "zero-window probe outside an open persist window"))
        interval = attrs["interval"]
        prev = self._interval.get(conn)
        if prev is not None:
            if interval < prev - EPS:
                out.append(self.violation(
                    entry, f"probe interval shrank {prev:.6f} -> "
                           f"{interval:.6f} within one persist window"))
            elif interval > 2 * prev + EPS:
                out.append(self.violation(
                    entry, f"probe interval grew {prev:.6f} -> "
                           f"{interval:.6f}, more than doubling"))
        self._interval[conn] = interval
        number = attrs["number"]
        expected = self._number.get(conn, 0) + 1
        if number != expected:
            out.append(self.violation(
                entry, f"probe number {number} is not consecutive "
                       f"(expected {expected})"))
        self._number[conn] = number
        return out


def tcp_pack() -> List[Invariant]:
    """Fresh instances of the full TCP conformance pack."""
    return [TcpStateTransitions(), TcpSndNxtMonotone(), TcpRtoBackoff(),
            TcpAckUnsent(), TcpZwpCadence()]
