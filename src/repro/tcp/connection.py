"""The TCP connection state machine.

A :class:`TCPConnection` is one endpoint of a connection: handshake, data
transfer with flow control, retransmission, keep-alive, zero-window
probing, out-of-order reassembly, and teardown.  All vendor-specific
behaviour comes from the :class:`~repro.tcp.vendors.VendorProfile`; the
machine itself is shared.

The connection is transport-agnostic: it emits segments through a
``transmit(segment)`` callable supplied by whoever owns it (usually
:class:`repro.tcp.protocol.TCPProtocol`, which routes through the
protocol stack and hence through any spliced PFI layer) and ingests
segments via :meth:`on_segment`.

Simplifications relative to a production stack, none of which the paper's
experiments depend on: no congestion control (the experiments are
flow-control and timer driven), no urgent data, no TCP options/MSS
negotiation (both ends use the profile MSS), and an abbreviated TIME_WAIT.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.netsim.scheduler import Scheduler
from repro.netsim.trace import TraceRecorder
from repro.tcp.keepalive import KeepAliveEngine
from repro.tcp.reassembly import ReassemblyQueue
from repro.tcp.retransmit import RetransmissionManager, TrackedSegment
from repro.tcp.rtt import make_estimator
from repro.tcp.segment import (ACK, FIN, PSH, RST, SEQ_HALF, SEQ_MOD, SYN,
                               Segment, classify, seq_add, seq_sub)
from repro.tcp.vendors import VendorProfile
from repro.netsim import kinds as K

# connection states (RFC-793 names)
CLOSED = "CLOSED"
LISTEN = "LISTEN"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT_1 = "FIN_WAIT_1"
FIN_WAIT_2 = "FIN_WAIT_2"
CLOSE_WAIT = "CLOSE_WAIT"
CLOSING = "CLOSING"
LAST_ACK = "LAST_ACK"
TIME_WAIT = "TIME_WAIT"

_DATA_STATES = (ESTABLISHED, FIN_WAIT_1, FIN_WAIT_2, CLOSE_WAIT)

# The per-segment paths (on_segment through _try_send) test flag bits and
# do sequence arithmetic inline, in the same expressions as segment.py's
# helpers: seq_lt(a, b) is ``(a - b) % SEQ_MOD > SEQ_HALF``, seq_leq(a, b)
# is ``a == b or`` that, seq_add(a, n) is ``(a + n) % SEQ_MOD``.


class TCPConnection:
    """One endpoint of a TCP connection."""

    def __init__(self, scheduler: Scheduler, profile: VendorProfile, *,
                 local_port: int, remote_port: int,
                 transmit: Callable[[Segment], None],
                 trace: Optional[TraceRecorder] = None,
                 name: str = "", iss: int = 1000):
        self.scheduler = scheduler
        self.profile = profile
        self.local_port = local_port
        self.remote_port = remote_port
        self._transmit = transmit
        self.trace = trace
        self.name = name or f"{profile.name}:{local_port}"

        self.state = CLOSED
        self.close_reason: Optional[str] = None

        # send side
        self.iss = iss
        self.snd_una = iss
        self.snd_nxt = iss
        self.snd_wnd = 0
        self._send_buffer = bytearray()

        # receive side
        self.irs: Optional[int] = None
        self.rcv_nxt = 0
        self._rcv_pending = bytearray()  # accepted, not yet consumed by app
        self._consuming = True
        self.reassembly = ReassemblyQueue()

        # engines
        self.estimator = make_estimator(profile)
        self.retx = RetransmissionManager(
            scheduler, self.estimator, profile,
            retransmit=self._retransmit_segment,
            give_up=self._on_retx_give_up,
            trace=trace, name=self.name)
        self.keepalive = KeepAliveEngine(
            scheduler, profile,
            send_probe=self._send_keepalive_probe,
            on_dead=self._on_keepalive_dead,
            trace=trace, name=self.name)
        self.persist = PersistHook(self)
        from repro.netsim.timer import Timer as _Timer
        self._delack_timer = _Timer(scheduler, self._delack_fire,
                                    name=f"delack/{self.name}")
        self.congestion = None
        if profile.congestion_control:
            from repro.tcp.congestion import TahoeController
            from repro.netsim.scheduler import SchedulerClock
            self.congestion = TahoeController(
                profile, trace=trace, clock=SchedulerClock(scheduler),
                name=self.name)
            self.retx.on_timeout_event = self._on_congestion_timeout

        # app callbacks
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_close: Optional[Callable[[str], None]] = None
        self.on_established: Optional[Callable[[], None]] = None

        # counters for experiments
        self.segments_sent = 0
        self.segments_received = 0
        self.resets_sent = 0
        self.delivered = bytearray()

    # ------------------------------------------------------------------
    # application API
    # ------------------------------------------------------------------

    def connect(self) -> None:
        """Active open: send SYN."""
        if self.state != CLOSED:
            raise RuntimeError(f"connect() in state {self.state}")
        self._set_state(SYN_SENT)
        syn = self._emit(SYN, seq=self.snd_nxt, purpose="syn")
        self.snd_nxt = seq_add(self.snd_nxt, 1)
        self.retx.track(syn)

    def listen(self) -> None:
        """Passive open: wait for a SYN."""
        if self.state != CLOSED:
            raise RuntimeError(f"listen() in state {self.state}")
        self._set_state(LISTEN)

    def send(self, data: bytes) -> None:
        """Queue application data for transmission."""
        if self.state not in (ESTABLISHED, CLOSE_WAIT, SYN_SENT, SYN_RCVD):
            raise RuntimeError(f"send() in state {self.state}")
        self._send_buffer.extend(data)
        self._try_send()

    def close(self) -> None:
        """Graceful close: FIN after pending data."""
        if self.state in (CLOSED, LISTEN):
            self._teardown("closed")
            return
        if self.state == ESTABLISHED:
            self._set_state(FIN_WAIT_1)
        elif self.state == CLOSE_WAIT:
            self._set_state(LAST_ACK)
        else:
            return
        fin = self._emit(FIN | ACK, seq=self.snd_nxt, purpose="fin")
        self.snd_nxt = seq_add(self.snd_nxt, 1)
        self.retx.track(fin)

    def abort(self, *, send_reset: bool = True, reason: str = "aborted") -> None:
        """Hard close, optionally emitting a RST."""
        if send_reset and self.state not in (CLOSED, LISTEN):
            self._send_reset()
        self._teardown(reason)

    def enable_keepalive(self) -> None:
        """Turn on keep-alive probing for this connection."""
        self.keepalive.enable()

    def set_consuming(self, consuming: bool) -> None:
        """Control whether the app drains the receive buffer.

        ``set_consuming(False)`` is the zero-window experiment's driver
        trick: received data accumulates, the advertised window shrinks to
        zero, and the peer must start window probing.  Re-enabling
        consumption drains the buffer and announces the reopened window.
        """
        was_zero = self.advertised_window() == 0
        self._consuming = consuming
        if consuming:
            self._drain_pending()
            if was_zero and self.advertised_window() > 0 and \
                    self.state in _DATA_STATES:
                self._emit(ACK, seq=self.snd_nxt, purpose="window_update")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def is_open(self) -> bool:
        """True while the connection has not been torn down."""
        return self.state not in (CLOSED,) or self.close_reason is None

    @property
    def established(self) -> bool:
        return self.state == ESTABLISHED

    def advertised_window(self) -> int:
        """Receive window we offer the peer."""
        return max(0, self.profile.recv_buffer - len(self._rcv_pending))

    def bytes_in_flight(self) -> int:
        return seq_sub(self.snd_nxt, self.snd_una)

    def unsent_bytes(self) -> int:
        return len(self._send_buffer)

    # ------------------------------------------------------------------
    # segment ingestion
    # ------------------------------------------------------------------

    def on_segment(self, seg: Segment) -> None:
        """Process one inbound segment."""
        state = self.state
        if state == CLOSED:
            if not seg.flags & RST:
                self._send_reset(ack_of=seg)
            return
        self.segments_received += 1
        self.keepalive.on_segment_received()
        trace = self.trace
        if trace is not None:   # _record, without re-packing the keywords
            trace.record(K.TCP_RECEIVE, t=self.scheduler.now, conn=self.name,
                         msg_type=classify(seg), seq=seg.seq, ack=seg.ack,
                         win=seg.window, length=len(seg.payload))

        if seg.flags & RST:
            self._teardown("reset_received")
        elif state == LISTEN:
            self._in_listen(seg)
        elif state == SYN_SENT:
            self._in_syn_sent(seg)
        elif state == SYN_RCVD:
            self._in_syn_rcvd(seg)
        else:
            self._in_synchronized(seg)

    # -- handshake states ------------------------------------------------

    def _in_listen(self, seg: Segment) -> None:
        if not seg.is_syn:
            return
        self.irs = seg.seq
        self.rcv_nxt = seq_add(seg.seq, 1)
        self.snd_wnd = seg.window
        self._set_state(SYN_RCVD)
        synack = self._emit(SYN | ACK, seq=self.snd_nxt, purpose="synack")
        self.snd_nxt = seq_add(self.snd_nxt, 1)
        self.retx.track(synack)

    def _in_syn_sent(self, seg: Segment) -> None:
        if seg.is_syn and seg.is_ack and seg.ack == seq_add(self.iss, 1):
            self.irs = seg.seq
            self.rcv_nxt = seq_add(seg.seq, 1)
            self.snd_una = seg.ack
            self.snd_wnd = seg.window
            self.retx.on_ack(seg.ack)
            self._set_state(ESTABLISHED)
            self._emit(ACK, seq=self.snd_nxt, purpose="handshake_ack")
            if self.on_established:
                self.on_established()
            self._try_send()
            return
        if seg.is_syn and not seg.is_ack:
            # simultaneous open (RFC-793 figure 8): both ends sent SYNs;
            # acknowledge theirs and wait for the ACK of ours
            self.irs = seg.seq
            self.rcv_nxt = seq_add(seg.seq, 1)
            self.snd_wnd = seg.window
            self._set_state(SYN_RCVD)
            self._emit(SYN | ACK, seq=self.iss, purpose="simultaneous_synack")

    def _in_syn_rcvd(self, seg: Segment) -> None:
        if seg.is_ack and seg.ack == seq_add(self.iss, 1):
            self.snd_una = seg.ack
            self.snd_wnd = seg.window
            self.retx.on_ack(seg.ack)
            self._set_state(ESTABLISHED)
            if self.on_established:
                self.on_established()
            self._try_send()
            if len(seg.payload) or seg.is_fin:
                self._in_synchronized(seg)

    # -- synchronized states ----------------------------------------------

    def _in_synchronized(self, seg: Segment) -> None:
        if seg.flags & ACK:
            self._process_ack(seg)
        if seg.payload:
            self._process_data(seg)
        elif not seg.flags & (SYN | FIN) \
                and (seg.seq - self.rcv_nxt) % SEQ_MOD > SEQ_HALF:
            # zero-length segment below the window: a keep-alive probe of
            # the AIX/NeXT form; elicit the ACK it is designed to elicit
            self._emit(ACK, seq=self.snd_nxt, purpose="dup_ack")
        if seg.flags & FIN:
            self._process_fin(seg)

    def _process_ack(self, seg: Segment) -> None:
        ack = seg.ack
        acceptable = (self.snd_una - ack) % SEQ_MOD > SEQ_HALF and (
            ack == self.snd_nxt or (ack - self.snd_nxt) % SEQ_MOD > SEQ_HALF)
        if self.congestion is not None and not acceptable \
                and ack == self.snd_una and not seg.payload \
                and not seg.flags & (SYN | FIN) \
                and self.retx.outstanding > 0:
            # a duplicate ACK: the receiver is missing our oldest segment
            if self.congestion.on_duplicate_ack(self.bytes_in_flight()):
                self.retx.force_retransmit()
        if acceptable:
            self.snd_una = ack
            if self.congestion is not None:
                self.congestion.on_new_ack(self.bytes_in_flight())
            self.retx.on_ack(ack)
            if self.state == FIN_WAIT_1 and self.snd_una == self.snd_nxt:
                self._set_state(FIN_WAIT_2)
            elif self.state == CLOSING and self.snd_una == self.snd_nxt:
                self._enter_time_wait()
            elif self.state == LAST_ACK and self.snd_una == self.snd_nxt:
                self._teardown("closed")
                return
        # window update from any segment acking current data
        if ack == self.snd_nxt or (ack - self.snd_nxt) % SEQ_MOD > SEQ_HALF:
            self.snd_wnd = seg.window
        if self.snd_wnd > 0:
            self.persist.window_opened()
            self._try_send()
        else:
            self._maybe_start_persist()

    def _process_data(self, seg: Segment) -> None:
        data_seq = (seg.seq + 1) % SEQ_MOD if seg.flags & SYN else seg.seq
        payload = seg.payload
        if data_seq == self.rcv_nxt:
            capacity = self.advertised_window()
            accepted = payload[:capacity]
            if accepted:
                self.rcv_nxt = (self.rcv_nxt + len(accepted)) % SEQ_MOD
                self._rcv_pending.extend(accepted)
                extra, self.rcv_nxt = self.reassembly.extract(self.rcv_nxt)
                if extra:
                    self._rcv_pending.extend(extra)
                self._drain_pending()
            self._ack_in_order_data()
        elif (self.rcv_nxt - data_seq) % SEQ_MOD > SEQ_HALF:
            if self.profile.queue_out_of_order:
                self.reassembly.add(data_seq, payload)
                self._record(K.TCP_OOO_QUEUED, seq=data_seq,
                             length=len(payload))
            else:
                self._record(K.TCP_OOO_DROPPED, seq=data_seq,
                             length=len(payload))
            self._emit(ACK, seq=self.snd_nxt, purpose="dup_ack")
        else:
            # wholly or partly old data (retransmission, keep-alive with
            # garbage byte, zero-window probe): acknowledge current state
            end = (data_seq + len(payload)) % SEQ_MOD
            if (self.rcv_nxt - end) % SEQ_MOD > SEQ_HALF:
                fresh = payload[(self.rcv_nxt - data_seq) % SEQ_MOD:]
                capacity = self.advertised_window()
                accepted = fresh[:capacity]
                if accepted:
                    self.rcv_nxt = (self.rcv_nxt + len(accepted)) % SEQ_MOD
                    self._rcv_pending.extend(accepted)
                    self._drain_pending()
            self._emit(ACK, seq=self.snd_nxt, purpose="dup_ack")

    def _process_fin(self, seg: Segment) -> None:
        fin_seq = seq_add(seg.seq, len(seg.payload))
        if fin_seq != self.rcv_nxt:
            return  # FIN not yet in order
        self.rcv_nxt = seq_add(self.rcv_nxt, 1)
        self._emit(ACK, seq=self.snd_nxt, purpose="fin_ack")
        if self.state in (ESTABLISHED,):
            self._set_state(CLOSE_WAIT)
        elif self.state == FIN_WAIT_1:
            self._set_state(CLOSING)
        elif self.state == FIN_WAIT_2:
            self._enter_time_wait()

    def _enter_time_wait(self) -> None:
        self._set_state(TIME_WAIT)
        # abbreviated 2*MSL
        self.scheduler.schedule(2.0, self._teardown, "closed")

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------

    def _try_send(self) -> None:
        if self.state not in (ESTABLISHED, CLOSE_WAIT, FIN_WAIT_1):
            return
        while self._send_buffer:
            allowance = self.snd_wnd
            if self.congestion is not None:
                allowance = self.congestion.send_allowance(self.snd_wnd)
            window_room = allowance - (self.snd_nxt - self.snd_una) % SEQ_MOD
            if window_room <= 0:
                self._maybe_start_persist()
                return
            chunk_len = min(self.profile.mss, window_room,
                            len(self._send_buffer))
            chunk = bytes(self._send_buffer[:chunk_len])
            del self._send_buffer[:chunk_len]
            self._delack_timer.stop()  # the data segment carries the ACK
            seg = self._emit(ACK | PSH, seq=self.snd_nxt, payload=chunk,
                             purpose="data")
            self.snd_nxt = (self.snd_nxt + chunk_len) % SEQ_MOD
            self.retx.track(seg)

    def _maybe_start_persist(self) -> None:
        if (self.snd_wnd == 0 and self._send_buffer
                and self.retx.outstanding == 0
                and self.state in _DATA_STATES):
            self.persist.start()

    def _retransmit_segment(self, original: Segment) -> None:
        # rebuild with the current ack/window (cumulative ACK may have moved)
        self._emit(original.flags, seq=original.seq, payload=original.payload,
                   purpose="retransmission", retransmission=True)

    def _send_keepalive_probe(self) -> None:
        payload = b"\x00" if self.profile.ka_garbage_byte else b""
        self._emit(ACK, seq=seq_sub(self.snd_nxt, 1) if payload else
                   seq_sub(self.snd_nxt, 1), payload=payload,
                   purpose="keepalive_probe", probe=True)

    def _send_zero_window_probe(self) -> None:
        if not self._send_buffer:
            return
        probe_byte = bytes(self._send_buffer[:1])
        self._emit(ACK, seq=self.snd_nxt, payload=probe_byte,
                   purpose="zwp_probe", probe=True)

    def _ack_in_order_data(self) -> None:
        """Acknowledge in-order data, honouring RFC-1122 delayed ACKs.

        Without delayed ACKs (the default, and the paper's setting), every
        in-order segment is ACKed immediately.  With them, the first ACK
        is held up to ``delayed_ack_timeout``; a second in-order segment
        flushes it at once, so at most every other segment goes unACKed
        transiently.
        """
        if not self.profile.delayed_ack:
            self._emit(ACK, seq=self.snd_nxt, purpose="ack")
            return
        if self._delack_timer.armed:
            self._delack_timer.stop()
            self._emit(ACK, seq=self.snd_nxt, purpose="ack")
        else:
            self._delack_timer.start(self.profile.delayed_ack_timeout)

    def _delack_fire(self) -> None:
        if self.state in _DATA_STATES:
            self._emit(ACK, seq=self.snd_nxt, purpose="delayed_ack")

    def _send_reset(self, ack_of: Optional[Segment] = None) -> None:
        self.resets_sent += 1
        seq = self.snd_nxt
        self._emit(RST | ACK, seq=seq, purpose="reset")

    # ------------------------------------------------------------------
    # teardown paths
    # ------------------------------------------------------------------

    def _on_congestion_timeout(self) -> None:
        if self.congestion is not None:
            self.congestion.on_timeout(self.bytes_in_flight())

    def _on_retx_give_up(self, oldest: TrackedSegment) -> None:
        if self.profile.reset_on_timeout:
            self._send_reset()
        self._teardown("retransmission_timeout")

    def _on_keepalive_dead(self) -> None:
        if self.profile.ka_reset_on_fail:
            self._send_reset()
        self._teardown("keepalive_timeout")

    def _teardown(self, reason: str) -> None:
        if self.state == CLOSED and self.close_reason is not None:
            return
        self._set_state(CLOSED)
        self.close_reason = reason
        self.retx.stop()
        self.keepalive.stop()
        self.persist.stop()
        self._delack_timer.stop()
        self._record(K.TCP_CONN_DROPPED, reason=reason)
        if self.on_close:
            self.on_close(reason)

    def dismantle(self) -> None:
        """The world's run is over (:meth:`~repro.tcp.protocol
        .TCPProtocol.teardown`): let go of the engines, which call back
        into this connection, and of the timers, whose callbacks are
        their owners' own methods, so the connection dies by reference
        counting.  Its own state and counters stay readable; ``retx``,
        ``keepalive`` and ``persist`` are gone."""
        for engine in (self.retx, self.keepalive, self.persist._prober):
            engine._timer = None
        self.retx = self.keepalive = self.persist = None
        self._delack_timer = self._transmit = None

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _emit(self, flags: int, *, seq: int, payload: bytes = b"",
              purpose: str = "", retransmission: bool = False,
              probe: bool = False) -> Segment:
        seg = Segment(src_port=self.local_port, dst_port=self.remote_port,
                      seq=seq, ack=self.rcv_nxt if flags & ACK else 0,
                      flags=flags, window=self.advertised_window(),
                      payload=payload)
        self.segments_sent += 1
        trace = self.trace
        if trace is not None:   # _record, without re-packing the keywords
            trace.record(K.TCP_TRANSMIT, t=self.scheduler.now, conn=self.name,
                         msg_type=classify(seg), seq=seg.seq, ack=seg.ack,
                         win=seg.window, length=len(payload), purpose=purpose,
                         retransmission=retransmission, probe=probe)
        self._transmit(seg)
        return seg

    def _drain_pending(self) -> None:
        if not self._consuming or not self._rcv_pending:
            return
        data = bytes(self._rcv_pending)
        self._rcv_pending.clear()
        self.delivered.extend(data)
        if self.on_data:
            self.on_data(data)

    def _set_state(self, state: str) -> None:
        old = self.state
        self.state = state
        self._record(K.TCP_STATE, old=old, new=state)

    def _record(self, kind: str, /, **attrs) -> None:
        if self.trace is not None:
            self.trace.record(kind, t=self.scheduler.now, conn=self.name,
                              **attrs)

    def __repr__(self) -> str:
        return (f"TCPConnection({self.name}, {self.state}, "
                f"snd_una={self.snd_una}, snd_nxt={self.snd_nxt}, "
                f"rcv_nxt={self.rcv_nxt})")


class PersistHook:
    """Thin adapter wiring :class:`PersistProber` to a connection."""

    def __init__(self, conn: TCPConnection):
        from repro.tcp.window import PersistProber
        self._prober = PersistProber(
            conn.scheduler, conn.profile,
            send_probe=conn._send_zero_window_probe,
            trace=conn.trace, name=conn.name)

    @property
    def active(self) -> bool:
        return self._prober.active

    @property
    def probes_sent(self) -> int:
        return self._prober.probes_sent

    def start(self) -> None:
        self._prober.start()

    def stop(self) -> None:
        self._prober.stop()

    def window_opened(self) -> None:
        self._prober.stop()
