"""Keep-alive probing.

"There is no provision in the TCP specification for probing idle
connections ...  However, many TCP implementations provide a mechanism
called keep-alive which sends probes periodically that are designed to
elicit an ACK from the peer machine."

The engine reproduces both observed disciplines:

- **BSD** (SunOS/AIX/NeXT): first probe after ``ka_idle`` (>= 7200 s per
  the spec), dropped probes retransmitted at a fixed ``ka_probe_interval``
  (75 s) up to ``ka_probe_retransmits`` (8) times, then a RST and the
  connection is dropped.  SunOS's probe carries one garbage byte at
  ``SND.NXT - 1``; AIX/NeXT send the same sequence number with no data.
- **Solaris**: first probe after 6752 s (a spec violation -- the threshold
  must be >= 7200 s -- which the paper traced to clock-tick skew via
  6752/7200 == 56/60), retransmissions with exponential backoff from the
  minimum RTO, 7 retransmissions, then a silent close (no RST).

Any inbound segment resets the engine to the idle phase, so ACKed probes
repeat at the idle interval indefinitely (the 112-hour Solaris run).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.netsim.scheduler import Scheduler
from repro.netsim.timer import Timer
from repro.netsim.trace import TraceRecorder
from repro.tcp.vendors import VendorProfile
from repro.netsim import kinds as K


class KeepAliveEngine:
    """Drives keep-alive probing for one connection."""

    def __init__(self, scheduler: Scheduler, profile: VendorProfile, *,
                 send_probe: Callable[[], None],
                 on_dead: Callable[[], None],
                 trace: Optional[TraceRecorder] = None,
                 name: str = ""):
        self._scheduler = scheduler
        self._p = profile
        self._send_probe = send_probe
        self._on_dead = on_dead
        self._trace = trace
        self._name = name
        self._timer = Timer(scheduler, self._on_timer, name=f"keepalive/{name}")
        self.enabled = False
        self.probing = False
        self.probes_sent = 0
        self.retransmits = 0
        self._backoff = profile.min_rto

    def enable(self) -> None:
        """Turn keep-alive on (the spec requires it default to off)."""
        self.enabled = True
        self._arm_idle()

    def disable(self) -> None:
        """Turn keep-alive off and cancel any pending probe."""
        self.enabled = False
        self.probing = False
        self._timer.stop()

    def stop(self) -> None:
        """Alias of :meth:`disable`, called on connection teardown."""
        self.disable()

    def on_segment_received(self) -> None:
        """Any inbound traffic proves liveness: back to the idle phase."""
        if not self.enabled:
            return
        self.probing = False
        self.retransmits = 0
        self._backoff = self._p.min_rto
        self._arm_idle()

    def _arm_idle(self) -> None:
        self._timer.start(self._p.ka_idle)

    def _on_timer(self) -> None:
        if not self.enabled:
            return
        if not self.probing:
            self.probing = True
            self.retransmits = 0
            self._backoff = self._p.min_rto
            self._probe(retransmission=False)
            self._arm_retransmit()
            return
        if self.retransmits >= self._p.ka_probe_retransmits:
            self._record(K.TCP_KEEPALIVE_GIVE_UP,
                         retransmits=self.retransmits,
                         reset=self._p.ka_reset_on_fail)
            self.disable()
            self._on_dead()
            return
        self.retransmits += 1
        self._probe(retransmission=True)
        self._arm_retransmit()

    def _arm_retransmit(self) -> None:
        if self._p.ka_backoff:
            interval = self._backoff
            self._backoff = min(self._backoff * 2, self._p.max_rto)
        else:
            interval = self._p.ka_probe_interval
        self._timer.start(interval)

    def _probe(self, retransmission: bool) -> None:
        self.probes_sent += 1
        self._record(K.TCP_KEEPALIVE_PROBE, retransmission=retransmission,
                     number=self.probes_sent)
        self._send_probe()

    def _record(self, kind: str, /, **attrs) -> None:
        if self._trace is not None:
            self._trace.record(kind, t=self._scheduler.now, conn=self._name,
                               **attrs)
