"""Zero-window (persist) probing.

"Probing of zero (offered) windows MUST be supported ... If zero window
probing is not supported, a connection may hang forever when an ACK
segment that re-opens the window is lost."

The prober starts when the peer advertises a zero window while data is
waiting, sends one-byte probes with exponentially increasing intervals
capped at ``persist_max`` (60 s BSD, 56 s Solaris), and -- matching the
paper's observation, "while not a specification violation, it seems that
transmitting zero window probes forever even when they are not ACKed could
pose a problem" -- never gives up.  Only a window opening (or connection
teardown) stops it, which is why the paper's machines were still probing
two days after the ethernet was unplugged.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.netsim.scheduler import Scheduler
from repro.netsim.timer import Timer
from repro.netsim.trace import TraceRecorder
from repro.tcp.vendors import VendorProfile
from repro.netsim import kinds as K


class PersistProber:
    """Zero-window probe driver for one connection."""

    def __init__(self, scheduler: Scheduler, profile: VendorProfile, *,
                 send_probe: Callable[[], None],
                 trace: Optional[TraceRecorder] = None,
                 name: str = ""):
        self._scheduler = scheduler
        self._p = profile
        self._send_probe = send_probe
        self._trace = trace
        self._name = name
        self._timer = Timer(scheduler, self._fire, name=f"persist/{name}")
        self.active = False
        self.probes_sent = 0
        self._interval = profile.persist_initial

    def start(self) -> None:
        """Enter the persist state (idempotent)."""
        if self.active:
            return
        self.active = True
        self._interval = self._p.persist_initial
        self._record(K.TCP_PERSIST_START)
        self._timer.start(self._interval)

    def stop(self) -> None:
        """Leave the persist state (window opened or connection closed)."""
        if not self.active:
            return
        self.active = False
        self._timer.stop()
        self._record(K.TCP_PERSIST_STOP)

    def _fire(self) -> None:
        if not self.active:
            return
        self.probes_sent += 1
        self._record(K.TCP_ZWP_PROBE, number=self.probes_sent,
                     interval=self._interval)
        self._send_probe()
        self._interval = min(self._interval * 2, self._p.persist_max)
        self._timer.start(self._interval)

    def _record(self, kind: str, /, **attrs) -> None:
        if self._trace is not None:
            self._trace.record(kind, t=self._scheduler.now, conn=self._name,
                               **attrs)
