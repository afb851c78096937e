"""Deterministic discrete-event network simulator.

This package is the substrate beneath every experiment in the repository.
The paper ran its experiments against real machines on a campus LAN; we run
them against a virtual network driven by a virtual clock so that a 112-hour
keep-alive experiment completes in milliseconds and every run is exactly
reproducible.

The pieces:

- :class:`~repro.netsim.scheduler.Scheduler` -- the virtual clock and event
  heap.  Everything in the repository that needs time (TCP retransmission
  timers, GMP heartbeats, PFI message delays) schedules callbacks here;
  ``run``, ``run_until`` and ``run_until_quiet`` share one dispatch loop.
- :class:`~repro.netsim.timer.Timer` -- restartable one-shot timer built on
  the scheduler, the idiom protocol code uses (keyed tables of them are
  the protocol's own, e.g. :class:`repro.gmp.timers.GmpTimerTable`).
- :class:`~repro.netsim.link.Link` -- a unidirectional point-to-point pipe
  with latency, jitter, probabilistic loss, and an up/down switch (the
  "unplug the ethernet" experiment).
- :class:`~repro.netsim.node.Node` -- an addressable endpoint that owns a
  protocol stack.
- :class:`~repro.netsim.network.Network` -- a mesh of nodes and links with
  partition support.
- :class:`~repro.netsim.trace.TraceRecorder` -- timestamped event capture
  used by the experiment harness to reconstruct the paper's tables, queried
  through one per-kind index.
"""

from repro.netsim.link import Link
from repro.netsim.network import Network
from repro.netsim.node import Node
from repro.netsim.scheduler import Event, Scheduler, SchedulerError
from repro.netsim.timer import Timer
from repro.netsim.trace import TraceEntry, TraceRecorder

__all__ = [
    "Event",
    "Link",
    "Network",
    "Node",
    "Scheduler",
    "SchedulerError",
    "Timer",
    "TraceEntry",
    "TraceRecorder",
]
