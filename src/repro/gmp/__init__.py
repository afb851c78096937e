"""The strong group membership protocol (GMP) substrate.

The application-level target protocol of the paper's §4.2: a user-level
group membership daemon over UDP with a reliable messaging layer, a
heartbeat failure detector, leader-driven two-phase membership changes,
and proclaim-based joining -- including, behind
:class:`~repro.gmp.bugs.BugFlags`, the four implementation bugs the PFI
tool uncovered in the original student implementation.

Public surface::

    from repro.gmp import (
        Daemon, GmpTiming, GroupView, GmpMessage, BugFlags,
        AS_DELIVERED, FIXED, ReliableChannel, UDPProtocol, GMP_SCHEMA,
    )
"""

from repro.gmp.bugs import AS_DELIVERED, FIXED, BugFlags
from repro.gmp.daemon import (COLLECTING, IN_TRANSITION, STABLE, Daemon,
                              GmpTiming)
from repro.gmp.messages import (ACK, ALL_KINDS, COMMIT, DEAD_REPORT,
                                GMP_SCHEMA, HEARTBEAT, JOIN,
                                MEMBERSHIP_CHANGE, NACK, PROCLAIM,
                                GmpMessage)
from repro.gmp.reliable import RelHeader, ReliableChannel
from repro.gmp.timers import GmpTimerTable
from repro.gmp.udp import UDPHeader, UDPProtocol
from repro.gmp.views import GroupView, singleton_view
from repro.gmp.wire import WireError, decode as decode_wire, encode as encode_wire

__all__ = [
    "ACK", "ALL_KINDS", "AS_DELIVERED", "COLLECTING", "COMMIT",
    "DEAD_REPORT", "Daemon", "FIXED", "GMP_SCHEMA", "BugFlags", "GmpMessage",
    "GmpTimerTable", "GmpTiming", "GroupView", "HEARTBEAT",
    "IN_TRANSITION", "JOIN", "MEMBERSHIP_CHANGE", "NACK", "PROCLAIM",
    "RelHeader", "ReliableChannel", "STABLE", "UDPHeader", "UDPProtocol",
    "WireError", "decode_wire", "encode_wire", "singleton_view",
]
