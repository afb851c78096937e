"""A from-scratch TCP implementation with vendor behaviour profiles.

This is the substrate for the paper's §4.1 experiments.  The machinery
(handshake, retransmission, RTT estimation, keep-alive, zero-window
probing, reassembly) is shared; everything the paper observed to differ
between SunOS 4.1.3, AIX 3.2.3, NeXT Mach, and Solaris 2.3 is a
:class:`~repro.tcp.vendors.VendorProfile` parameter.

Public surface::

    from repro.tcp import (
        TCPConnection, TCPProtocol, Segment, VendorProfile,
        VENDORS, SUNOS_413, AIX_323, NEXT_MACH, SOLARIS_23, XKERNEL,
        TCP_SCHEMA,
    )
"""

from repro.tcp.congestion import TahoeController
from repro.tcp.connection import (CLOSED, ESTABLISHED, LISTEN, SYN_RCVD,
                                  SYN_SENT, TCPConnection)
from repro.tcp.ip import IPHeader, IPProtocol
from repro.tcp.protocol import TCPProtocol
from repro.tcp.reassembly import ReassemblyQueue
from repro.tcp.retransmit import RetransmissionManager
from repro.tcp.rtt import (JacobsonKarnEstimator, NaiveEstimator,
                           make_estimator)
from repro.tcp.segment import (ACK, FIN, PSH, RST, SYN, TCP_SCHEMA, URG,
                               Segment, classify, seq_add, seq_leq, seq_lt,
                               seq_sub)
from repro.tcp.vendors import (AIX_323, BSD_DERIVED, NEXT_MACH, SOLARIS_23,
                               SUNOS_413, VENDORS, XKERNEL, VendorProfile)

__all__ = [
    "ACK", "AIX_323", "BSD_DERIVED", "CLOSED", "ESTABLISHED", "FIN",
    "IPHeader", "IPProtocol", "JacobsonKarnEstimator", "LISTEN",
    "NEXT_MACH", "NaiveEstimator", "PSH", "RST", "ReassemblyQueue",
    "RetransmissionManager", "SOLARIS_23", "SUNOS_413", "SYN", "SYN_RCVD",
    "SYN_SENT", "Segment", "TCP_SCHEMA", "TCPConnection", "TCPProtocol", "TahoeController", "URG",
    "VENDORS", "VendorProfile", "XKERNEL", "classify", "make_estimator",
    "seq_add", "seq_leq", "seq_lt", "seq_sub",
]
