"""The GMP implementation's historical bugs, as switchable flags.

The whole point of the paper's §4.2 experiments was to *find* these bugs
in a student implementation that had already been "extensively tested" by
its authors.  We ship them switchable so every experiment can demonstrate
both the faulty trace the PFI tool exposed and the behaviour after the
fix:

- ``self_death``: "when the local machine did not receive heartbeats from
  itself, it sent out a message to the other members of the group saying
  that it had died!  However, it did not update its own local state very
  well and instead of forming a singleton group ... it stayed in the old
  group but simply marked itself as down."
- ``proclaim_forward_param``: while self-"dead", forwarding a PROCLAIM
  called "a routine ... with the wrong type of parameter, which resulted
  in the packet not being forwarded at all."
- ``proclaim_reply_to_sender``: "instead of the leader responding to the
  original sender, it responded to the machine which forwarded the
  message.  This caused a proclaim loop."
- ``inverted_timer_unregister``: the unregister-timeouts logic error of
  Experiment 4 (see :mod:`repro.gmp.timers`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BugFlags:
    """Which historical bugs are compiled into a daemon."""

    self_death: bool = False
    proclaim_forward_param: bool = False
    proclaim_reply_to_sender: bool = False
    inverted_timer_unregister: bool = False


#: The implementation as the three graduate students delivered it.
AS_DELIVERED = BugFlags(
    self_death=True,
    proclaim_forward_param=True,
    proclaim_reply_to_sender=True,
    inverted_timer_unregister=True,
)

#: The implementation after the PFI experiments and fixes.
FIXED = BugFlags()
