"""The script execution context.

Each time a message passes through the PFI layer, the appropriate filter
script runs with a :class:`ScriptContext` bound to the current message
(the paper's ``cur_msg`` handle).  The context exposes the three operation
classes of the paper -- *message filtering* (inspection), *message
manipulation* (drop/delay/reorder/duplicate/modify), and *message
injection* (spontaneous probe messages) -- plus persistent per-filter
state, access to the peer filter's state ("cross-interpreter
communication"), the virtual clock, probability distributions, and the
cross-node synchronization object.

A context is single-use: the PFI layer builds one per intercepted message,
runs the filter, then applies the recorded actions.  The recorded actions
start as class-level defaults (``PASS``, no delay, empty tuples), so a
filter that records nothing allocates nothing; an action stores a new
tuple on the instance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.core.distributions import DistributionSet
from repro.core.stubs import PacketStubs
from repro.core.sync import ScriptSync
from repro.xkernel.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pfi import PFILayer

PASS = "pass"
DROP = "drop"
HOLD = "hold"


class ScriptContext:
    """Everything a filter script can see and do for one message."""

    # recorded actions, applied by the PFI layer after the script runs
    verdict: str = PASS
    delay_s: float = 0.0
    duplicate_delays: Tuple[float, ...] = ()
    hold_tag: str = "default"
    injections: Tuple[Tuple[Message, str, float], ...] = ()
    releases: Tuple[Tuple[str, float], ...] = ()
    modified: bool = False

    def __init__(self, *, msg: Message, direction: str, now: float,
                 state: Dict[str, Any], peer_state: Dict[str, Any],
                 stubs: PacketStubs, dist: DistributionSet,
                 sync: ScriptSync, node: str, pfi: "PFILayer"):
        if direction not in ("send", "receive"):
            raise ValueError(f"direction must be send/receive, got {direction}")
        self.msg = msg
        self.direction = direction
        self.now = now
        self.state = state
        self.peer_state = peer_state
        self.stubs = stubs
        self.dist = dist
        self.sync = sync
        self.node = node
        self._pfi = pfi

    # ------------------------------------------------------------------
    # filtering (inspection)
    # ------------------------------------------------------------------

    def msg_type(self) -> str:
        """Type name of the current message, via the recognition stubs."""
        return self.stubs.msg_type(self.msg)

    def field(self, name: str) -> Any:
        """Read a header field of the current message."""
        return self.stubs.get_field(self.msg, name)

    def log(self, note: str = "") -> None:
        """``msg_log``: record the current message with a timestamp."""
        self._pfi.log_message(self.msg, direction=self.direction, note=note)

    # ------------------------------------------------------------------
    # manipulation
    # ------------------------------------------------------------------

    def drop(self) -> None:
        """``xDrop``: discard the current message."""
        self.verdict = DROP

    def delay(self, seconds: float) -> None:
        """Forward the current message ``seconds`` later than now."""
        if seconds < 0:
            raise ValueError("delay must be non-negative")
        self.delay_s = seconds

    def duplicate(self, copies: int = 1, spacing: float = 0.0) -> None:
        """Forward ``copies`` extra copies, each ``spacing`` apart."""
        if copies < 1:
            raise ValueError("copies must be >= 1")
        self.duplicate_delays += tuple(
            spacing * (i + 1) for i in range(copies))

    def set_field(self, name: str, value: Any) -> None:
        """Modify a settable field of the current message (copy-on-write)."""
        self.stubs.set_field(self.msg, name, value)
        self.modified = True

    def hold(self, tag: str = "default") -> None:
        """Park the current message in a named hold queue (for reordering).

        Held messages are not forwarded until :meth:`release` is called --
        by this invocation or a later one.  Selective reordering in the
        paper ("the send filter ... was configured to send two outgoing
        segments out of order") is hold-then-release.
        """
        self.verdict = HOLD
        self.hold_tag = tag

    def release(self, tag: str = "default", delay: float = 0.0) -> None:
        """Re-emit all messages held under ``tag``, after ``delay``."""
        self.releases += ((tag, delay),)

    def held_count(self, tag: str = "default") -> int:
        """Number of messages currently parked under ``tag``."""
        return self._pfi.held_count(self.direction, tag)

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------

    def inject(self, what, direction: Optional[str] = None,
               delay: float = 0.0, **fields: Any) -> Message:
        """Introduce a spontaneous message.

        ``what`` is either a ready :class:`Message` or a generator stub
        type name (fields passed through to the generator).  ``direction``
        defaults to the direction of the current filter: a send filter
        injects toward the wire, a receive filter toward the target layer.
        """
        if isinstance(what, Message):
            msg = what
            msg.meta.setdefault("injected", True)
        else:
            msg = self.stubs.generate(what, **fields)
        self.injections += ((msg, direction or self.direction, delay),)
        return msg

    # ------------------------------------------------------------------
    # cross-interpreter / cross-node communication
    # ------------------------------------------------------------------

    def set_peer(self, key: str, value: Any) -> None:
        """Set a variable in the *other* filter's persistent state.

        "The send filter might set a variable in the receive interpreter
        which tells the receive filter to start dropping messages."
        """
        self.peer_state[key] = value

    def __repr__(self) -> str:
        return (f"ScriptContext({self.node}/{self.direction}, "
                f"type={self.msg_type()}, verdict={self.verdict})")
