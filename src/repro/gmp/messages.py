"""GMP message types.

The strong group membership protocol exchanges seven message kinds:

- ``HEARTBEAT`` -- periodic liveness, sent to every member of the current
  view *including the local machine* (the loopback heartbeat is what made
  the paper's self-death bug reachable);
- ``PROCLAIM`` -- "machines which desire to be in a group send proclaim
  messages to potential members"; carries the *originator* separately from
  the immediate *sender* because group members forward proclaims to their
  leader (the distinction the paper's forwarding bug confused);
- ``JOIN`` -- sent to a lower-addressed machine to ask admission;
- ``MEMBERSHIP_CHANGE`` -- phase one of the leader's two-phase commit,
  proposing a new member list;
- ``ACK`` / ``NACK`` -- member responses to a proposed change;
- ``COMMIT`` -- phase two, finalizing the new view;
- ``DEAD_REPORT`` -- a member telling the leader that some machine's
  heartbeats stopped (also the message a buggy daemon sends about
  *itself*).

:data:`GMP_SCHEMA` is the GMP packet stubs.  Beneath the daemon a
message is a :class:`GmpMessage` payload under the reliable layer's
:class:`~repro.gmp.reliable.RelHeader`; the reliable layer's own acks
(``REL_ACK``, a bare ``RelHeader``) are recognised but are not part of
the vocabulary campaigns and the fuzz grammar draw from.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.core.stubs import UNKNOWN_TYPE, MessageType, PacketStubs
from repro.gmp.reliable import RelHeader
from repro.xkernel.message import Message

HEARTBEAT = "HEARTBEAT"
PROCLAIM = "PROCLAIM"
JOIN = "JOIN"
MEMBERSHIP_CHANGE = "MEMBERSHIP_CHANGE"
ACK = "ACK"
NACK = "NACK"
COMMIT = "COMMIT"
DEAD_REPORT = "DEAD_REPORT"

ALL_KINDS = (HEARTBEAT, PROCLAIM, JOIN, MEMBERSHIP_CHANGE, ACK, NACK,
             COMMIT, DEAD_REPORT)


class GmpMessage:
    """One GMP protocol message.

    One is built per protocol message sent, so it carries no instance
    ``__dict__``.  The ``__slots__`` are hand-written (here and on the
    UDP / reliable-layer headers) because ``@dataclass(slots=True)``
    needs Python 3.10 and adds a ``__setstate__``, which would push every
    checkpoint holding one onto ``ClonePlan``'s deepcopy fallback.
    """

    __slots__ = ("kind", "sender", "originator", "subject", "group_id",
                 "members", "down")
    __hash__ = None  # mutable value object, compared by field

    def __init__(self, kind: str, sender: int, originator: int = -1,
                 subject: int = -1, group_id: int = 0,
                 members: Tuple[int, ...] = (), down: bool = False):
        if kind not in ALL_KINDS:
            raise ValueError(f"unknown GMP message kind {kind!r}")
        self.kind = kind
        self.sender = sender
        self.originator = sender if originator < 0 else originator
        self.subject = subject      # DEAD_REPORT: who is being reported dead
        self.group_id = group_id    # incarnation of the group formed/run
        self.members = members
        self.down = down    # buggy self-death daemons mark themselves down

    def copy(self) -> "GmpMessage":
        return GmpMessage(self.kind, self.sender, self.originator,
                          self.subject, self.group_id, tuple(self.members),
                          self.down)

    #: opt-in to the Message ``clone()`` protocol so duplicating a wrapped
    #: GMP wire message never reaches ``copy.deepcopy``
    clone = copy

    def _fields(self) -> tuple:
        return (self.kind, self.sender, self.originator, self.subject,
                self.group_id, self.members, self.down)

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self) -> str:
        extra = ""
        if self.kind == DEAD_REPORT:
            extra = f" subject={self.subject}"
        if self.members:
            extra += f" members={list(self.members)}"
        return (f"GmpMessage({self.kind} from={self.sender} "
                f"orig={self.originator} gid={self.group_id}{extra})")


def msg_type(msg: Message) -> str:
    """The GMP recogniser: the payload's kind, else a reliable-layer ack.

    An ack carries an empty payload, so the payload decides first.
    """
    payload = msg.payload
    if payload.__class__ is GmpMessage:
        return payload.kind
    top = next(msg.iter_headers(), None)
    if top.__class__ is RelHeader and top.is_ack:
        return "REL_ACK"
    return UNKNOWN_TYPE


def _generator(kind: str) -> Callable[..., Message]:
    """A generator of unreliable ``kind`` messages (no RelHeader)."""
    def generate(*, sender: int = 0, originator: Optional[int] = None,
                 subject: int = -1, group_id: int = 0,
                 members: Tuple[int, ...] = (),
                 dst: Optional[int] = None) -> Message:
        gmsg = GmpMessage(kind=kind, sender=sender,
                          originator=sender if originator is None
                          else originator,
                          subject=subject, group_id=group_id,
                          members=tuple(members))
        wrapped = Message(payload=gmsg)
        if dst is not None:
            wrapped.meta["dst"] = dst
        wrapped.meta["reliable"] = False
        return wrapped
    return generate


#: what a filter may set on a protocol message: the reliable layer's
#: sequence number and every field of the GMP message
_SETTABLE = ("seq",) + GmpMessage.__slots__

#: the GMP packet stubs (see :mod:`repro.core.stubs`)
GMP_SCHEMA = PacketStubs(
    name="gmp",
    msg_type=msg_type,
    types=tuple(
        MessageType(kind, (RelHeader, GmpMessage), _SETTABLE,
                    control=kind != HEARTBEAT, generate=_generator(kind))
        for kind in ALL_KINDS),
    corruptions=(("MEMBERSHIP_CHANGE", "group_id", 0),
                 ("PROCLAIM", "originator", 0),
                 ("DEAD_REPORT", "subject", 0)),
    internal=(MessageType("REL_ACK", (RelHeader,)),))
