"""Message logging (the paper's ``msg_log`` utility).

"In order to monitor the retransmission behavior ... each packet was logged
with a timestamp by the receive filter script before it was dropped."  The
experiments derive every table from these logs, so the logger doubles as a
structured trace writer: each ``msg_log`` call records one trace entry
(kind ``pfi.log``) carrying the message type and the header fields the
stubs can read, and the log's lines are rendered from those entries.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.stubs import PacketStubs, StubError
from repro.netsim.trace import TraceRecorder
from repro.xkernel.message import Message
from repro.netsim import kinds as K

_COMMON_FIELDS = ("seq", "ack", "flags", "window", "kind", "sender",
                  "originator", "group_id")

# trace-attribute names the logger itself writes; snapshot fields that
# collide are prefixed so neither side clobbers the other
_RESERVED = frozenset({"kind", "t", "node", "direction", "msg_type",
                       "note", "uid"})


#: each common field with the trace attribute it is recorded under
_FIELD_ATTRS = tuple((name, f"payload_{name}" if name in _RESERVED else name)
                     for name in _COMMON_FIELDS)


class MessageLog:
    """Records intercepted messages as ``pfi.log`` entries and renders
    them back as log lines."""

    __slots__ = ("_stubs", "_trace", "_node")

    def __init__(self, stubs: PacketStubs, trace: TraceRecorder,
                 node: str = ""):
        self._stubs = stubs
        self._trace = trace
        self._node = node

    def log(self, msg: Message, *, t: float, direction: str,
            note: str = "") -> None:
        """Record one message as a ``pfi.log`` entry."""
        attrs = {}
        for name, attr in _FIELD_ATTRS:
            try:
                attrs[attr] = self._stubs.get_field(msg, name)
            except StubError:
                continue
        self._trace.record(
            K.PFI_LOG, t=t, node=self._node, direction=direction,
            msg_type=self._stubs.msg_type(msg), note=note, uid=msg.uid,
            **attrs)

    @property
    def lines(self) -> List[str]:
        """This node's ``pfi.log`` entries, one formatted line each."""
        return [_render(entry.time, entry.attrs)
                for entry in self._trace.entries(K.PFI_LOG, node=self._node)]

    def dump(self) -> str:
        """All formatted lines joined by newlines."""
        return "\n".join(self.lines)

    def __len__(self) -> int:
        return self._trace.count(K.PFI_LOG, node=self._node)


def _render(t: float, attrs: Dict[str, Any]) -> str:
    detail = " ".join(f"{name}={attrs[attr]}" for name, attr in _FIELD_ATTRS
                      if attr in attrs)
    line = (f"[{t:12.3f}] {attrs['node']:>10} {attrs['direction']:<7} "
            f"{attrs['msg_type']:<18} {detail}").rstrip()
    note = attrs["note"]
    return f"{line}  # {note}" if note else line
