"""Messages flowing through a protocol stack.

A :class:`Message` carries an application payload plus a stack of headers.
Each protocol layer pushes its header when the message travels down the
stack and pops it when the message travels back up, mirroring the x-Kernel
message model.  Headers are ordinary Python objects (usually dataclasses
such as :class:`repro.tcp.segment.Segment`); the PFI layer's recognition
stubs inspect them to classify messages by type.

Messages also carry a free-form ``meta`` dictionary for bookkeeping that is
not part of the wire format -- e.g. the PFI layer stamps injected messages,
and experiments tag messages for later trace correlation.  ``meta`` is
copied shallowly by :meth:`copy`.

Copying is copy-on-write over the header *objects*, in two levels of
ownership:

- The stack *shape* (the list) is private to each message: :meth:`copy`
  gives the copy a shallow copy of the list, so pushes and pops on one
  side never show on the other.
- The header *objects* stay aliased between the original and all its
  copies for as long as they are only read.  A header is duplicated only
  when someone asks for a writable one: :meth:`writable_header` clones
  that single header, the public :attr:`headers` list clones whatever is
  still aliased (so everything it returns is safe to mutate).

Consequently the read accessors -- :attr:`top_header`,
:meth:`find_header`, :meth:`iter_headers` and the values returned by
:meth:`pop_header` and :meth:`pop_header_of` -- hand out headers that
other messages (a pending retransmission, a held duplicate, an in-flight
wire copy) may be looking at too.  They are **read-only by contract**: a protocol layer that wants
to change a header it received builds a new one, and a filter goes
through ``PacketStubs.set_field``.  ``repro check`` rule SC107 flags
assignments through those accessors.

The *payload* follows the same rule when it implements the ``clone()``
protocol (a GMP wire message, a TCP segment carried as a payload):
:meth:`copy` aliases it, both sides are marked, and :attr:`payload` is
**read-only by contract** from then on -- a write goes through
:meth:`writable_payload`, which clones on demand, or through
``PacketStubs.set_field``.  SC107 flags assignments through
``<expr>.payload`` as well.  Immutable payloads are shared as they always
were; any other payload (a dict, an object without ``clone()``) is
deep-copied by :meth:`copy` and therefore private and writable in place.

The two header-stack methods a layer calls once per message have a
one-line inline form a per-message layer may use instead (the GMP UDP and
reliable layers do): :meth:`push_header` is ``msg._headers.append(h)`` --
a freshly pushed header is private, there is no ownership bit to set --
and :meth:`pop_header_of` is popping ``msg._headers[-1]`` after the same
type test, leaving the ownership bits alone: a bit left set past the
end of the stack only marks the next header pushed there as maybe
shared, which costs at most one needless clone.

Headers are duplicated through the ``clone()`` protocol -- any header
exposing a ``clone()`` method (TCP segments, GMP wire messages, the
UDP/IP/reliable-delivery headers) is copied by that method instead of
``copy.deepcopy``.  Ownership is one bitmask per message (plus one flag
for the payload), without reference counts, so it survives
``copy.deepcopy`` of a world holding several siblings (the checkpoint
engine) and pickling of a single message: the worst a stale "aliased"
mark can cost is one redundant clone on a write.
"""

from __future__ import annotations

import copy as _copy
import itertools
from typing import Any, Dict, Iterator, List, Optional

_message_ids = itertools.count(1)

#: payload types that are immutable and therefore shared by :meth:`copy`
_IMMUTABLE = (bytes, str, int, float, bool, type(None))


def _clone_header(header: Any) -> Any:
    """Duplicate one header: ``clone()`` protocol first, deepcopy fallback."""
    clone = getattr(header, "clone", None)
    if clone is not None:
        return clone()
    return _copy.deepcopy(header)


class Message:
    """A payload with a header stack, travelling through protocol layers."""

    __slots__ = ("payload", "_headers", "_aliased", "_payload_aliased",
                 "meta", "uid")

    def __init__(self, payload: Any = b"", headers: Optional[List[Any]] = None,
                 meta: Optional[Dict[str, Any]] = None):
        self.payload = payload
        self._headers: List[Any] = list(headers) if headers else []
        #: bit i set: ``_headers[i]`` may be referenced by a sibling too
        self._aliased = 0
        #: the payload object may be referenced by a sibling too
        self._payload_aliased = False
        self.meta: Dict[str, Any] = dict(meta) if meta else {}
        self.uid = next(_message_ids)

    # ------------------------------------------------------------------
    # header stack
    # ------------------------------------------------------------------

    @property
    def headers(self) -> List[Any]:
        """The header stack (innermost first), safe to mutate.

        Every header still aliased with a copy-on-write sibling is cloned
        first, so neither the returned list nor the headers in it are
        visible to any other message.  Code that only reads should use
        :attr:`top_header`, :meth:`find_header` or :meth:`iter_headers`,
        which never copy.
        """
        aliased = self._aliased
        if aliased:
            headers = self._headers
            for index, header in enumerate(headers):
                if aliased >> index & 1:
                    headers[index] = _clone_header(header)
            self._aliased = 0
        return self._headers

    def writable_header(self, depth: int = 0) -> Any:
        """The header ``depth`` levels below the outermost, safe to mutate.

        ``depth`` counts the way :meth:`iter_headers` enumerates.  Only
        this one header is cloned, and only if it is still aliased.
        """
        headers = self._headers
        index = len(headers) - 1 - depth
        if depth < 0 or index < 0:
            raise IndexError(f"message has no header at depth {depth}")
        bit = 1 << index
        if self._aliased & bit:
            headers[index] = _clone_header(headers[index])
            self._aliased ^= bit
        return headers[index]

    def push_header(self, header: Any) -> "Message":
        """Add a header on the way down the stack.  Returns self."""
        self._headers.append(header)
        return self

    def pop_header(self) -> Any:
        """Remove and return the outermost header on the way up the stack.

        The returned header is read-only (see the module docstring).
        """
        if not self._headers:
            raise IndexError("message has no headers to pop")
        header = self._headers.pop()
        # whatever is pushed into the freed slot later is private
        self._aliased &= (1 << len(self._headers)) - 1
        return header

    def pop_header_of(self, header_type: type) -> Optional[Any]:
        """Pop the outermost header if it is a ``header_type``, else None.

        One call for a layer's "is this mine? then strip it": a message
        whose outermost header has another type (or none) is left
        untouched.  The returned header is read-only, as for
        :meth:`pop_header`.
        """
        headers = self._headers
        if headers and isinstance(headers[-1], header_type):
            header = headers.pop()
            if self._aliased:
                self._aliased &= (1 << len(headers)) - 1
            return header
        return None

    @property
    def top_header(self) -> Any:
        """The outermost header (most recently pushed), or None.  Read-only."""
        headers = self._headers
        return headers[-1] if headers else None

    def find_header(self, header_type: type) -> Optional[Any]:
        """The outermost header of a given type, or None.  Read-only."""
        for header in reversed(self._headers):
            if isinstance(header, header_type):
                return header
        return None

    def iter_headers(self) -> Iterator[Any]:
        """The headers outermost first.  Read-only; never copies."""
        return reversed(self._headers)

    # ------------------------------------------------------------------
    # payload
    # ------------------------------------------------------------------

    def writable_payload(self) -> Any:
        """The payload, safe to mutate.

        A payload still aliased with a copy-on-write sibling is cloned
        first (and becomes this message's ``payload``); a private one is
        returned as it is.
        """
        if self._payload_aliased:
            self.payload = self.payload.clone()
            self._payload_aliased = False
        return self.payload

    # ------------------------------------------------------------------
    # copying / size
    # ------------------------------------------------------------------

    def copy(self) -> "Message":
        """Deep-enough copy for duplicate/modify fault injection.

        The header objects are shared copy-on-write (see the module
        docstring): none is duplicated here, and a write through either
        side's ``headers`` / ``writable_header`` never leaks into the
        other.  Bytes and other immutable payloads are shared; a payload
        exposing ``clone()`` is aliased the same copy-on-write way
        (:meth:`writable_payload` clones it); anything else is
        deep-copied.  The copy receives a fresh uid.
        """
        payload = self.payload
        payload_aliased = False
        if not isinstance(payload, _IMMUTABLE):
            if hasattr(payload, "clone"):
                self._payload_aliased = payload_aliased = True
            else:
                payload = _copy.deepcopy(payload)
        headers = self._headers
        self._aliased = aliased = (1 << len(headers)) - 1
        clone = Message.__new__(Message)
        clone.payload = payload
        clone._headers = headers[:]
        clone._aliased = aliased
        clone._payload_aliased = payload_aliased
        clone.meta = dict(self.meta)
        clone.uid = next(_message_ids)
        clone.meta["copied_from"] = self.uid
        return clone

    def __len__(self) -> int:
        """Payload length in bytes when the payload is bytes-like, else 0."""
        payload = self.payload
        if isinstance(payload, (bytes, bytearray)):
            return len(payload)
        if isinstance(payload, str):
            return len(payload.encode())
        return 0

    def __repr__(self) -> str:
        names = [type(h).__name__ for h in self._headers]
        return (f"Message(uid={self.uid}, headers={names}, "
                f"payload_len={len(self)})")
