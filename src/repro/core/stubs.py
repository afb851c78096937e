"""Packet recognition/generation stubs.

The paper: "The packet recognition/generation stubs ... are invoked to
determine the message type whenever a message is intercepted by the PFI
layer.  ...  The packet stubs are written by people who know the packet
formats of the target protocol."

A :class:`PacketStubs` registry holds:

- *recognizers*: functions mapping a message to a type name (or None if the
  recognizer does not understand the message).  Recognizers run in
  registration order; the first non-None answer wins.
- *generators*: named factories producing new messages of a given type,
  used by filter scripts to inject probe messages ("when generating a
  spurious ACK message in TCP, no data structures need to be updated").
- generic *field access* over headers, so scripts can read and modify
  header fields without knowing the header class.

Stubs for the two target protocols of the paper ship with the repository:
:func:`repro.tcp.protocol.tcp_stubs` and :func:`repro.gmp.daemon.gmp_stubs`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.xkernel.message import Message

Recognizer = Callable[[Message], Optional[str]]
Generator = Callable[..., Message]

UNKNOWN_TYPE = "UNKNOWN"


class StubError(Exception):
    """Raised for unknown generators or inaccessible fields."""


class PacketStubs:
    """Registry of packet recognition and generation stubs."""

    def __init__(self):
        self._recognizers: List[Recognizer] = []
        self._generators: Dict[str, Generator] = {}

    # ------------------------------------------------------------------
    # recognition
    # ------------------------------------------------------------------

    def register_recognizer(self, fn: Recognizer) -> None:
        """Add a recognizer; earlier registrations take precedence."""
        self._recognizers.append(fn)

    def msg_type(self, msg: Message) -> str:
        """Classify a message; UNKNOWN if no recognizer claims it."""
        for recognizer in self._recognizers:
            name = recognizer(msg)
            if name is not None:
                return name
        return UNKNOWN_TYPE

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------

    def register_generator(self, type_name: str, fn: Generator) -> None:
        """Register a factory for spontaneous messages of ``type_name``."""
        self._generators[type_name] = fn

    def generate(self, type_name: str, **fields: Any) -> Message:
        """Create a new message of a registered type."""
        factory = self._generators.get(type_name)
        if factory is None:
            known = sorted(self._generators)
            raise StubError(
                f"no generator for message type {type_name!r}; known: {known}")
        msg = factory(**fields)
        msg.meta["injected"] = True
        msg.meta["injected_type"] = type_name
        return msg

    def generator_names(self) -> List[str]:
        """Registered generator type names, sorted."""
        return sorted(self._generators)

    # ------------------------------------------------------------------
    # generic field access
    # ------------------------------------------------------------------

    @staticmethod
    def get_field(msg: Message, name: str) -> Any:
        """Read ``name`` from the outermost header that defines it.

        Headers may be objects (attribute access) or dicts (key access);
        the payload is checked last when it is a dict.
        """
        for header in msg.iter_headers():
            if isinstance(header, dict):
                if name in header:
                    return header[name]
            elif hasattr(header, name):
                return getattr(header, name)
        if isinstance(msg.payload, dict) and name in msg.payload:
            return msg.payload[name]
        if not isinstance(msg.payload, (dict, bytes, str, type(None))) \
                and hasattr(msg.payload, name):
            return getattr(msg.payload, name)
        raise StubError(f"message has no header field {name!r}")

    @staticmethod
    def set_field(msg: Message, name: str, value: Any) -> None:
        """Modify ``name`` on the outermost header that defines it.

        The header is looked up read-only and only the one written is
        made private (``Message.writable_header``), after the write has
        been found legal -- a rejected write clones nothing.  A payload
        field is written through ``Message.writable_payload`` the same
        way (a dict payload is never aliased and is written in place).
        """
        for depth, header in enumerate(msg.iter_headers()):
            if isinstance(header, dict):
                if name in header:
                    msg.writable_header(depth)[name] = value
                    return
            elif hasattr(header, name):
                _require_settable(header, name)
                setattr(msg.writable_header(depth), name, value)
                return
        payload = msg.payload
        if isinstance(payload, dict) and name in payload:
            payload[name] = value
            return
        if not isinstance(payload, (dict, bytes, str, type(None))) \
                and hasattr(payload, name):
            _require_settable(payload, name)
            setattr(msg.writable_payload(), name, value)
            return
        raise StubError(f"message has no header field {name!r}")


def _require_settable(header: Any, name: str) -> None:
    """Refuse a write to a computed (setter-less property) attribute."""
    attr = getattr(type(header), name, None)
    if isinstance(attr, property) and attr.fset is None:
        raise StubError(
            f"header field {name!r} of {type(header).__name__} is computed "
            f"and cannot be set")
