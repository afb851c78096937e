"""Packet stubs: one declared message schema per protocol.

The paper: "The packet recognition/generation stubs ... are invoked to
determine the message type whenever a message is intercepted by the PFI
layer.  ...  The packet stubs are written by people who know the packet
formats of the target protocol."

Here the stubs *are* that knowledge, written down once: a
:class:`PacketStubs` is an immutable declaration, one module-level
instance per protocol, kept beside its wire format
(:data:`repro.tcp.segment.TCP_SCHEMA`,
:data:`repro.gmp.messages.GMP_SCHEMA`,
:data:`repro.abp.protocol.ABP_SCHEMA`).  It lists:

- ``msg_type`` -- the protocol's one recogniser, a plain function from a
  message to its type name (:data:`UNKNOWN_TYPE` when it is not one of
  the protocol's);
- ``types`` -- the message-type vocabulary, in order: for each
  :class:`MessageType`, the classes that carry its fields, the fields a
  filter may set, whether it is a control type, and its generator (the
  probe messages a script may forge -- "when generating a spurious ACK
  message in TCP, no data structures need to be updated");
- ``internal`` -- types the recogniser reports that are outside the
  vocabulary (GMP's reliable-layer ``REL_ACK``);
- ``corruptions`` -- the ``(type, field, value)`` rows corruption faults
  write, in order (the fuzz grammar draws from this tuple, so its order
  is part of every draw).

Everything else that describes a message reads this declaration: the PFI
layer and its message log, the systematic campaigns of
:mod:`repro.core.genscripts`, the fuzz grammar of
:mod:`repro.oracle.grammar`, and the field table in
``docs/writing-experiments.md``.

Field access is typed.  A read walks the message outermost header first,
then the payload, and reads the first object whose class the schema
declares and whose declared fields include the name (data fields and
computed properties).  A write is checked against the message's type
first: a field that type does not declare settable is refused with a
:class:`StubError` naming the type and its settable fields, before
anything is cloned; a settable one is written on the object of its
declared class through ``Message.writable_header`` /
``Message.writable_payload``, so a copy-on-write sibling never sees it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.xkernel.message import Message

UNKNOWN_TYPE = "UNKNOWN"


class StubError(ValueError):
    """Raised for unknown generators or inaccessible fields.

    A ``ValueError`` -- a value the message cannot take -- so a PFI
    command that runs into one fails as a host error, the way
    ``Interp.call`` reports any bad value: ``error in command "<name>":
    <message>``.
    """


def data_fields(cls: type) -> Tuple[str, ...]:
    """The stored (assignable) fields of a carrier class, in order."""
    if dataclasses.is_dataclass(cls):
        return tuple(f.name for f in dataclasses.fields(cls))
    return tuple(name for klass in reversed(cls.__mro__)
                 for name in vars(klass).get("__slots__", ()))


def computed_fields(cls: type) -> Tuple[str, ...]:
    """The read-only properties of a carrier class."""
    return tuple(name for klass in reversed(cls.__mro__)
                 for name, value in vars(klass).items()
                 if isinstance(value, property))


@dataclass(frozen=True)
class MessageType:
    """One message type of a protocol.

    ``carriers`` are the classes a message of this type carries its
    fields on, outermost first; every name in ``settable`` is a data
    field of exactly one of them.
    """

    name: str
    carriers: Tuple[type, ...]
    settable: Tuple[str, ...] = ()
    #: control messages get reorder/duplicate coverage in a generated
    #: campaign; bulk data types opt out to keep campaigns focused
    control: bool = True
    generate: Optional[Callable[..., Message]] = None

    def carrier_of(self, name: str) -> type:
        """The carrier class that declares the settable field ``name``."""
        owners = [cls for cls in self.carriers if name in data_fields(cls)]
        if len(owners) != 1:
            raise ValueError(f"settable field {name!r} of {self.name} must be "
                             f"a data field of exactly one carrier, found "
                             f"{len(owners)}")
        return owners[0]


@dataclass(frozen=True, eq=False)
class PacketStubs:
    """One protocol's message schema (see the module docstring)."""

    name: str
    msg_type: Callable[[Message], str]
    types: Tuple[MessageType, ...]
    corruptions: Tuple[Tuple[str, str, Any], ...] = ()
    internal: Tuple[MessageType, ...] = ()

    def __post_init__(self):
        by_name = {t.name: t for t in self.types + self.internal}
        for type_name, field, _value in self.corruptions:
            if field not in by_name[type_name].settable:
                raise ValueError(f"corruption row {type_name}.{field} names "
                                 f"a field the type does not declare "
                                 f"settable")
        readable = {cls: frozenset(data_fields(cls) + computed_fields(cls))
                    for mtype in by_name.values() for cls in mtype.carriers}
        setters = {t.name: {field: t.carrier_of(field) for field in t.settable}
                   for t in by_name.values()}
        init = object.__setattr__
        init(self, "vocabulary", tuple(t.name for t in self.types))
        init(self, "_by_name", by_name)
        init(self, "_readable", readable)
        init(self, "_setters", setters)

    # a declaration is shared, never copied: a checkpoint fork (and any
    # deepcopy of a world) keeps pointing at the one module-level schema
    def __deepcopy__(self, memo) -> "PacketStubs":
        return self

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------

    def generate(self, type_name: str, **fields: Any) -> Message:
        """Create a new message of a type that declares a generator."""
        mtype = self._by_name.get(type_name)
        if mtype is None or mtype.generate is None:
            known = sorted(name for name, t in self._by_name.items()
                           if t.generate is not None)
            raise StubError(
                f"no generator for message type {type_name!r}; known: {known}")
        msg = mtype.generate(**fields)
        msg.meta["injected"] = True
        msg.meta["injected_type"] = type_name
        return msg

    # ------------------------------------------------------------------
    # typed field access
    # ------------------------------------------------------------------

    def get_field(self, msg: Message, name: str) -> Any:
        """Read ``name`` from the outermost declared object that has it."""
        readable = self._readable
        for obj in msg.iter_headers():
            fields = readable.get(obj.__class__)
            if fields is not None and name in fields:
                return getattr(obj, name)
        payload = msg.payload
        fields = readable.get(payload.__class__)
        if fields is not None and name in fields:
            return getattr(payload, name)
        raise StubError(f"message has no header field {name!r}")

    def set_field(self, msg: Message, name: str, value: Any) -> None:
        """Write ``name``, if the message's type declares it settable.

        The object written is made private first
        (``Message.writable_header`` / ``writable_payload``); a refused
        write clones nothing.
        """
        type_name = self.msg_type(msg)
        setters = self._setters.get(type_name, {})
        cls = setters.get(name)
        if cls is None:
            settable = ", ".join(setters) or "none"
            raise StubError(f"message type {type_name} has no settable field "
                            f"{name!r} (settable: {settable})")
        for depth, header in enumerate(msg.iter_headers()):
            if header.__class__ is cls:
                setattr(msg.writable_header(depth), name, value)
                return
        if msg.payload.__class__ is cls:
            setattr(msg.writable_payload(), name, value)
            return
        raise StubError(f"message has no header field {name!r}")


def field_table(*schemas: PacketStubs) -> str:
    """The schemas' types as a markdown table (the one in
    ``docs/writing-experiments.md`` is this function's output)."""
    rows = ["| protocol | type | carried on | settable fields |",
            "|---|---|---|---|"]
    for schema in schemas:
        for mtype in schema.types + schema.internal:
            internal = " (internal)" if mtype in schema.internal else ""
            carriers = " + ".join(f"`{cls.__name__}`"
                                  for cls in mtype.carriers)
            settable = ", ".join(mtype.settable) or "--"
            rows.append(f"| {schema.name} | `{mtype.name}`{internal} "
                        f"| {carriers} | {settable} |")
    return "\n".join(rows)
