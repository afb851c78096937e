"""Properties of the three declared message schemas (tcp, gmp, abp).

For every schema:

- a generated message of type ``T`` is recognised as ``T``;
- every type the recogniser can report has a witness message it
  classifies as that type;
- every settable field round-trips ``set_field`` -> ``get_field`` and
  leaves a ``Message.copy()`` sibling unchanged;
- an undeclared or computed field is refused, the error names the type
  and its settable fields, and nothing is cloned.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abp import ABP_SCHEMA, AbpFrame
from repro.core.stubs import StubError, computed_fields, data_fields
from repro.gmp import GMP_SCHEMA, GmpMessage, RelHeader
from repro.tcp import TCP_SCHEMA, Segment
from repro.tcp.segment import ACK, FIN, RST, SYN
from repro.xkernel.message import Message

SCHEMAS = {"tcp": TCP_SCHEMA, "gmp": GMP_SCHEMA, "abp": ABP_SCHEMA}

#: flags (and payload) of a TCP segment of each type
TCP_SHAPES = {"SYN": (SYN, b""), "SYNACK": (SYN | ACK, b""),
              "ACK": (ACK, b""), "DATA": (ACK, b"data"),
              "FIN": (FIN | ACK, b""), "RST": (RST, b"")}


def witness(protocol, type_name, a, b):
    """A message of ``type_name`` as the PFI layer intercepts it."""
    if protocol == "tcp":
        flags, data = TCP_SHAPES[type_name]
        return Message(payload=b"", headers=[Segment(
            src_port=a, dst_port=b, seq=a * 7, ack=b, flags=flags,
            window=b, payload=data)])
    if protocol == "gmp":
        if type_name == "REL_ACK":
            return Message(payload=b"",
                           headers=[RelHeader(seq=a, is_ack=True)])
        return Message(payload=GmpMessage(type_name, sender=a, group_id=b,
                                          members=(a, b)),
                       headers=[RelHeader(seq=b)])
    kind = type_name[len("ABP_"):]
    return Message(payload=AbpFrame(kind, a % 2, b"x" * (b % 3)))


def all_types(schema):
    return schema.types + schema.internal


def declared_type(schema, type_name):
    return next(t for t in all_types(schema) if t.name == type_name)


def _cases(select):
    return [(protocol, mtype.name) for protocol, schema in SCHEMAS.items()
            for mtype in select(schema)]


GENERATED = _cases(lambda s: [t for t in all_types(s) if t.generate])
RECOGNISED = _cases(all_types)
small = st.integers(min_value=0, max_value=999)


def _objects(msg):
    return list(msg.iter_headers()) + [msg.payload]


@pytest.mark.parametrize("protocol,type_name", GENERATED)
@given(dst=small)
@settings(max_examples=20, deadline=None)
def test_generated_messages_are_recognised(protocol, type_name, dst):
    schema = SCHEMAS[protocol]
    msg = schema.generate(type_name, dst=dst)
    assert schema.msg_type(msg) == type_name
    assert msg.meta["dst"] == dst


@pytest.mark.parametrize("protocol,type_name", RECOGNISED)
@given(a=small, b=small)
@settings(max_examples=20, deadline=None)
def test_every_type_has_a_witness(protocol, type_name, a, b):
    schema = SCHEMAS[protocol]
    assert schema.msg_type(witness(protocol, type_name, a, b)) == type_name


@pytest.mark.parametrize("protocol,type_name", RECOGNISED)
@given(a=small, b=small, value=small)
@settings(max_examples=20, deadline=None)
def test_settable_fields_round_trip_privately(protocol, type_name, a, b,
                                              value):
    schema = SCHEMAS[protocol]
    for name in declared_type(schema, type_name).settable:
        msg = witness(protocol, type_name, a, b)
        sibling = msg.copy()
        before = [repr(obj) for obj in _objects(sibling)]
        original = schema.get_field(sibling, name)
        schema.set_field(msg, name, value)
        assert schema.get_field(msg, name) == value
        assert schema.get_field(sibling, name) == original
        assert [repr(obj) for obj in _objects(sibling)] == before


@pytest.mark.parametrize("protocol,type_name", RECOGNISED)
@given(a=small, b=small)
@settings(max_examples=10, deadline=None)
def test_unsettable_fields_are_refused_before_cloning(protocol, type_name,
                                                      a, b):
    schema = SCHEMAS[protocol]
    mtype = declared_type(schema, type_name)
    declared = {name for cls in mtype.carriers
                for name in data_fields(cls) + computed_fields(cls)}
    refused = sorted(declared - set(mtype.settable)) + ["ghost"]
    for name in refused:
        msg = witness(protocol, type_name, a, b)
        msg.copy()      # everything clonable is now shared with a sibling
        before = _objects(msg)
        with pytest.raises(StubError) as excinfo:
            schema.set_field(msg, name, 1)
        text = str(excinfo.value)
        assert text.startswith(f"message type {type_name} has no settable "
                               f"field {name!r}")
        assert all(field in text for field in mtype.settable)
        assert all(x is y for x, y in zip(_objects(msg), before))
