"""Model-based properties of the two-level copy-on-write ``Message``.

A share group of up to five messages is driven through random
interleavings of every operation that touches the header stack or the
payload -- ``copy``, ``push_header``, ``pop_header``, the read accessors,
typed ``PacketStubs`` field writes (header and payload fields), mutation
through the public ``headers`` list and through ``writable_payload()``, a
``copy.deepcopy`` of the whole group (what ``Checkpoint.capture/fork``
does to a world) and a pickle round trip -- and compared after every step
with a reference model that copies eagerly and deeply, so it cannot alias
anything.  Two properties:

- no write is ever visible to another member of the group;
- a read never changes the ``is``-identity of any member's headers or
  payload (reads do not clone).

One seeded mutant -- ``set_field`` writing the aliased payload in place --
is run against the same property and must be killed.
"""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.core.stubs import (UNKNOWN_TYPE, MessageType, PacketStubs,
                              StubError, data_fields)
from repro.gmp.messages import GmpMessage, PROCLAIM
from repro.gmp.reliable import RelHeader
from repro.gmp.udp import UDPHeader
from repro.tcp.ip import IPHeader
from repro.tcp.segment import Segment
from repro.xkernel.message import Message

MAX_GROUP = 5

HEADER_BUILDERS = (
    lambda a, b: Segment(src_port=a, dst_port=b, seq=a * 7, ack=b, flags=a % 64,
                         window=b, payload=b"x" * (a % 4)),
    lambda a, b: IPHeader(src=a, dst=b),
    lambda a, b: UDPHeader(src_port=a, dst_port=b),
    lambda a, b: RelHeader(seq=a, is_ack=bool(b % 2)),
    lambda a, b: {"seq": a, "ttl": b},
)
HEADER_TYPES = (Segment, IPHeader, UDPHeader, RelHeader, dict)

#: payloads: immutable (shared), two ``clone()``-protocol objects (aliased
#: until written) and a dict (deep-copied by ``copy``)
PAYLOAD_BUILDERS = (
    lambda a, b: b"wire" * (a % 3),
    lambda a, b: GmpMessage(PROCLAIM, sender=a, group_id=b, members=(a, b)),
    HEADER_BUILDERS[0],
    lambda a, b: {"group_id": a, "fields": [b]},
)

#: fields ``set_field`` is aimed at: shared by several header types, owned
#: by one, absent everywhere, computed (a setter-less property), and two
#: only a payload defines
FIELDS = ("seq", "dst_port", "ttl", "src", "window", "ghost", "end_seq",
          "group_id", "sender")

#: the classes the schema below declares (dicts are carried, never typed)
CARRIERS = (Segment, IPHeader, UDPHeader, RelHeader, GmpMessage)


def _props_type(msg):
    """A declared payload's class name, else the top header's."""
    payload = msg.payload
    if payload.__class__ in CARRIERS:
        return payload.__class__.__name__
    top = next(msg.iter_headers(), None)
    return top.__class__.__name__ if top.__class__ in CARRIERS else UNKNOWN_TYPE


def _settable(cls):
    return tuple(f for f in FIELDS if f in data_fields(cls))


#: one type per carrier class, settable: the data fields ``FIELDS`` names
PROPS_SCHEMA = PacketStubs(
    name="props", msg_type=_props_type,
    types=tuple(MessageType(cls.__name__, (cls,), _settable(cls))
                for cls in CARRIERS))

small = st.integers(min_value=0, max_value=99)
header_specs = st.tuples(st.integers(0, len(HEADER_BUILDERS) - 1), small, small)
payload_specs = st.tuples(st.integers(0, len(PAYLOAD_BUILDERS) - 1), small,
                          small)
member = st.integers(min_value=0, max_value=MAX_GROUP - 1)

operations = st.one_of(
    st.tuples(st.just("copy"), member),
    st.tuples(st.just("push"), member, header_specs),
    st.tuples(st.just("pop"), member),
    st.tuples(st.just("read"), member, st.integers(0, len(HEADER_TYPES) - 1)),
    st.tuples(st.just("set_field"), member, st.sampled_from(FIELDS), small),
    st.tuples(st.just("scribble"), member, small, small),
    st.tuples(st.just("read_payload"), member),
    st.tuples(st.just("write_payload"), member, small),
    st.tuples(st.just("deepcopy_group")),
    st.tuples(st.just("pickle"), member),
)


#: the slice of the mix that only shares, reads and writes payloads, so
#: a run reaches "written while aliased" often enough to matter
payload_operations = st.one_of(
    st.tuples(st.just("copy"), member),
    st.tuples(st.just("set_field"), member,
              st.sampled_from(("group_id", "sender", "seq")), small),
    st.tuples(st.just("read_payload"), member),
    st.tuples(st.just("write_payload"), member, small),
    st.tuples(st.just("deepcopy_group")),
    st.tuples(st.just("pickle"), member),
)

share_group_runs = (st.lists(header_specs, max_size=3), payload_specs,
                    st.one_of(st.lists(operations, max_size=40),
                              st.lists(payload_operations, max_size=20)))

#: what the seeded mutant is run against: payload operations after a
#: first copy, so roughly one run in ten writes an aliased payload
mutant_runs = (st.lists(header_specs, max_size=3), payload_specs,
               st.lists(payload_operations, min_size=1, max_size=20).map(
                   lambda ops: [("copy", 0)] + ops))


def _build(spec):
    kind, a, b = spec
    return HEADER_BUILDERS[kind](a, b)


def _scribble(header, value):
    """Overwrite something in a header obtained from ``msg.headers`` (or
    in a payload obtained from ``msg.writable_payload()``)."""
    if isinstance(header, dict):
        header["scribbled"] = value
    elif hasattr(header, "seq"):
        header.seq = value              # Segment, RelHeader: shows in repr
    elif dataclasses.is_dataclass(header):
        setattr(header, dataclasses.fields(header)[0].name, value)
    else:                               # UDPHeader.dst_port, GmpMessage.sender
        setattr(header, type(header).__slots__[1], value)


class _Modelled:
    """One member of the reference model: eager, deep, aliasing nothing."""

    def __init__(self, stack, payload):
        self.stack = stack          # innermost first
        self.payload = payload


def _model_set_field(modelled, name, value):
    """``PacketStubs.set_field`` restated over a plain list and payload:
    the type's class, then the first object of that class, outermost
    header first and the payload last."""
    objects = list(reversed(modelled.stack)) + [modelled.payload]
    typed = [obj.__class__ for obj in (modelled.payload, objects[0])
             if obj.__class__ in CARRIERS]
    if not typed or name not in _settable(typed[0]):
        raise StubError(name)
    for obj in objects:
        if obj.__class__ is typed[0]:
            setattr(obj, name, value)
            return
    raise StubError(name)


def _view(msg):
    return [repr(h) for h in msg.iter_headers()] + [repr(msg.payload)]


def _identities(group):
    return [[id(h) for h in msg.iter_headers()] + [id(msg.payload)]
            for msg in group]


def _check(group, model):
    for msg, modelled in zip(group, model):
        assert _view(msg) == ([repr(h) for h in reversed(modelled.stack)]
                              + [repr(modelled.payload)])


def _run_share_group(initial, payload_spec, ops):
    first = Message(payload=PAYLOAD_BUILDERS[payload_spec[0]](*payload_spec[1:]))
    stack = []
    for spec in initial:
        first.push_header(_build(spec))
        stack.append(_build(spec))
    group = [first]
    model = [_Modelled(stack, PAYLOAD_BUILDERS[payload_spec[0]](*payload_spec[1:]))]

    for op in ops:
        name = op[0]
        index = op[1] % len(group) if len(op) > 1 else 0
        msg, modelled = group[index], model[index]
        stack = modelled.stack
        if name == "copy":
            if len(group) < MAX_GROUP:
                group.append(msg.copy())
                model.append(copy.deepcopy(modelled))
        elif name == "push":
            msg.push_header(_build(op[2]))
            stack.append(_build(op[2]))
        elif name == "pop":
            if stack:
                assert repr(msg.pop_header()) == repr(stack.pop())
        elif name == "read":
            before = _identities(group)
            wanted = HEADER_TYPES[op[2]]
            top = msg.top_header
            assert repr(top) == (repr(stack[-1]) if stack else "None")
            found = msg.find_header(wanted)
            expected = next((h for h in reversed(stack)
                             if isinstance(h, wanted)), None)
            assert repr(found) == repr(expected)
            for field in FIELDS:
                try:
                    PROPS_SCHEMA.get_field(msg, field)
                except StubError:
                    pass
            assert _identities(group) == before
        elif name == "set_field":
            outcomes = []
            for target, args in ((PROPS_SCHEMA.set_field, (msg, op[2], op[3])),
                                 (_model_set_field, (modelled, op[2], op[3]))):
                try:
                    target(*args)
                    outcomes.append("ok")
                except StubError:
                    outcomes.append("refused")
            assert outcomes[0] == outcomes[1]
        elif name == "scribble":
            headers = msg.headers
            if headers:
                position = op[2] % len(headers)
                _scribble(headers[position], op[3])
                _scribble(stack[position], op[3])
        elif name == "read_payload":
            before = _identities(group)
            assert repr(msg.payload) == repr(modelled.payload)
            for field in ("group_id", "sender"):
                try:
                    PROPS_SCHEMA.get_field(msg, field)
                except StubError:
                    pass
            assert _identities(group) == before
        elif name == "write_payload":
            if not isinstance(modelled.payload, bytes):
                _scribble(msg.writable_payload(), op[2])
                _scribble(modelled.payload, op[2])
        elif name == "deepcopy_group":
            # one deepcopy over a container of siblings, as a checkpoint
            # does to a world: the copies must diverge independently of
            # each other (and the originals are simply dropped)
            group = copy.deepcopy(group)
        elif name == "pickle":
            group[index] = pickle.loads(pickle.dumps(msg))
        _check(group, model)

    # the public list agrees with the model too, and is private; so is
    # every payload once it has been asked for writable
    for msg, modelled in zip(group, model):
        assert [repr(h) for h in msg.headers] == [repr(h)
                                                  for h in modelled.stack]
    for a_index, a in enumerate(group):
        for b in group[a_index + 1:]:
            assert not {id(h) for h in a.headers} & {id(h) for h in b.headers}
            if not isinstance(a.payload, bytes):
                assert a.writable_payload() is not b.writable_payload()


@given(*share_group_runs)
@settings(max_examples=300, deadline=None)
def test_share_group_matches_eager_deep_copy_model(initial, payload_spec, ops):
    _run_share_group(initial, payload_spec, ops)


def test_mutant_set_field_writing_the_aliased_payload_in_place_is_killed(
        monkeypatch):
    real_set_field = PacketStubs.set_field

    def set_field(schema, msg, name, value):
        with monkeypatch.context() as patch:
            patch.setattr(Message, "writable_payload",
                          lambda self: self.payload)    # the mutation
            real_set_field(schema, msg, name, value)

    monkeypatch.setattr(PacketStubs, "set_field", set_field)
    mutated = given(*mutant_runs)(
        settings(max_examples=300, deadline=None, derandomize=True,
                 database=None, phases=[Phase.generate])(_run_share_group))
    with pytest.raises(AssertionError):
        mutated()


@given(st.lists(header_specs, min_size=1, max_size=3), small)
@settings(max_examples=100, deadline=None)
def test_deepcopied_world_forks_diverge(initial, value):
    # a "world" with a pending original, a held duplicate and an in-flight
    # wire copy; two forks of it must not see each other's writes
    original = Message(payload=b"")
    for spec in initial:
        original.push_header(_build(spec))
    world = {"pending": original, "held": original.copy(),
             "wire": original.copy()}
    fork_a, fork_b = copy.deepcopy(world), copy.deepcopy(world)
    baseline = {key: _view(msg) for key, msg in world.items()}
    _scribble(fork_a["wire"].writable_header(), value + 1000)
    _scribble(fork_a["held"].headers[0], value + 2000)
    for other in (world, fork_b):
        assert {key: _view(msg) for key, msg in other.items()} == baseline
    assert _view(fork_a["pending"]) == baseline["pending"]
