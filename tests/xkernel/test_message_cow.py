"""Copy-on-write messages must never leak mutations between copies.

``Message.copy()`` shares the header list until one side touches it, so
these tests hammer the aliasing surface: for every real header/payload
type the stacks use (TCP segments, IP headers, GMP wire messages, UDP and
reliable-layer headers), mutating any copy -- its headers, its meta, its
mutable payload -- must be invisible to every other copy, whichever side
materialized first and however many copies share the group.
"""

import itertools

import pytest

from repro.gmp.messages import PROCLAIM, GmpMessage
from repro.gmp.reliable import RelHeader
from repro.gmp.udp import UDPHeader
from repro.tcp.ip import IPHeader
from repro.tcp.segment import ACK, SYN, Segment
from repro.xkernel.message import Message


def _tcp_message():
    seg = Segment(src_port=1, dst_port=2, seq=100, ack=0,
                  flags=SYN, window=4096, payload=b"data")
    msg = Message(payload=seg)
    msg.push_header(IPHeader(src=10, dst=20))
    msg.meta["dst"] = 20
    return msg


def _gmp_message():
    wire = GmpMessage(kind=PROCLAIM, sender=3, originator=3,
                      group_id=7, members=(1, 2, 3))
    msg = Message(payload=wire)
    msg.push_header(RelHeader(seq=5))
    msg.push_header(UDPHeader(src_port=7777, dst_port=7777))
    msg.meta["dst"] = 1
    return msg


def _mutable_payload_message():
    msg = Message(payload={"fields": [1, 2, 3]})
    msg.push_header(IPHeader(src=1, dst=2))
    return msg


BUILDERS = [_tcp_message, _gmp_message, _mutable_payload_message]


def _mutate_headers(msg):
    """Scribble over every recognized header field."""
    for header in msg.headers:
        if isinstance(header, IPHeader):
            header.src, header.dst, header.ttl = 99, 98, 1
        elif isinstance(header, UDPHeader):
            header.src_port = header.dst_port = 9
        elif isinstance(header, RelHeader):
            header.seq, header.is_ack = 999, True


def _snapshot(msg):
    """A deep, comparison-friendly picture of the message's content."""
    return repr((msg.payload, list(msg.headers), sorted(msg.meta.items())))


@pytest.mark.parametrize("build", BUILDERS,
                         ids=["tcp", "gmp", "mutable_payload"])
class TestCopyAliasing:
    def test_mutating_copy_headers_leaves_original_intact(self, build):
        original = build()
        before = _snapshot(original)
        copy = original.copy()
        _mutate_headers(copy)
        assert _snapshot(original) == before

    def test_mutating_original_headers_leaves_copy_intact(self, build):
        original = build()
        copy = original.copy()
        before = _snapshot(copy)
        _mutate_headers(original)
        assert _snapshot(copy) == before

    def test_meta_is_independent(self, build):
        original = build()
        copy = original.copy()
        copy.meta["poison"] = True
        original.meta["other"] = 1
        assert "poison" not in original.meta
        assert "other" not in copy.meta

    def test_header_objects_never_shared_after_touch(self, build):
        original = build()
        copy = original.copy()
        copied_headers = copy.headers  # materializes the copy's stack
        for theirs, ours in zip(original.headers, copied_headers):
            assert theirs is not ours or not hasattr(theirs, "__dict__")

    def test_three_way_share_isolated(self, build):
        # N-way share groups: mutate each sibling, others must not move
        original = build()
        siblings = [original.copy() for _ in range(3)]
        baselines = [_snapshot(m) for m in [original] + siblings]
        for victim, (msg, before) in enumerate(
                zip([original] + siblings, baselines)):
            _mutate_headers(msg)
            for other_index, other in enumerate([original] + siblings):
                if other_index > victim:
                    assert _snapshot(other) == baselines[other_index]

    def test_push_pop_on_copy_does_not_touch_original(self, build):
        original = build()
        depth = len(original.headers)
        copy = original.copy()
        copy.push_header(IPHeader(src=1, dst=2))
        copy.pop_header()
        if copy.headers:
            copy.pop_header()
        assert len(original.headers) == depth


class TestPayloadAliasing:
    def test_segment_payload_cloned_not_shared(self):
        # aliased until written: the write goes through writable_payload()
        msg = _tcp_message()
        copy, sibling = msg.copy(), msg.copy()
        assert copy.payload is msg.payload is sibling.payload
        written = copy.writable_payload()
        written.seq = 12345
        written.flags = ACK
        assert copy.payload is written
        assert copy.payload is not msg.payload
        assert (copy.payload.seq, copy.payload.flags) == (12345, ACK)
        for other in (msg, sibling):
            assert other.payload.seq == 100
            assert other.payload.flags == SYN
        assert sibling.payload is msg.payload      # unwritten: still one object
        assert copy.writable_payload() is written  # private now: no second clone

    def test_gmp_payload_cloned_not_shared(self):
        msg = _gmp_message()
        copy, sibling = msg.copy(), msg.copy()
        assert copy.payload is msg.payload is sibling.payload
        # the original is marked too: its write must not reach the copies
        msg.writable_payload().sender = 77
        assert msg.payload.sender == 77
        assert copy.payload.sender == 3
        assert sibling.payload.sender == 3
        assert copy.payload is sibling.payload

    def test_mutable_container_payload_deepcopied(self):
        msg = _mutable_payload_message()
        copy = msg.copy()
        copy.payload["fields"].append(4)
        copy.payload["extra"] = True
        assert msg.payload == {"fields": [1, 2, 3]}

    def test_bytes_payload_still_shared(self):
        # immutable payloads stay aliased -- that is the optimization
        msg = Message(payload=b"wire bytes")
        assert msg.copy().payload is msg.payload


class TestShareGroupMechanics:
    def test_copy_chain_all_isolated(self):
        # copies of copies: every generation mutates, nothing bleeds back
        msg = _tcp_message()
        generations = [msg]
        for _ in range(4):
            generations.append(generations[-1].copy())
        baseline = _snapshot(msg)
        for gen in generations[1:]:
            _mutate_headers(gen)
        assert _snapshot(msg) == baseline

    def test_interleaved_reads_and_mutations(self):
        # reading headers (materializing) in arbitrary order must not
        # change what any sharer sees (meta differs by lineage, so only
        # payload and headers are compared)
        for order in itertools.permutations(range(3)):
            msgs = [_gmp_message()]
            msgs.append(msgs[0].copy())
            msgs.append(msgs[0].copy())
            expected = repr((msgs[0].payload, list(msgs[0].headers)))
            for index in order:
                assert repr((msgs[index].payload,
                             list(msgs[index].headers))) == expected
