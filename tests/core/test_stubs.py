"""Unit tests for packet recognition/generation stubs."""

import pytest

from repro.core.stubs import PacketStubs, StubError, UNKNOWN_TYPE
from repro.xkernel.message import Message


@pytest.fixture
def stubs():
    return PacketStubs()


class TestRecognition:
    def test_unknown_without_recognizers(self, stubs):
        assert stubs.msg_type(Message()) == UNKNOWN_TYPE

    def test_first_non_none_wins(self, stubs):
        stubs.register_recognizer(lambda m: None)
        stubs.register_recognizer(lambda m: "SECOND")
        stubs.register_recognizer(lambda m: "THIRD")
        assert stubs.msg_type(Message()) == "SECOND"

    def test_recognizer_sees_message(self, stubs):
        stubs.register_recognizer(
            lambda m: "TAGGED" if m.meta.get("tag") else None)
        assert stubs.msg_type(Message(meta={"tag": 1})) == "TAGGED"
        assert stubs.msg_type(Message()) == UNKNOWN_TYPE


class TestGeneration:
    def test_generate_calls_factory(self, stubs):
        stubs.register_generator(
            "ACK", lambda **f: Message(payload=dict(f)))
        msg = stubs.generate("ACK", seq=7)
        assert msg.payload == {"seq": 7}

    def test_generated_messages_marked(self, stubs):
        stubs.register_generator("ACK", lambda **f: Message())
        msg = stubs.generate("ACK")
        assert msg.meta["injected"] is True
        assert msg.meta["injected_type"] == "ACK"

    def test_unknown_generator_raises_with_known_list(self, stubs):
        stubs.register_generator("ACK", lambda **f: Message())
        with pytest.raises(StubError, match="ACK"):
            stubs.generate("NOPE")

    def test_generator_names_sorted(self, stubs):
        stubs.register_generator("ZZZ", lambda **f: Message())
        stubs.register_generator("AAA", lambda **f: Message())
        assert stubs.generator_names() == ["AAA", "ZZZ"]


class ObjHeader:
    def __init__(self, seq):
        self.seq = seq


class TestFieldAccess:
    def test_get_from_dict_header(self, stubs):
        msg = Message()
        msg.push_header({"seq": 42})
        assert stubs.get_field(msg, "seq") == 42

    def test_get_from_object_header(self, stubs):
        msg = Message()
        msg.push_header(ObjHeader(seq=7))
        assert stubs.get_field(msg, "seq") == 7

    def test_outermost_header_wins(self, stubs):
        msg = Message()
        msg.push_header({"seq": 1})
        msg.push_header({"seq": 2})
        assert stubs.get_field(msg, "seq") == 2

    def test_get_from_dict_payload(self, stubs):
        msg = Message(payload={"window": 0})
        assert stubs.get_field(msg, "window") == 0

    def test_get_from_object_payload(self, stubs):
        msg = Message(payload=ObjHeader(seq=3))
        assert stubs.get_field(msg, "seq") == 3

    def test_missing_field_raises(self, stubs):
        with pytest.raises(StubError):
            stubs.get_field(Message(), "nothing")

    def test_set_on_dict_header(self, stubs):
        msg = Message()
        msg.push_header({"seq": 1})
        stubs.set_field(msg, "seq", 9)
        assert msg.headers[0]["seq"] == 9

    def test_set_on_object_header(self, stubs):
        msg = Message()
        header = ObjHeader(seq=1)
        msg.push_header(header)
        stubs.set_field(msg, "seq", 9)
        assert header.seq == 9

    def test_set_on_object_payload(self, stubs):
        payload = ObjHeader(seq=1)
        stubs.set_field(Message(payload=payload), "seq", 5)
        assert payload.seq == 5

    def test_set_missing_raises(self, stubs):
        with pytest.raises(StubError):
            stubs.set_field(Message(), "ghost", 1)

    def test_bytes_payload_not_probed(self, stubs):
        with pytest.raises(StubError):
            stubs.get_field(Message(b"raw"), "decode")


class TestComputedFields:
    """Writes to setter-less properties are refused by name, up front."""

    @staticmethod
    def _segment_message():
        from repro.tcp.segment import SYN, Segment
        seg = Segment(src_port=1, dst_port=2, seq=100, ack=0, flags=SYN,
                      window=4096)
        return Message(payload=b"", headers=[seg])

    @pytest.mark.parametrize("name", ["end_seq", "is_syn"])
    def test_property_write_raises_stub_error(self, stubs, name):
        msg = self._segment_message()
        with pytest.raises(StubError) as excinfo:
            stubs.set_field(msg, name, 5)
        assert name in str(excinfo.value)
        assert "Segment" in str(excinfo.value)

    def test_rejected_write_clones_nothing(self, stubs):
        msg = self._segment_message()
        sibling = msg.copy()
        with pytest.raises(StubError):
            stubs.set_field(sibling, "end_seq", 5)
        assert sibling.top_header is msg.top_header

    def test_property_on_object_payload_refused(self, stubs):
        msg = self._segment_message()
        with pytest.raises(StubError, match="is_syn"):
            stubs.set_field(Message(payload=msg.top_header), "is_syn", True)

    def test_property_write_through_tclish_filter(self, harness):
        # through the whole filter path the failure is still a StubError
        from repro.core import TclishFilter
        from repro.tcp.protocol import tcp_stubs
        harness.pfi.stubs = tcp_stubs()
        harness.pfi.set_send_filter(TclishFilter("msg_set_field end_seq 5"))
        with pytest.raises(StubError, match="end_seq"):
            harness.pfi.push(self._segment_message())


class TestAliasedWrites:
    """set_field writes a private clone; get_field never copies."""

    def test_set_field_invisible_to_sibling(self, stubs):
        msg = Message()
        msg.push_header(ObjHeader(seq=1))
        msg.push_header({"seq": 2, "ttl": 3})
        sibling = msg.copy()
        stubs.set_field(sibling, "ttl", 0)
        stubs.set_field(sibling, "seq", 9)
        assert stubs.get_field(msg, "ttl") == 3
        assert stubs.get_field(msg, "seq") == 2
        assert stubs.get_field(sibling, "ttl") == 0
        assert stubs.get_field(sibling, "seq") == 9
        # only the written header was cloned
        assert sibling.find_header(ObjHeader) is msg.find_header(ObjHeader)

    def test_get_field_keeps_headers_aliased(self, stubs):
        msg = Message()
        msg.push_header(ObjHeader(seq=1))
        sibling = msg.copy()
        assert stubs.get_field(sibling, "seq") == 1
        assert sibling.top_header is msg.top_header


class TestHasField:
    def _context(self, msg, stubs):
        from repro.core.context import ScriptContext
        from repro.core.distributions import DistributionSet
        from repro.core.sync import ScriptSync
        return ScriptContext(msg=msg, direction="send", now=0.0, state={},
                             peer_state={}, stubs=stubs,
                             dist=DistributionSet(seed=0), sync=ScriptSync(),
                             node="n", pfi=None)

    def test_absent_field_is_false(self, stubs):
        ctx = self._context(Message(), stubs)
        assert ctx.has_field("ghost") is False

    def test_present_field_is_true(self, stubs):
        msg = Message()
        msg.push_header({"seq": 1})
        assert self._context(msg, stubs).has_field("seq") is True

    def test_broken_header_property_propagates(self, stubs):
        class Broken:
            @property
            def seq(self):
                raise RuntimeError("bug in header property")

        msg = Message()
        msg.push_header(Broken())
        with pytest.raises(RuntimeError, match="bug in header property"):
            self._context(msg, stubs).has_field("seq")
