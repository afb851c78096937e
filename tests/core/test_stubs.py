"""Unit tests for the packet stubs: one declared message schema."""

import copy

import pytest

from repro.abp import ABP_SCHEMA
from repro.core.cloneplan import ClonePlan
from repro.core.stubs import (MessageType, PacketStubs, StubError,
                              UNKNOWN_TYPE)
from repro.gmp.messages import GMP_SCHEMA, PROCLAIM, GmpMessage
from repro.gmp.reliable import RelHeader
from repro.tcp.ip import IPHeader
from repro.tcp.segment import ACK, SYN, TCP_SCHEMA, Segment
from repro.xkernel.message import Message


def _segment_message(flags=SYN, seq=100):
    seg = Segment(src_port=1, dst_port=2, seq=seq, ack=0, flags=flags,
                  window=4096)
    return Message(payload=b"", headers=[seg])


def _gmp_message(seq=3):
    msg = Message(payload=GmpMessage(PROCLAIM, sender=1, group_id=5))
    msg.push_header(RelHeader(seq=seq))
    return msg


class Frame:
    """A payload carrier with a computed field."""

    __slots__ = ("seq",)

    def __init__(self, seq):
        self.seq = seq

    @property
    def next_seq(self):
        return self.seq + 1


#: one type, named by ``meta['tag']``, carried on a :class:`Frame` payload
FRAME_SCHEMA = PacketStubs(
    name="frame",
    msg_type=lambda m: "TAGGED" if m.meta.get("tag") else UNKNOWN_TYPE,
    types=(MessageType("TAGGED", (Frame,), ("seq",),
                       generate=lambda **f: Message(payload=Frame(**f))),))


class TestDeclaration:
    def test_vocabulary_is_the_declared_order(self):
        assert TCP_SCHEMA.vocabulary == ("SYN", "SYNACK", "ACK", "DATA",
                                         "FIN", "RST")
        assert "REL_ACK" not in GMP_SCHEMA.vocabulary

    @pytest.mark.parametrize("settable", [("end_seq",), ("ghost",)])
    def test_settable_must_be_a_data_field_of_a_carrier(self, settable):
        with pytest.raises(ValueError, match=settable[0]):
            PacketStubs("t", lambda m: UNKNOWN_TYPE,
                        (MessageType("T", (Segment,), settable),))

    def test_corruption_row_must_name_a_settable_field(self):
        with pytest.raises(ValueError, match="T.seq"):
            PacketStubs("t", lambda m: UNKNOWN_TYPE,
                        (MessageType("T", (Segment,), ("ack",)),),
                        corruptions=(("T", "seq", 0),))

    def test_a_schema_is_shared_not_copied(self):
        world = {"stubs": TCP_SCHEMA, "msg": _segment_message()}
        assert copy.deepcopy(world)["stubs"] is TCP_SCHEMA
        plan = ClonePlan(world)
        assert plan.clone()["stubs"] is TCP_SCHEMA
        assert plan.fallback == []


class TestRecognition:
    def test_unknown_without_recognizers(self):
        # a message no schema's recogniser claims
        for schema in (TCP_SCHEMA, GMP_SCHEMA, ABP_SCHEMA, FRAME_SCHEMA):
            assert schema.msg_type(Message()) == UNKNOWN_TYPE

    def test_recognizer_sees_message(self):
        assert FRAME_SCHEMA.msg_type(Message(meta={"tag": 1})) == "TAGGED"
        assert FRAME_SCHEMA.msg_type(Message()) == UNKNOWN_TYPE


class TestGeneration:
    def test_generate_calls_factory(self):
        msg = FRAME_SCHEMA.generate("TAGGED", seq=7)
        assert msg.payload.seq == 7

    def test_generated_messages_marked(self):
        msg = TCP_SCHEMA.generate("ACK")
        assert msg.meta["injected"] is True
        assert msg.meta["injected_type"] == "ACK"

    def test_unknown_generator_raises_with_known_list(self):
        with pytest.raises(StubError, match=r"known: \['ACK', 'RST', 'SYN'\]"):
            TCP_SCHEMA.generate("NOPE")

    @pytest.mark.parametrize("type_name", ["SYNACK", "REL_ACK"])
    def test_types_without_a_generator_are_refused(self, type_name):
        schema = TCP_SCHEMA if type_name == "SYNACK" else GMP_SCHEMA
        with pytest.raises(StubError, match="no generator"):
            schema.generate(type_name)


class TestFieldAccess:
    def test_get_from_object_header(self):
        assert TCP_SCHEMA.get_field(_segment_message(seq=7), "seq") == 7

    def test_outermost_header_wins(self):
        msg = _segment_message(seq=1)
        msg.push_header(Segment(src_port=1, dst_port=2, seq=2, ack=0,
                                flags=ACK, window=0))
        assert TCP_SCHEMA.get_field(msg, "seq") == 2

    def test_get_from_object_payload(self):
        msg = Message(payload=Frame(seq=3))
        assert FRAME_SCHEMA.get_field(msg, "seq") == 3
        assert FRAME_SCHEMA.get_field(msg, "next_seq") == 4

    def test_reads_header_and_payload_fields(self):
        msg = _gmp_message(seq=3)
        assert GMP_SCHEMA.get_field(msg, "seq") == 3
        assert GMP_SCHEMA.get_field(msg, "group_id") == 5

    def test_undeclared_classes_are_not_read(self):
        msg = _segment_message()
        msg.push_header(IPHeader(src=1, dst=2))
        with pytest.raises(StubError, match="'src'"):
            TCP_SCHEMA.get_field(msg, "src")

    def test_missing_field_raises(self):
        with pytest.raises(StubError, match="no header field 'nothing'"):
            TCP_SCHEMA.get_field(_segment_message(), "nothing")

    def test_bytes_payload_not_probed(self):
        with pytest.raises(StubError):
            TCP_SCHEMA.get_field(Message(b"raw"), "decode")

    def test_set_on_object_header(self):
        msg = _segment_message()
        TCP_SCHEMA.set_field(msg, "window", 0)
        assert msg.find_header(Segment).window == 0

    def test_set_on_object_payload(self):
        payload = Frame(seq=1)
        FRAME_SCHEMA.set_field(Message(payload=payload, meta={"tag": 1}),
                               "seq", 5)
        assert payload.seq == 5

    def test_fields_of_two_carriers(self):
        msg = _gmp_message()
        GMP_SCHEMA.set_field(msg, "seq", 42)
        GMP_SCHEMA.set_field(msg, "group_id", 9)
        assert msg.find_header(RelHeader).seq == 42
        assert msg.payload.group_id == 9

    def test_set_missing_raises(self):
        with pytest.raises(StubError, match="SYN has no settable field"):
            TCP_SCHEMA.set_field(_segment_message(), "ghost", 1)

    def test_internal_and_unknown_types_set_nothing(self):
        ack = Message(payload=b"", headers=[RelHeader(seq=1, is_ack=True)])
        with pytest.raises(StubError, match="REL_ACK .*settable: none"):
            GMP_SCHEMA.set_field(ack, "seq", 2)
        with pytest.raises(StubError, match="UNKNOWN .*settable: none"):
            GMP_SCHEMA.set_field(Message(b"x"), "seq", 2)

    def test_absent_carrier_is_refused(self):
        # a generated GMP message has no reliable-layer header to write
        msg = GMP_SCHEMA.generate("PROCLAIM")
        with pytest.raises(StubError, match="no header field 'seq'"):
            GMP_SCHEMA.set_field(msg, "seq", 1)


class TestComputedFields:
    """Writes to fields a type does not declare settable -- computed
    properties included -- are refused by name, up front."""

    @pytest.mark.parametrize("name", ["end_seq", "is_syn", "payload"])
    def test_property_write_raises_stub_error(self, name):
        with pytest.raises(StubError) as excinfo:
            TCP_SCHEMA.set_field(_segment_message(), name, 5)
        assert str(excinfo.value) == (
            f"message type SYN has no settable field {name!r} (settable: "
            f"src_port, dst_port, seq, ack, flags, window)")

    def test_rejected_write_clones_nothing(self):
        msg = _segment_message()
        sibling = msg.copy()
        with pytest.raises(StubError):
            TCP_SCHEMA.set_field(sibling, "end_seq", 5)
        assert sibling.find_header(Segment) is msg.find_header(Segment)

    def test_property_on_object_payload_refused(self):
        msg = Message(payload=Frame(seq=1), meta={"tag": 1})
        with pytest.raises(StubError, match="'next_seq'"):
            FRAME_SCHEMA.set_field(msg, "next_seq", 9)

    def test_property_write_through_tclish_filter(self, harness):
        # through a tclish filter the StubError is the command's TclError
        from repro.core import TclishFilter
        from repro.core.tclish import TclError
        harness.pfi.stubs = TCP_SCHEMA
        harness.pfi.set_send_filter(TclishFilter("msg_set_field end_seq 5"))
        with pytest.raises(TclError) as excinfo:
            harness.pfi.push(_segment_message())
        assert str(excinfo.value).startswith(
            'error in command "msg_set_field": message type SYN ')
        assert "end_seq" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, StubError)

    def test_missing_field_is_trapped_by_catch(self, harness):
        from repro.core import TclishFilter
        script = TclishFilter(
            "set code [catch {msg_field group_id} err]\n"
            "puts \"$code $err\"\n"
            "xDrop cur_msg")
        harness.pfi.set_send_filter(script)
        harness.send_down()
        assert script.output_lines == [
            "1 error in command \"msg_field\": "
            "message has no header field 'group_id'"]
        assert harness.bottom.received == []


class TestAliasedWrites:
    """set_field writes a private clone; get_field never copies."""

    def test_set_field_invisible_to_sibling(self):
        msg = _gmp_message(seq=1)
        sibling = msg.copy()
        GMP_SCHEMA.set_field(sibling, "seq", 9)
        assert GMP_SCHEMA.get_field(msg, "seq") == 1
        assert GMP_SCHEMA.get_field(sibling, "seq") == 9
        # only the written object was cloned
        assert sibling.payload is msg.payload
        GMP_SCHEMA.set_field(sibling, "sender", 7)
        assert msg.payload.sender == 1
        assert sibling.payload is not msg.payload

    def test_get_field_keeps_headers_aliased(self):
        msg = _gmp_message()
        sibling = msg.copy()
        assert GMP_SCHEMA.get_field(sibling, "seq") == 3
        assert GMP_SCHEMA.get_field(sibling, "group_id") == 5
        assert sibling.find_header(RelHeader) is msg.find_header(RelHeader)
        assert sibling.payload is msg.payload


def test_the_docs_field_table_is_rendered_from_the_schemas():
    from pathlib import Path

    from repro.core.stubs import field_table
    docs = Path(__file__).resolve().parents[2] / "docs" / "writing-experiments.md"
    committed = docs.read_text().split(
        "<!-- field-table: generated by repro.core.stubs.field_table -->\n",
        1)[1].split("\n<!-- /field-table -->", 1)[0]
    assert committed == field_table(TCP_SCHEMA, GMP_SCHEMA, ABP_SCHEMA)
