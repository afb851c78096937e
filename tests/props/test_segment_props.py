"""Property-based tests for segment serialization and sequence arithmetic."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.tcp.segment import (SEQ_MOD, Segment, classify, seq_add, seq_leq,
                               seq_lt, seq_sub)

ports = st.integers(min_value=0, max_value=0xFFFF)
seqs = st.integers(min_value=0, max_value=SEQ_MOD - 1)
flags = st.integers(min_value=0, max_value=0x3F)
windows = st.integers(min_value=0, max_value=0xFFFF)
payloads = st.binary(max_size=600)


@given(ports, ports, seqs, seqs, flags, windows, payloads)
@settings(max_examples=200)
def test_serialization_roundtrip(src, dst, seq, ack, flag_bits, window,
                                 payload):
    seg = Segment(src_port=src, dst_port=dst, seq=seq, ack=ack,
                  flags=flag_bits, window=window, payload=payload)
    parsed = Segment.from_bytes(seg.to_bytes())
    assert parsed.src_port == src
    assert parsed.dst_port == dst
    assert parsed.seq == seq
    assert parsed.ack == ack
    assert parsed.flags == flag_bits
    assert parsed.window == window
    assert parsed.payload == payload


@given(ports, ports, seqs, seqs, flags, windows,
       st.binary(min_size=1, max_size=100),
       st.integers(min_value=0))
@settings(max_examples=200)
def test_single_byte_corruption_always_detected(src, dst, seq, ack,
                                                flag_bits, window, payload,
                                                position):
    seg = Segment(src_port=src, dst_port=dst, seq=seq, ack=ack,
                  flags=flag_bits, window=window, payload=payload)
    wire = bytearray(seg.to_bytes())
    index = position % len(wire)
    wire[index] ^= 0x5A
    try:
        Segment.from_bytes(bytes(wire))
        detected = False
    except ValueError:
        detected = True
    assert detected


@given(seqs, st.integers(min_value=0, max_value=2**20))
def test_seq_add_sub_inverse(a, n):
    assert seq_sub(seq_add(a, n), a) == n % SEQ_MOD


@given(seqs)
def test_seq_lt_irreflexive(a):
    assert not seq_lt(a, a)
    assert seq_leq(a, a)


@given(seqs, st.integers(min_value=1, max_value=SEQ_MOD // 2 - 1))
def test_seq_lt_respects_window(a, delta):
    """a < a+delta whenever delta is within half the sequence space."""
    b = seq_add(a, delta)
    assert seq_lt(a, b)
    assert not seq_lt(b, a)


#: what a filter's ``msg_set_field`` may leave in a header field: no
#: normalisation, negative or past the sequence space
raw_ints = st.integers(min_value=-2**40, max_value=2**40)


@given(raw_ints, raw_ints, payloads)
@settings(max_examples=300)
def test_flag_bit_arithmetic_agrees_with_the_flag_properties(seq, flag_bits,
                                                             payload):
    seg = Segment(src_port=1, dst_port=2, seq=0, ack=0, flags=flag_bits,
                  window=0, payload=payload)
    seg.seq = seq
    length = len(payload) + seg.is_syn + seg.is_fin
    assert seg.seg_len == length
    assert seg.end_seq == seq_add(seq, length)
    if seg.is_rst:
        expected = "RST"
    elif seg.is_syn:
        expected = "SYNACK" if seg.is_ack else "SYN"
    elif seg.is_fin:
        expected = "FIN"
    else:
        expected = "DATA" if len(payload) > 0 else "ACK"
    assert classify(seg) == expected


@given(raw_ints, raw_ints)
@example(SEQ_MOD + 5, 5)   # congruent, not equal: neither <= nor <
def test_seq_leq_is_equal_or_seq_lt(a, b):
    assert seq_leq(a, b) == (a == b or seq_lt(a, b))
