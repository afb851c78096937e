"""Two-level copy-on-write: what is aliased, and when a clone is paid.

``test_message_cow.py`` pins the isolation contract of the public
``headers`` list; these tests pin the other half -- reads and copies
never duplicate a header, and a write duplicates exactly the one header
it needs.
"""

import pytest

from repro.gmp.reliable import RelHeader
from repro.gmp.udp import UDPHeader
from repro.xkernel.message import Message


def _message():
    msg = Message(payload=b"p")
    msg.push_header(RelHeader(seq=5))
    msg.push_header(UDPHeader(src_port=7, dst_port=7))
    return msg


class TestReadsNeverCopy:
    def test_copy_aliases_every_header(self):
        msg = _message()
        sibling = msg.copy()
        assert list(sibling.iter_headers()) == list(msg.iter_headers())
        for ours, theirs in zip(sibling.iter_headers(), msg.iter_headers()):
            assert ours is theirs

    def test_iter_headers_is_outermost_first(self):
        msg = _message()
        assert [type(h) for h in msg.iter_headers()] == [UDPHeader, RelHeader]

    def test_top_find_pop_return_the_aliased_object(self):
        msg = _message()
        sibling = msg.copy()
        assert sibling.top_header is msg.top_header
        assert sibling.find_header(RelHeader) is msg.find_header(RelHeader)
        assert sibling.pop_header() is msg.top_header

    def test_push_and_pop_leave_the_sibling_stack_alone(self):
        msg = _message()
        sibling = msg.copy()
        sibling.pop_header()
        sibling.push_header(UDPHeader(src_port=1, dst_port=1))
        assert [type(h) for h in msg.iter_headers()] == [UDPHeader, RelHeader]
        assert msg.top_header.src_port == 7
        # the rest of the stack is still shared, not cloned
        assert sibling.find_header(RelHeader) is msg.find_header(RelHeader)


class TestWritesCloneOneHeader:
    def test_writable_header_clones_only_the_requested_one(self):
        msg = _message()
        sibling = msg.copy()
        top = sibling.writable_header()
        assert top is not msg.top_header
        assert top == msg.top_header
        assert sibling.find_header(RelHeader) is msg.find_header(RelHeader)
        top.src_port = 99
        assert msg.top_header.src_port == 7

    def test_second_request_returns_the_same_private_header(self):
        sibling = _message().copy()
        assert sibling.writable_header(1) is sibling.writable_header(1)

    def test_unshared_message_hands_out_its_own_header(self):
        msg = _message()
        assert msg.writable_header() is msg.top_header

    def test_depth_out_of_range(self):
        msg = _message()
        for depth in (2, -1):
            with pytest.raises(IndexError):
                msg.writable_header(depth)

    def test_headers_keeps_what_was_pushed_privately(self):
        sibling = _message().copy()
        mine = UDPHeader(src_port=2, dst_port=2)
        sibling.pop_header()
        sibling.push_header(mine)
        assert sibling.headers[-1] is mine

    def test_both_sides_of_a_copy_clone_on_headers(self):
        # no reference counting: neither side may assume it is the last
        msg = _message()
        sibling = msg.copy()
        shared = list(msg.iter_headers())
        for side in (msg, sibling):
            for header in side.headers:
                assert all(header is not h for h in shared)
