"""Unit tests for protocol layers and stack splicing."""

import pytest

from repro.netsim.network import Network
from repro.netsim.scheduler import Scheduler
from repro.xkernel.message import Message
from repro.xkernel.protocol import PassthroughProtocol, Protocol, discard
from repro.xkernel.stack import NodeAnchor, ProtocolStack


class Recorder(Protocol):
    """Bottom layer capturing pushes; top layer capturing pops."""

    def __init__(self, name):
        super().__init__(name)
        self.pushed = []
        self.popped = []

    def push(self, msg):
        self.pushed.append(msg)
        self.send_down(msg)

    def pop(self, msg):
        self.popped.append(msg)
        self.send_up(msg)


def test_build_wires_neighbours():
    a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
    ProtocolStack().build(a, b, c)
    assert a.above is None and a.below is b
    assert b.above is a and b.below is c
    assert c.above is b and c.below is None


def test_push_travels_top_to_bottom():
    a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
    ProtocolStack().build(a, b, c)
    msg = Message(b"down")
    a.push(msg)
    assert b.pushed == [msg]
    assert c.pushed == [msg]


def test_pop_travels_bottom_to_top():
    a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
    ProtocolStack().build(a, b, c)
    msg = Message(b"up")
    c.pop(msg)
    assert b.popped == [msg]
    assert a.popped == [msg]


def test_insert_below_splices_transparently():
    a, c = Recorder("a"), Recorder("c")
    stack = ProtocolStack().build(a, c)
    spy = Recorder("spy")
    stack.insert_below("a", spy)
    msg = Message()
    a.push(msg)
    assert spy.pushed == [msg]
    assert c.pushed == [msg]


def test_insert_above():
    a, c = Recorder("a"), Recorder("c")
    stack = ProtocolStack().build(a, c)
    spy = Recorder("spy")
    stack.insert_above("c", spy)
    assert stack.layers()[1] is spy


def test_insert_below_missing_layer_raises():
    stack = ProtocolStack().build(Recorder("a"))
    with pytest.raises(KeyError):
        stack.insert_below("nope", Recorder("x"))


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        ProtocolStack().build(Recorder("same"), Recorder("same"))


def test_remove_rejoins_neighbours():
    a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
    stack = ProtocolStack().build(a, b, c)
    stack.remove("b")
    msg = Message()
    a.push(msg)
    assert c.pushed == [msg]
    assert b.pushed == []


def _exits(layer):
    """``(send_up, send_down)`` as wired on the instance."""
    return vars(layer)["send_up"], vars(layer)["send_down"]


def test_build_binds_each_exit_to_the_neighbours_entry_point():
    a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
    ProtocolStack().build(a, b, c)
    assert _exits(a) == (discard, b.push)
    assert _exits(b) == (a.pop, c.push)
    assert _exits(c) == (b.pop, discard)


def test_insert_below_rebinds_the_neighbours():
    a, c = Recorder("a"), Recorder("c")
    stack = ProtocolStack().build(a, c)
    spy = Recorder("spy")
    stack.insert_below("a", spy)
    assert _exits(a) == (discard, spy.push)
    assert _exits(spy) == (a.pop, c.push)
    assert _exits(c) == (spy.pop, discard)


def test_insert_above_rebinds_the_neighbours():
    a, c = Recorder("a"), Recorder("c")
    stack = ProtocolStack().build(a, c)
    spy = Recorder("spy")
    stack.insert_above("c", spy)
    assert _exits(a)[1] == spy.push
    assert _exits(c)[0] == spy.pop
    msg = Message()
    c.pop(msg)
    assert spy.popped == [msg]
    assert a.popped == [msg]


def test_remove_rebinds_the_neighbours():
    a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
    stack = ProtocolStack().build(a, b, c)
    stack.remove("b")
    assert _exits(a) == (discard, c.push)
    assert _exits(c) == (a.pop, discard)


def test_a_removed_layer_sends_nowhere():
    a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
    stack = ProtocolStack().build(a, b, c)
    stack.remove("b")
    assert b.above is None and b.below is None
    assert _exits(b) == (discard, discard)
    b.push(Message())
    b.pop(Message())
    assert c.pushed == [] and a.popped == []


def test_a_hand_linked_unwired_layer_sends_nowhere():
    # neighbours are reached only through exits a stack binds; linking
    # above / below by hand binds none, so the class exits drop the message
    a, b = Recorder("a"), Recorder("b")
    a.below, b.above = b, a
    assert "send_down" not in vars(a) and "send_up" not in vars(b)
    a.push(Message())
    b.pop(Message())
    assert b.pushed == [] and a.popped == []
    ProtocolStack().build(a, b)
    down, up = Message(), Message()
    a.push(down)
    b.pop(up)
    assert b.pushed == [down] and a.popped == [up]


def test_push_replaced_after_wiring_needs_a_rewire():
    a, b = Recorder("a"), Recorder("b")
    stack = ProtocolStack().build(a, b)
    seen = []
    b.push = seen.append
    a.push(Message())
    assert seen == []           # a still calls the push bound at wiring
    stack.insert_above("a", Recorder("top"))
    msg = Message()
    a.push(msg)
    assert seen == [msg]


def test_top_bottom_accessors():
    a, b = Recorder("a"), Recorder("b")
    stack = ProtocolStack().build(a, b)
    assert stack.top is a
    assert stack.bottom is b
    assert "a" in stack
    assert "zz" not in stack
    assert len(stack) == 2


def test_empty_stack_top_raises():
    with pytest.raises(IndexError):
        ProtocolStack().top


def test_passthrough_counts():
    passthrough = PassthroughProtocol()
    ProtocolStack().build(Recorder("top"), passthrough, Recorder("bottom"))
    passthrough.push(Message())
    passthrough.pop(Message())
    assert passthrough.pushed_count == 1
    assert passthrough.popped_count == 1


class TestNodeAnchor:
    def setup_method(self):
        self.sched = Scheduler()
        self.net = Network(self.sched)
        self.n1 = self.net.add_node("n1", 1)
        self.n2 = self.net.add_node("n2", 2)

    def test_push_transmits_to_meta_dst(self):
        top2 = Recorder("top2")
        ProtocolStack().build(top2, NodeAnchor(self.n2))
        anchor1 = NodeAnchor(self.n1)
        ProtocolStack().build(Recorder("top1"), anchor1)
        msg = Message(b"payload", meta={"dst": 2})
        anchor1.push(msg)
        self.sched.run()
        assert len(top2.popped) == 1
        assert top2.popped[0].meta["src"] == 1

    def test_push_without_dst_raises(self):
        anchor = NodeAnchor(self.n1)
        with pytest.raises(ValueError):
            anchor.push(Message(b"lost"))

    def test_non_message_payload_wrapped(self):
        top = Recorder("top")
        anchor = NodeAnchor(self.n2)
        ProtocolStack().build(top, anchor)
        self.net.send(1, 2, b"raw bytes")
        self.sched.run()
        assert isinstance(top.popped[0], Message)
        assert top.popped[0].payload == b"raw bytes"
