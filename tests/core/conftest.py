"""Shared fixtures for core-layer tests: a tiny two-layer harness with a
PFI layer in the middle."""

import pytest

from repro.core import MessageType, PFILayer, PacketStubs, make_env
from repro.core.stubs import UNKNOWN_TYPE
from repro.xkernel.message import Message
from repro.xkernel.protocol import Protocol
from repro.xkernel.stack import ProtocolStack


class CaptureTop(Protocol):
    """Records everything popped up to it."""

    def __init__(self):
        super().__init__("top")
        self.received = []

    def pop(self, msg):
        self.received.append(msg)


class CaptureBottom(Protocol):
    """Records everything pushed down to it."""

    def __init__(self):
        super().__init__("bottom")
        self.received = []

    def push(self, msg):
        self.received.append(msg)


class Probe:
    """The harness's one message body: two settable fields."""

    __slots__ = ("seq", "value")

    def __init__(self, seq=0, value=0):
        self.seq = seq
        self.value = value


def _meta_type(msg):
    return msg.meta.get("type", UNKNOWN_TYPE)


def _generate_probe(**fields):
    msg = Message(payload=Probe(**fields))
    msg.meta["type"] = "PROBE"
    return msg


#: a one-type schema: a message's type is its meta['type']; PROBE
#: messages carry a :class:`Probe` whose two fields a filter may set
SIMPLE_SCHEMA = PacketStubs(
    name="harness", msg_type=_meta_type,
    types=(MessageType("PROBE", (Probe,), ("seq", "value"),
                       generate=_generate_probe),))


def probe(msg_type="PROBE", **fields):
    """A message of the harness schema carrying a :class:`Probe`."""
    return Message(payload=Probe(**fields), meta={"type": msg_type})


class Harness:
    def __init__(self, seed=0):
        self.env = make_env(seed=seed)
        self.stubs = SIMPLE_SCHEMA
        self.top = CaptureTop()
        self.bottom = CaptureBottom()
        self.pfi = PFILayer("pfi", self.env.scheduler, self.stubs,
                            trace=self.env.trace, sync=self.env.sync,
                            node="testnode")
        ProtocolStack().build(self.top, self.pfi, self.bottom)

    def send_down(self, msg_type="DATA", **meta):
        msg = Message(b"payload", meta={"type": msg_type, **meta})
        self.pfi.push(msg)
        return msg

    def send_up(self, msg_type="DATA", **meta):
        msg = Message(b"payload", meta={"type": msg_type, **meta})
        self.pfi.pop(msg)
        return msg

    def run(self, until=10.0):
        self.env.run_until(until)


@pytest.fixture
def harness():
    return Harness()
