"""Unit tests for vendor profiles, the TCP protocol layer, and IP."""

import pytest

from repro.core import make_env
from repro.tcp import (AIX_323, BSD_DERIVED, NEXT_MACH, SOLARIS_23,
                       SUNOS_413, TCP_SCHEMA, TCPProtocol, VENDORS, XKERNEL)
from repro.tcp.ip import IPHeader, IPProtocol
from repro.tcp.segment import ACK, SYN, Segment
from repro.xkernel.message import Message
from repro.xkernel.protocol import Protocol
from repro.xkernel.stack import NodeAnchor, ProtocolStack


class TestVendorProfiles:
    def test_paper_constants_bsd(self):
        for name in BSD_DERIVED:
            profile = VENDORS[name]
            assert profile.max_retransmits == 12
            assert profile.max_rto == 64.0
            assert profile.reset_on_timeout
            assert profile.uses_jacobson
            assert profile.ka_idle == 7200.0
            assert profile.ka_probe_interval == 75.0
            assert profile.ka_probe_retransmits == 8
            assert profile.persist_max == 60.0
            assert profile.global_fault_threshold is None

    def test_paper_constants_solaris(self):
        assert SOLARIS_23.global_fault_threshold == 9
        assert not SOLARIS_23.reset_on_timeout
        assert not SOLARIS_23.uses_jacobson
        assert SOLARIS_23.min_rto == pytest.approx(0.330)
        assert SOLARIS_23.ka_idle == 6752.0
        assert SOLARIS_23.ka_backoff
        assert SOLARIS_23.persist_max == 56.0

    def test_keepalive_garbage_byte_only_sunos(self):
        assert SUNOS_413.ka_garbage_byte
        assert not AIX_323.ka_garbage_byte
        assert not NEXT_MACH.ka_garbage_byte

    def test_solaris_skew_ratio(self):
        """The acknowledged curiosity: 6752/7200 ~= 56/60."""
        assert SOLARIS_23.ka_idle / 7200.0 == pytest.approx(
            SOLARIS_23.persist_max / 60.0, rel=0.01)

    def test_profiles_frozen(self):
        with pytest.raises(Exception):
            SUNOS_413.min_rto = 5.0

    def test_all_vendors_queue_out_of_order(self):
        assert all(p.queue_out_of_order for p in VENDORS.values())


class TestIPLayer:
    def test_push_wraps_pop_unwraps(self):
        captured = []

        class Bottom(Protocol):
            def __init__(self):
                super().__init__("bottom")

            def push(self, msg):
                captured.append(msg)

        class Top(Protocol):
            def __init__(self):
                super().__init__("top")
                self.got = []

            def pop(self, msg):
                self.got.append(msg)

        top, bottom = Top(), Bottom()
        ip = IPProtocol(local_address=1)
        ProtocolStack().build(top, ip, bottom)
        msg = Message(b"data", meta={"dst": 2})
        ip.push(msg)
        assert isinstance(captured[0].top_header, IPHeader)
        assert captured[0].top_header.src == 1

        ip.pop(captured[0])
        assert top.got == []  # dst=2, not for us

        reply = Message(b"back")
        reply.push_header(IPHeader(src=2, dst=1))
        ip.pop(reply)
        assert top.got[0].meta["src"] == 2

    def test_push_without_dst_raises(self):
        ip = IPProtocol(local_address=1)
        with pytest.raises(ValueError):
            ip.push(Message(b"lost"))


def build_two_hosts(profile_a=SUNOS_413, profile_b=XKERNEL):
    env = make_env(seed=0)
    n1 = env.network.add_node("h1", 1)
    n2 = env.network.add_node("h2", 2)
    t1 = TCPProtocol(env.scheduler, profile_a, local_address=1,
                     trace=env.trace, host="h1")
    ProtocolStack("s1").build(t1, IPProtocol(1), NodeAnchor(n1))
    t2 = TCPProtocol(env.scheduler, profile_b, local_address=2,
                     trace=env.trace, host="h2")
    ProtocolStack("s2").build(t2, IPProtocol(2), NodeAnchor(n2))
    return env, t1, t2


class TestTCPProtocolLayer:
    def test_listener_binds_on_syn(self):
        env, t1, t2 = build_two_hosts()
        server = t2.listen(80)
        client = t1.open_connection(local_port=5000, remote_address=2,
                                    remote_port=80)
        client.connect()
        env.run_until(1.0)
        assert server.established
        assert server.remote_address == 1
        assert server.remote_port == 5000
        assert t2.connection(80, 1, 5000) is server

    def test_multiple_connections_demuxed(self):
        env, t1, t2 = build_two_hosts()
        s1 = t2.listen(80)
        c1 = t1.open_connection(local_port=5000, remote_address=2,
                                remote_port=80)
        c1.connect()
        env.run_until(1.0)
        s2 = t2.listen(81)
        c2 = t1.open_connection(local_port=5001, remote_address=2,
                                remote_port=81)
        c2.connect()
        env.run_until(2.0)
        c1.send(b"to-80")
        c2.send(b"to-81")
        env.run_until(3.0)
        assert bytes(s1.delivered) == b"to-80"
        assert bytes(s2.delivered) == b"to-81"

    def test_unknown_port_refused_with_rst(self):
        env, t1, t2 = build_two_hosts()
        client = t1.open_connection(local_port=5000, remote_address=2,
                                    remote_port=4242)
        client.connect()
        env.run_until(5.0)
        assert client.state == "CLOSED"
        assert client.close_reason == "reset_received"

    def test_distinct_iss_per_connection(self):
        env, t1, _ = build_two_hosts()
        c1 = t1.open_connection(local_port=5000, remote_address=2,
                                remote_port=80)
        c2 = t1.open_connection(local_port=5001, remote_address=2,
                                remote_port=80)
        assert c1.iss != c2.iss


class TestTCPStubs:
    def test_recognizes_segment_types(self):
        stubs = TCP_SCHEMA
        msg = Message()
        msg.push_header(Segment(src_port=1, dst_port=2, seq=0, ack=0,
                                flags=SYN, window=0))
        assert stubs.msg_type(msg) == "SYN"

    def test_unknown_for_non_tcp(self):
        stubs = TCP_SCHEMA
        assert stubs.msg_type(Message(b"opaque")) == "UNKNOWN"

    def test_generates_stateless_probes(self):
        stubs = TCP_SCHEMA
        for type_name in ("ACK", "RST", "SYN"):
            msg = stubs.generate(type_name, src_port=9, dst_port=10,
                                 seq=1, dst=2)
            assert stubs.msg_type(msg) == type_name
            assert msg.meta["dst"] == 2
            assert msg.meta["injected"]
