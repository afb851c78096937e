"""Integration tests: full stacks, PFI layer spliced, TCP end to end."""

import pytest

from repro.core import TclishFilter
from repro.experiments.tcp_common import (build_tcp_testbed, open_connection,
                                          stream_from_vendor)
from repro.tcp import SOLARIS_23, SUNOS_413, XKERNEL


class TestTestbed:
    def test_handshake_through_pfi(self):
        testbed = build_tcp_testbed(SUNOS_413)
        client, server = open_connection(testbed)
        assert client.established and server.established

    def test_data_through_transparent_pfi(self):
        testbed = build_tcp_testbed(SUNOS_413)
        client, server = open_connection(testbed)
        client.send(b"through the layers")
        testbed.env.run_until(2.0)
        assert bytes(server.delivered) == b"through the layers"

    def test_pfi_sees_both_directions(self):
        testbed = build_tcp_testbed(SUNOS_413)
        client, server = open_connection(testbed)
        client.send(b"x" * 512)
        testbed.env.run_until(2.0)
        assert testbed.pfi.stats["receive_seen"] >= 2  # SYN + data
        assert testbed.pfi.stats["send_seen"] >= 2     # SYNACK + ACKs

    def test_pfi_layer_is_spliceable(self):
        """The PFI layer can be removed and traffic still flows."""
        testbed = build_tcp_testbed(SUNOS_413)
        client, server = open_connection(testbed)
        testbed.xkernel_stack.remove("pfi")
        client.send(b"no pfi anymore")
        testbed.env.run_until(2.0)
        assert bytes(server.delivered) == b"no pfi anymore"


class TestScriptedFaults:
    def test_drop_all_forces_vendor_timeout(self):
        testbed = build_tcp_testbed(SUNOS_413)
        client, _ = open_connection(testbed)
        testbed.pfi.set_receive_filter(lambda ctx: ctx.drop())
        client.send(b"z" * 512)
        testbed.env.run_until(1500.0)
        assert client.state == "CLOSED"
        assert client.close_reason == "retransmission_timeout"

    def test_tclish_and_python_backends_equivalent(self):
        """The same pass-30-then-drop experiment via both backends."""
        results = {}
        for backend in ("python", "tclish"):
            testbed = build_tcp_testbed(SUNOS_413)
            client, _ = open_connection(testbed)
            stream_from_vendor(testbed, client, segments=40, interval=0.5)
            if backend == "python":
                def fn(ctx):
                    n = ctx.state.get("n", 0) + 1
                    ctx.state["n"] = n
                    if n > 30:
                        ctx.drop()
                testbed.pfi.set_receive_filter(fn)
            else:
                testbed.pfi.set_receive_filter(TclishFilter(
                    "incr n; if {$n > 30} {xDrop cur_msg}",
                    init_script="set n 0"))
            testbed.env.run_until(1500.0)
            results[backend] = (
                testbed.trace.count("tcp.retransmit", conn="vendor:5000"),
                client.close_reason,
            )
        assert results["python"] == results["tclish"]

    def test_ack_delay_slows_but_does_not_break_transfer(self):
        testbed = build_tcp_testbed(SUNOS_413)
        client, server = open_connection(testbed)

        def delay_acks(ctx):
            if ctx.msg_type() == "ACK":
                ctx.delay(0.5)
        testbed.pfi.set_send_filter(delay_acks)
        client.send(b"slowly" * 200)
        testbed.env.run_until(120.0)
        assert bytes(server.delivered) == b"slowly" * 200

    def test_spurious_ack_injection_is_ignored_by_vendor(self):
        """Probing: a forged ACK for unsent data must not corrupt state."""
        testbed = build_tcp_testbed(SUNOS_413)
        client, server = open_connection(testbed)
        probe = testbed.pfi.stubs.generate(
            "ACK", src_port=80, dst_port=5000,
            seq=server.snd_nxt, ack=client.snd_nxt + 99999,
            dst=1)
        testbed.pfi.inject(probe, "send")
        testbed.env.run_until(2.0)
        client.send(b"still works")
        testbed.env.run_until(4.0)
        assert bytes(server.delivered) == b"still works"

    def test_corruption_dropped_by_checksum_style_mutation(self):
        """Byzantine corruption of the seq field desynchronizes cleanly:
        the receiver treats it as out-of-order traffic, and the sender's
        retransmission (unmodified) eventually delivers."""
        testbed = build_tcp_testbed(SUNOS_413)
        client, server = open_connection(testbed)

        def corrupt_once(ctx):
            if ctx.msg_type() == "DATA" and not ctx.state.get("done"):
                ctx.state["done"] = True
                ctx.set_field("seq", ctx.field("seq") + 100000)
        testbed.pfi.set_receive_filter(corrupt_once)
        client.send(b"resilient")
        testbed.env.run_until(60.0)
        assert bytes(server.delivered) == b"resilient"


class TestCrossVendor:
    @pytest.mark.parametrize("profile", [SUNOS_413, SOLARIS_23, XKERNEL])
    def test_all_profiles_interoperate(self, profile):
        testbed = build_tcp_testbed(profile)
        client, server = open_connection(testbed)
        client.send(b"interop" * 100)
        testbed.env.run_until(10.0)
        assert bytes(server.delivered) == b"interop" * 100
