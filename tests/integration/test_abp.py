"""Tests for the alternating-bit protocol under PFI fault injection."""

import pytest

from repro.abp import ABP_SCHEMA, AbpFrame, AbpReceiver, AbpSender
from repro.core import PFILayer, TclishFilter, make_env
from repro.xkernel.stack import NodeAnchor, ProtocolStack


def build_abp(*, check_bit=True, seed=0, with_pfi_on="receiver"):
    """Sender on node 1, receiver on node 2, PFI under one of them."""
    env = make_env(seed=seed)
    n1 = env.network.add_node("sender", 1)
    n2 = env.network.add_node("receiver", 2)
    stubs = ABP_SCHEMA

    sender = AbpSender(env.scheduler, peer_address=2, trace=env.trace)
    sender_pfi = PFILayer("pfi_s", env.scheduler, stubs, trace=env.trace,
                          sync=env.sync, node="sender")
    ProtocolStack("s").build(sender, sender_pfi, NodeAnchor(n1, "anchor_s"))

    receiver = AbpReceiver(env.scheduler, peer_address=1,
                           check_bit=check_bit, trace=env.trace)
    receiver_pfi = PFILayer("pfi_r", env.scheduler, stubs, trace=env.trace,
                            sync=env.sync, node="receiver")
    ProtocolStack("r").build(receiver, receiver_pfi,
                             NodeAnchor(n2, "anchor_r"))
    return env, sender, receiver, sender_pfi, receiver_pfi


class TestCleanChannel:
    def test_in_order_delivery(self):
        env, sender, receiver, _, _ = build_abp()
        for i in range(5):
            sender.send(f"frame-{i}".encode())
        env.run_until(30.0)
        assert receiver.delivered == [f"frame-{i}".encode()
                                      for i in range(5)]
        assert sender.idle

    def test_bit_alternates(self):
        env, sender, receiver, _, _ = build_abp()
        sender.send(b"a")
        sender.send(b"b")
        env.run_until(10.0)
        bits = [e.get("bit") for e in env.trace.entries("abp.delivered")]
        assert bits == [0, 1]

    def test_no_retransmissions_without_faults(self):
        env, sender, receiver, _, _ = build_abp()
        sender.send(b"clean")
        env.run_until(10.0)
        assert sender.retransmissions == 0


class TestUnderFaults:
    def test_data_loss_recovered_by_retransmission(self):
        env, sender, receiver, _, receiver_pfi = build_abp()

        def drop_first_data(ctx):
            if ctx.msg_type() == "ABP_DATA" and not ctx.state.get("done"):
                ctx.state["done"] = True
                ctx.drop()

        receiver_pfi.set_receive_filter(drop_first_data)
        sender.send(b"survives loss")
        env.run_until(30.0)
        assert receiver.delivered == [b"survives loss"]
        assert sender.retransmissions >= 1

    def test_ack_loss_correct_receiver_suppresses_duplicate(self):
        env, sender, receiver, _, receiver_pfi = build_abp(check_bit=True)
        receiver_pfi.set_send_filter(_drop_first_ack())
        sender.send(b"exactly once")
        env.run_until(30.0)
        assert receiver.delivered == [b"exactly once"]
        assert receiver.duplicates_delivered == 0
        assert env.trace.count("abp.duplicate_suppressed") >= 1

    def test_ack_loss_buggy_receiver_delivers_twice(self):
        """The findable bug: one dropped ACK = one duplicate delivery."""
        env, sender, receiver, _, receiver_pfi = build_abp(check_bit=False)
        receiver_pfi.set_send_filter(_drop_first_ack())
        sender.send(b"twice!")
        env.run_until(30.0)
        assert receiver.delivered == [b"twice!", b"twice!"]
        assert receiver.duplicates_delivered == 1

    def test_heavy_omission_eventual_delivery(self):
        env, sender, receiver, _, receiver_pfi = build_abp(seed=3)
        receiver_pfi.set_receive_filter(
            TclishFilter('if {[chance 0.5]} { xDrop cur_msg }'))
        payloads = [f"p{i}".encode() for i in range(10)]
        for payload in payloads:
            sender.send(payload)
        env.run_until(600.0)
        assert receiver.delivered == payloads

    def test_total_loss_bounded_sender_gives_up(self):
        env = make_env()
        n1 = env.network.add_node("s", 1)
        env.network.add_node("r", 2)
        sender = AbpSender(env.scheduler, peer_address=2,
                           max_retransmits=5, trace=env.trace)
        pfi = PFILayer("pfi", env.scheduler, ABP_SCHEMA, trace=env.trace)
        ProtocolStack().build(sender, pfi, NodeAnchor(n1))
        pfi.set_send_filter(TclishFilter(
            'if {[msg_type cur_msg] eq "ABP_DATA"} { xDrop cur_msg }'))
        sender.send(b"void")
        env.run_until(60.0)
        assert sender.gave_up
        assert sender.retransmissions == 5

    def test_duplicate_injection_handled_by_correct_receiver(self):
        env, sender, receiver, _, receiver_pfi = build_abp()

        def duplicate_data(ctx):
            if ctx.msg_type() == "ABP_DATA":
                ctx.duplicate()

        receiver_pfi.set_receive_filter(duplicate_data)
        sender.send(b"dup me")
        env.run_until(30.0)
        assert receiver.delivered == [b"dup me"]

    def test_injected_forged_ack_desyncs_nothing_fatal(self):
        """A spurious ACK for the wrong bit must be ignored as stale."""
        env, sender, receiver, sender_pfi, _ = build_abp()
        sender.send(b"real")
        forged = sender_pfi.stubs.generate("ABP_ACK", bit=1, dst=1)
        sender_pfi.inject(forged, "receive")
        env.run_until(30.0)
        assert receiver.delivered == [b"real"]
        assert env.trace.count("abp.stale_ack") >= 1


def _drop_first_ack():
    def fn(ctx):
        if ctx.msg_type() == "ABP_ACK" and not ctx.state.get("done"):
            ctx.state["done"] = True
            ctx.drop()
    return fn


class TestFrameValidation:
    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            AbpFrame("NACK", 0)

    def test_bad_bit_rejected(self):
        with pytest.raises(ValueError):
            AbpFrame("DATA", 2)

    def test_stub_recognition(self):
        from repro.xkernel.message import Message
        stubs = ABP_SCHEMA
        assert stubs.msg_type(Message(payload=AbpFrame("DATA", 0))) == \
            "ABP_DATA"
        assert stubs.msg_type(Message(payload=AbpFrame("ACK", 1))) == \
            "ABP_ACK"
