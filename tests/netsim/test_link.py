"""Unit tests for simulated links."""

import random

import pytest

from repro.netsim.link import Link
from repro.netsim.scheduler import Scheduler


@pytest.fixture
def sched():
    return Scheduler()


def make_link(sched, **kw):
    received = []
    link = Link(sched, lambda payload, src: received.append(payload), 1, **kw)
    return link, received


def test_delivers_after_latency(sched):
    link, received = make_link(sched, latency=0.5)
    link.send("hello")
    sched.run_until(0.4)
    assert received == []
    sched.run_until(0.6)
    assert received == ["hello"]


def test_fifo_ordering_preserved(sched):
    link, received = make_link(sched, latency=0.1)
    for i in range(5):
        link.send(i)
    sched.run()
    assert received == [0, 1, 2, 3, 4]


def test_jitter_never_reorders(sched):
    link, received = make_link(sched, latency=0.01, jitter=0.5,
                               rng=random.Random(42))
    for i in range(50):
        sched.schedule(i * 0.001, link.send, i)
    sched.run()
    assert received == list(range(50))


def test_loss_rate_drops_packets(sched):
    link, received = make_link(sched, loss_rate=0.5, rng=random.Random(7))
    for i in range(200):
        link.send(i)
    sched.run()
    assert 40 < len(received) < 160
    assert link.dropped_count == 200 - len(received)


def test_loss_rate_zero_drops_nothing(sched):
    link, received = make_link(sched, loss_rate=0.0)
    for i in range(50):
        link.send(i)
    sched.run()
    assert len(received) == 50


def test_loss_rate_one_drops_everything(sched):
    link, received = make_link(sched, loss_rate=1.0)
    for i in range(20):
        assert link.send(i) is False
    sched.run()
    assert received == []


def test_down_link_rejects_sends(sched):
    link, received = make_link(sched)
    link.down()
    assert link.send("x") is False
    sched.run()
    assert received == []


def test_down_destroys_in_flight(sched):
    link, received = make_link(sched, latency=1.0)
    link.send("doomed")
    sched.run_until(0.5)
    link.down()
    sched.run()
    assert received == []


def test_up_after_down_carries_again(sched):
    link, received = make_link(sched)
    link.down()
    link.up()
    link.send("alive")
    sched.run()
    assert received == ["alive"]


def test_counters(sched):
    link, received = make_link(sched)
    link.send("a")
    sched.run()          # deliver before unplugging
    link.down()
    link.send("b")
    sched.run()
    assert link.sent_count == 2
    assert link.delivered_count == 1
    assert link.dropped_count == 1


def test_invalid_loss_rate_rejected(sched):
    with pytest.raises(ValueError):
        Link(sched, lambda p, src: None, 1, loss_rate=1.5)


def test_negative_latency_rejected(sched):
    with pytest.raises(ValueError):
        Link(sched, lambda p, src: None, 1, latency=-1.0)


def test_deterministic_with_same_seed(sched):
    outcomes = []
    for _ in range(2):
        s = Scheduler()
        link, received = make_link(s, loss_rate=0.3, rng=random.Random(9))
        for i in range(100):
            link.send(i)
        s.run()
        outcomes.append(tuple(received))
    assert outcomes[0] == outcomes[1]


def test_delivery_names_the_sender(sched):
    received = []
    link = Link(sched, lambda payload, src: received.append((payload, src)), 7)
    link.send("hi")
    sched.run()
    assert received == [("hi", 7)]
