"""Unit tests for the supporting core modules: distributions, sync,
message log, driver, and orchestrator."""

import random

import pytest

from repro.core import (Campaign, DistributionSet, Driver, MessageLog,
                        ScriptSync, derive_seed, make_env)
from repro.core.stubs import MessageType, PacketStubs
from repro.netsim.scheduler import Scheduler
from repro.netsim.trace import TraceRecorder
from repro.xkernel.message import Message
from repro.xkernel.protocol import Protocol
from repro.xkernel.stack import ProtocolStack


class TestDistributions:
    def test_deterministic_with_seed(self):
        a = DistributionSet(7)
        b = DistributionSet(7)
        assert [a.dst_uniform(0, 1) for _ in range(5)] == \
            [b.dst_uniform(0, 1) for _ in range(5)]

    def test_different_seeds_differ(self):
        a = DistributionSet(1).dst_uniform(0, 1)
        b = DistributionSet(2).dst_uniform(0, 1)
        assert a != b

    def test_normal_centred_on_mean(self):
        dist = DistributionSet(3)
        draws = [dist.dst_normal(10.0, 4.0) for _ in range(2000)]
        mean = sum(draws) / len(draws)
        assert 9.5 < mean < 10.5

    def test_normal_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            DistributionSet().dst_normal(0, -1)

    def test_uniform_within_bounds(self):
        dist = DistributionSet(4)
        assert all(2 <= dist.dst_uniform(2, 5) <= 5 for _ in range(100))

    def test_exponential_positive(self):
        dist = DistributionSet(5)
        assert all(dist.dst_exponential(2.0) >= 0 for _ in range(100))

    def test_exponential_bad_rate(self):
        with pytest.raises(ValueError):
            DistributionSet().dst_exponential(0)

    def test_bernoulli_extremes(self):
        dist = DistributionSet(6)
        assert all(dist.dst_bernoulli(1.0) for _ in range(10))
        assert not any(dist.dst_bernoulli(0.0) for _ in range(10))

    def test_bernoulli_bad_probability(self):
        with pytest.raises(ValueError):
            DistributionSet().dst_bernoulli(1.5)

    def test_geometric_at_least_one(self):
        dist = DistributionSet(8)
        assert all(dist.dst_geometric(0.5) >= 1 for _ in range(100))

    def test_choice(self):
        dist = DistributionSet(9)
        assert dist.choice([1, 2, 3]) in (1, 2, 3)
        with pytest.raises(ValueError):
            dist.choice([])

    def test_derive_seed_stable_and_label_sensitive(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a") != derive_seed(1, "b")

    @pytest.mark.parametrize("args, seed", [
        ((0,), 0),
        ((0, ""), 0),
        ((1, "a", 2), 3670587678),
        ((1995, "compsun1", "pfi"), 1328392636),
        ((-7, "é€😀"), 3699073720),
        ((2**40 + 3, 10**12), 2918957018),
        ((0, "[('depth', 3), ('protocol', 'tcp'), "
             "('target', 'SunOS 4.1.3')]"), 123911087),
    ])
    def test_derive_seed_is_pinned(self, args, seed):
        # every run seed, link stream and filter stream derives from it
        assert derive_seed(*args) == seed

    def test_derive_seed_is_the_per_character_fold(self):
        def fold(base_seed, *labels):
            value = base_seed & 0xFFFFFFFF
            for label in labels:
                for ch in str(label):
                    value = (value * 1000003 + ord(ch)) & 0xFFFFFFFF
            return value

        rng = random.Random(55)
        alphabets = ["abc '{}()0,", "aé€😀\x00\n\x7f\x80\uffff"]
        for _ in range(3000):
            base = rng.choice([0, -5, rng.getrandbits(40)])
            labels = [rng.randint(-10**9, 10**12) if rng.random() < 0.3
                      else "".join(rng.choices(rng.choice(alphabets),
                                               k=rng.randint(0, 300)))
                      for _ in range(rng.randint(0, 3))]
            assert derive_seed(base, *labels) == fold(base, *labels), labels


class TestScriptSync:
    def test_flags(self):
        sync = ScriptSync()
        assert sync.get_flag("x") is None
        sync.set_flag("x", 5)
        assert sync.get_flag("x") == 5

    def test_on_flag_fires_on_set(self):
        sync = ScriptSync()
        fired = []
        sync.on_flag("go", lambda: fired.append(1))
        assert fired == []
        sync.set_flag("go")
        assert fired == [1]

    def test_on_flag_fires_immediately_if_already_set(self):
        sync = ScriptSync()
        sync.set_flag("go")
        fired = []
        sync.on_flag("go", lambda: fired.append(1))
        assert fired == [1]

    def test_on_flag_with_specific_value(self):
        sync = ScriptSync()
        fired = []
        sync.on_flag("phase", lambda: fired.append(1), value=2)
        sync.set_flag("phase", 1)
        assert fired == []
        sync.set_flag("phase", 2)
        assert fired == [1]

    def test_mailboxes_fifo(self):
        sync = ScriptSync()
        sync.put("box", "a")
        sync.put("box", "b")
        assert sync.mailbox_size("box") == 2
        assert sync.take("box") == "a"
        assert sync.take("box") == "b"
        assert sync.take("box") is None

    def test_barrier_trips_at_parties(self):
        sync = ScriptSync()
        tripped = []
        sync.barrier("all", 3, lambda: tripped.append(1))
        assert not sync.arrive("all", "n1")
        assert not sync.arrive("all", "n2")
        assert sync.arrive("all", "n3")
        assert tripped == [1]
        assert sync.barrier_tripped("all")

    def test_barrier_distinct_parties_only(self):
        sync = ScriptSync()
        sync.barrier("all", 2)
        sync.arrive("all", "n1")
        assert not sync.arrive("all", "n1")

    def test_unknown_barrier_raises(self):
        with pytest.raises(KeyError):
            ScriptSync().arrive("nope", "x")


class Body:
    """A logged message's one field."""

    __slots__ = ("seq",)

    def __init__(self, seq):
        self.seq = seq


class KindBody(Body):
    """A GMP-style body: its ``kind`` collides with the trace's."""

    __slots__ = ("kind",)

    def __init__(self, seq, kind):
        super().__init__(seq)
        self.kind = kind


#: a message's type is its meta['type']; fields are read off its body
LOG_SCHEMA = PacketStubs("log", lambda m: m.meta.get("type"),
                         (MessageType("DATA", (Body, KindBody)),))


class TestMessageLog:
    def make_log(self):
        sched = Scheduler()
        trace = TraceRecorder(clock=lambda: sched.now)
        return MessageLog(LOG_SCHEMA, trace, node="host"), trace

    def test_log_formats_line(self):
        log, _ = self.make_log()
        msg = Message(payload=Body(seq=42), meta={"type": "DATA"})
        log.log(msg, t=1.5, direction="receive", note="dropped")
        line, = log.lines
        assert "DATA" in line
        assert "seq=42" in line
        assert "dropped" in line

    def test_log_records_trace_entry(self):
        log, trace = self.make_log()
        msg = Message(payload=Body(seq=1), meta={"type": "ACK"})
        log.log(msg, t=2.0, direction="send")
        entries = trace.entries("pfi.log")
        assert len(entries) == 1
        assert entries[0]["msg_type"] == "ACK"
        assert entries[0]["seq"] == 1

    def test_dump_joins_lines(self):
        log, _ = self.make_log()
        log.log(Message(meta={"type": "A"}), t=0.0, direction="send")
        log.log(Message(meta={"type": "B"}), t=1.0, direction="send")
        assert len(log.dump().splitlines()) == 2
        assert len(log) == 2

    def test_reserved_field_names_get_payload_prefix(self):
        # a GMP-style payload field called "kind" collides with the trace
        # entry's own kind; it must land as payload_kind, untouched
        log, trace = self.make_log()
        msg = Message(payload=KindBody(seq=3, kind="HEARTBEAT"),
                      meta={"type": "GMP"})
        log.log(msg, t=1.0, direction="send")
        entry = trace.entries("pfi.log")[0]
        assert entry.kind == "pfi.log"
        assert entry["payload_kind"] == "HEARTBEAT"
        assert entry["seq"] == 3
        assert "seq=3" in log.lines[-1]

    def test_metrics_counter_counts_log_calls(self):
        # the count `repro report` gives is read off the trace
        from repro.obs.report import trace_metrics
        log, trace = self.make_log()
        log.log(Message(meta={"type": "A"}), t=0.0, direction="send")
        log.log(Message(meta={"type": "B"}), t=1.0, direction="send")
        registry = trace_metrics(trace)
        assert registry.counter("pfi_logged", node="host").value == 2


class BottomSink(Protocol):
    def __init__(self):
        super().__init__("sink")
        self.got = []

    def push(self, msg):
        self.got.append(msg)


class TestDriver:
    def make(self):
        env = make_env()
        driver = Driver("drv", env.scheduler, trace=env.trace)
        sink = BottomSink()
        ProtocolStack().build(driver, sink)
        return env, driver, sink

    def test_send_immediately(self):
        _, driver, sink = self.make()
        driver.send(b"hello")
        assert len(sink.got) == 1

    def test_send_burst_spacing(self):
        env, driver, sink = self.make()
        driver.send_burst([b"a", b"b", b"c"], interval=1.0)
        env.run_until(0.5)
        assert len(sink.got) == 1
        env.run_until(2.5)
        assert len(sink.got) == 3

    def test_receives_recorded(self):
        env, driver, _ = self.make()
        driver.pop(Message(b"up"))
        assert driver.received_payloads == [b"up"]

    def test_pause_and_resume_consuming(self):
        env, driver, _ = self.make()
        driver.pause_consuming()
        driver.pop(Message(b"one"))
        driver.pop(Message(b"two"))
        assert driver.received == []
        assert len(driver.backlog) == 2
        driver.resume_consuming()
        assert driver.received_payloads == [b"one", b"two"]
        assert driver.backlog == []

    def test_on_deliver_callback(self):
        env, driver, _ = self.make()
        seen = []
        driver.on_deliver = seen.append
        driver.pop(Message(b"x"))
        assert len(seen) == 1


class TestOrchestrator:
    def test_make_env_wires_clock(self):
        env = make_env()
        env.scheduler.schedule(2.0, lambda: env.trace.record("tick"))
        env.run_until(3.0)
        assert env.trace.times("tick") == [2.0]

    def test_run_until_quiet(self):
        env = make_env()
        env.scheduler.schedule(1.0, lambda: None)
        env.scheduler.schedule(4.0, lambda: None)
        assert env.run_until_quiet() == 4.0

    def test_env_dist_derivation_is_stable(self):
        env = make_env(seed=5)
        a = env.dist("x").dst_uniform(0, 1)
        b = make_env(seed=5).dist("x").dst_uniform(0, 1)
        assert a == b

    def test_campaign_runs_each_config(self):
        seen = []

        def body(env, config):
            seen.append(config["name"])
            return config["name"].upper()

        campaign = Campaign(body)
        results = campaign.run([{"name": "a"}, {"name": "b"}])
        assert seen == ["a", "b"]
        assert [r.result for r in results] == ["A", "B"]

    def test_campaign_seeds_independent_of_order(self):
        def body(env, config):
            return env.dist("d").dst_uniform(0, 1)

        one = Campaign(body).run([{"n": 1}, {"n": 2}])
        two = Campaign(body).run([{"n": 2}, {"n": 1}])
        by_config_one = {tuple(r.config.items()): r.result for r in one}
        by_config_two = {tuple(r.config.items()): r.result for r in two}
        assert by_config_one == by_config_two


class TestDriverSendAt:
    def test_send_at_fires_once_with_meta(self):
        env = make_env()
        driver = Driver("drv", env.scheduler)
        sink = BottomSink()
        ProtocolStack().build(driver, sink)
        driver.send_at(5.0, b"timed", tag="late")
        env.run_until(4.9)
        assert sink.got == []
        env.run_until(6.0)
        assert len(sink.got) == 1
        assert sink.got[0].meta["tag"] == "late"
