"""Instrumentation threaded through the layers: PFI stats read back from
the trace, protocol retransmit lineage edges."""

from repro.core.pfi import PFILayer
from repro.obs.lineage import Lineage
from repro.obs.report import trace_metrics

from tests.core.conftest import SIMPLE_SCHEMA, probe


class TestPFIMetrics:
    def test_stats_property_mirrors_registry(self, harness):
        # the registry `repro report` rebuilds from the trace counts each
        # action under the name the live layer's stats give it
        harness.pfi.set_send_filter(lambda ctx: ctx.drop())
        harness.send_down("DATA")
        assert harness.pfi.stats["dropped"] == 1
        assert harness.pfi.stats["send_seen"] == 1
        snap = trace_metrics(harness.env.trace).snapshot()
        assert snap["pfi_dropped{node=testnode}"] == 1

    def test_shared_registry_aggregates_layers(self, harness):
        # layers sharing one trace keep their own stats, and the registry
        # `repro report` builds from that trace holds every node's series
        trace = harness.env.trace
        pfi_a = PFILayer("a", harness.env.scheduler, SIMPLE_SCHEMA,
                         trace=trace, node="m1")
        pfi_b = PFILayer("b", harness.env.scheduler, SIMPLE_SCHEMA,
                         trace=trace, node="m2")
        pfi_a.set_send_filter(lambda ctx: ctx.drop())
        for _ in range(2):
            pfi_a.push(probe())
        pfi_b.set_send_filter(lambda ctx: ctx.hold())
        pfi_b.push(probe())
        assert (pfi_a.stats["dropped"], pfi_a.stats["held"]) == (2, 0)
        assert (pfi_b.stats["dropped"], pfi_b.stats["held"]) == (0, 1)
        snap = trace_metrics(trace).snapshot()
        assert snap["pfi_dropped{node=m1}"] == 2
        assert snap["pfi_held{node=m2}"] == 1

    def test_release_entries_carry_queue_position(self, harness):
        harness.pfi.set_send_filter(lambda ctx: ctx.hold("q"))
        harness.send_down("DATA")
        harness.send_down("DATA")
        harness.pfi.set_send_filter(lambda ctx: ctx.release("q"))
        harness.send_down("DATA")
        releases = harness.env.trace.entries("pfi.release")
        assert [e["position"] for e in releases] == [0, 1]


class TestProtocolLineage:
    def test_tcp_retransmission_records_lineage_edge(self):
        from repro.experiments.tcp_common import (build_tcp_testbed,
                                                  open_connection,
                                                  stream_from_vendor)
        from repro.tcp.vendors import VENDORS
        testbed = build_tcp_testbed(VENDORS["SunOS 4.1.3"])
        client, _server = open_connection(testbed)
        # drop everything reaching the x-kernel side: every data segment
        # the vendor sends will be retransmitted
        testbed.pfi.set_receive_filter(lambda ctx: ctx.drop())
        stream_from_vendor(testbed, client, segments=1, interval=0.5)
        testbed.env.run_until(30.0)
        edges = testbed.trace.entries("tcp.lineage")
        assert edges, "expected retransmissions to record lineage edges"
        lineage = Lineage.from_trace(testbed.trace)
        first = edges[0]
        assert first["relation"] == "retransmit"
        assert lineage.parent_of(first["uid"]) == (first["parent"],
                                                   "retransmit")
        # every retransmission of the same range chains to one root
        roots = {lineage.root_of(e["uid"]) for e in edges
                 if e["conn"] == first["conn"] and e["seq"] == first["seq"]}
        assert len(roots) == 1

    def test_reliable_channel_retransmit_edge(self):
        from repro.gmp.reliable import ReliableChannel
        from repro.netsim.scheduler import Scheduler
        from repro.netsim.trace import TraceRecorder
        from repro.xkernel.message import Message
        from repro.xkernel.protocol import Protocol
        from repro.xkernel.stack import ProtocolStack

        scheduler = Scheduler()
        trace = TraceRecorder(clock=lambda: scheduler.now)

        class Sink(Protocol):
            def __init__(self):
                super().__init__("sink")

            def push(self, msg):
                pass  # never ACKs -> the channel keeps retrying

        channel = ReliableChannel(1, scheduler, trace=trace)
        ProtocolStack().build(channel, Sink())
        msg = Message(payload=b"x")
        msg.meta["dst"] = 2
        channel.push(msg)
        scheduler.run_until(10.0)
        retries = trace.entries("rel.retransmit")
        assert retries
        lineage = Lineage.from_trace(trace)
        for entry in retries:
            assert lineage.parent_of(entry["uid"]) == (entry["parent"],
                                                       "retransmit")
