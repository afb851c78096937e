"""Causal message lineage reconstructed from PFI traces."""

from repro.analysis.export import dump_trace, load_trace
from repro.netsim.trace import TraceRecorder
from repro.obs.lineage import Lineage


def delay_dup_filter(ctx):
    """First message: delay + duplicate + inject a probe."""
    if not ctx.state.get("fired"):
        ctx.state["fired"] = True
        ctx.delay(0.5)
        ctx.duplicate(1)
        ctx.inject("PROBE", direction="send", value=1)


class TestEdgesFromHarness:
    def test_duplicate_edge_points_at_original(self, harness):
        harness.pfi.set_send_filter(delay_dup_filter)
        msg = harness.send_down("DATA")
        harness.run(2.0)
        lineage = Lineage.from_trace(harness.env.trace)
        dup = harness.env.trace.first("pfi.duplicate")
        assert lineage.parent_of(dup["uid"]) == (msg.uid, "duplicate")

    def test_inject_edge_names_triggering_message(self, harness):
        harness.pfi.set_send_filter(delay_dup_filter)
        msg = harness.send_down("DATA")
        harness.run(2.0)
        lineage = Lineage.from_trace(harness.env.trace)
        inj = harness.env.trace.first("pfi.inject")
        assert lineage.parent_of(inj["uid"]) == (msg.uid, "inject")

    def test_root_of_walks_to_origin(self, harness):
        harness.pfi.set_send_filter(delay_dup_filter)
        msg = harness.send_down("DATA")
        harness.run(2.0)
        lineage = Lineage.from_trace(harness.env.trace)
        for entry in harness.env.trace.iter_subscribed(prefixes=["pfi."]):
            assert lineage.root_of(entry["uid"]) == msg.uid
        assert lineage.roots() == [msg.uid]

    def test_tree_collects_children_and_events(self, harness):
        harness.pfi.set_send_filter(delay_dup_filter)
        msg = harness.send_down("DATA")
        harness.run(2.0)
        tree = Lineage.from_trace(harness.env.trace).tree(msg.uid)
        assert tree.relation == "root"
        assert {child.relation for child in tree.children} == {
            "duplicate", "inject"}
        assert any(e.kind == "pfi.delay" for e in tree.events)
        assert len(list(tree.walk())) == 3


class TestHoldRelease:
    def test_held_then_released_uid_keeps_its_events(self, harness):
        harness.pfi.set_send_filter(lambda ctx: ctx.hold("q"))
        held = harness.send_down("DATA")
        harness.pfi.set_send_filter(lambda ctx: ctx.release("q"))
        harness.send_down("DATA")
        harness.run(1.0)
        lineage = Lineage.from_trace(harness.env.trace)
        kinds = [e.kind for e in lineage.events_of(held.uid)]
        assert kinds == ["pfi.hold", "pfi.release"]


class TestArchivedRuns:
    def test_lineage_survives_export_roundtrip(self, harness):
        """The acceptance path: report from a JSON-lines archive."""
        harness.pfi.set_send_filter(delay_dup_filter)
        msg = harness.send_down("DATA")
        harness.run(2.0)
        loaded = load_trace(dump_trace(harness.env.trace))
        lineage = Lineage.from_trace(loaded)
        assert lineage.roots() == [msg.uid]
        assert lineage.derived_count() == 2

    def test_generic_parent_edge_uses_relation_attr(self):
        trace = TraceRecorder(clock=lambda: 0.0)
        trace.record("rel.retransmit", t=1.0, uid=11, parent=10,
                     relation="retransmit")
        lineage = Lineage.from_trace(trace)
        assert lineage.parent_of(11) == (10, "retransmit")

    def test_cycle_does_not_hang_root_of(self):
        trace = TraceRecorder(clock=lambda: 0.0)
        trace.record("x.edge", t=0.0, uid=1, parent=2)
        trace.record("x.edge", t=0.0, uid=2, parent=1)
        lineage = Lineage.from_trace(trace)
        assert lineage.root_of(1) in (1, 2)


class TestRender:
    def test_render_shows_chain_with_relations(self, harness):
        harness.pfi.set_send_filter(delay_dup_filter)
        msg = harness.send_down("DATA")
        harness.run(2.0)
        text = Lineage.from_trace(harness.env.trace).render(msg.uid)
        assert f"uid {msg.uid}" in text
        assert "[duplicate]" in text
        assert "[inject]" in text
        assert "pfi.delay" in text

    def test_render_empty_lineage(self):
        assert "no derived messages" in Lineage.from_trace([]).render()
