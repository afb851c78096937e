"""Tests for automatic test-script generation (paper §6 future work)."""

import pytest

from repro.core.genscripts import (FailureModel, MessageTypeSpec,
                                   ProtocolSpec, campaign_by_model,
                                   generate_campaign, gmp_spec, tcp_spec)
from tests.core.conftest import Harness


@pytest.fixture
def harness():
    return Harness()


SPEC = ProtocolSpec(
    name="toy",
    message_types=(
        MessageTypeSpec("DATA", mutable_fields=(("value", -1),)),
        MessageTypeSpec("ACK"),
    ))


class TestGeneration:
    def test_campaign_nonempty_and_named_uniquely(self):
        scripts = generate_campaign(SPEC)
        names = [s.name for s in scripts]
        assert len(names) == len(set(names))
        assert len(scripts) >= 16

    def test_covers_both_directions(self):
        scripts = generate_campaign(SPEC)
        assert {s.direction for s in scripts} == {"send", "receive"}

    def test_covers_expected_failure_models(self):
        grouped = campaign_by_model(generate_campaign(SPEC))
        for model in (FailureModel.SEND_OMISSION,
                      FailureModel.RECEIVE_OMISSION,
                      FailureModel.TIMING,
                      FailureModel.BYZANTINE,
                      FailureModel.PROCESS_CRASH):
            assert model in grouped, model

    def test_drop_script_per_type(self):
        scripts = generate_campaign(SPEC, directions=("receive",))
        names = {s.name for s in scripts}
        assert "drop_data_receive" in names
        assert "drop_ack_receive" in names

    def test_corruption_only_for_declared_fields(self):
        scripts = generate_campaign(SPEC)
        corrupt = [s for s in scripts if s.name.startswith("corrupt_")]
        assert all("data" in s.name for s in corrupt)

    def test_non_control_types_skip_reorder_and_duplicate(self):
        spec = ProtocolSpec("t", (MessageTypeSpec("BULK", control=False),))
        scripts = generate_campaign(spec, directions=("send",))
        names = {s.name for s in scripts}
        assert "drop_bulk_send" in names
        assert "reorder_bulk_send" not in names
        assert "duplicate_bulk_send" not in names

    def test_builtin_specs(self):
        assert "DATA" in tcp_spec().type_names()
        assert "MEMBERSHIP_CHANGE" in gmp_spec().type_names()


class TestGeneratedScriptsWork:
    """Each generated script must actually perform its fault when
    installed with ``tclish_filter()``."""

    def find(self, name, spec=SPEC):
        for script in generate_campaign(spec):
            if script.name == name:
                return script
        raise KeyError(name)

    def test_drop_script(self, harness):
        script = self.find("drop_ack_receive")
        harness.pfi.set_receive_filter(script.tclish_filter())
        harness.send_up("ACK")
        harness.send_up("DATA")
        assert len(harness.top.received) == 1

    def test_delay_script(self, harness):
        script = self.find("delay_data_send")
        harness.pfi.set_send_filter(script.tclish_filter())
        harness.send_down("DATA")
        assert harness.bottom.received == []
        harness.run()
        assert len(harness.bottom.received) == 1

    def test_duplicate_script(self, harness):
        script = self.find("duplicate_ack_send")
        harness.pfi.set_send_filter(script.tclish_filter())
        harness.send_down("ACK")
        harness.run()
        assert len(harness.bottom.received) == 2

    def test_reorder_script(self, harness):
        script = self.find("reorder_ack_send")
        harness.pfi.set_send_filter(script.tclish_filter())
        harness.send_down("ACK", tag="first")
        harness.send_down("ACK", tag="second")
        harness.run()
        tags = [m.meta["tag"] for m in harness.bottom.received]
        assert tags == ["second", "first"]

    def test_corrupt_script(self, harness):
        from repro.xkernel.message import Message
        script = self.find("corrupt_data_value_send")
        harness.pfi.set_send_filter(script.tclish_filter())
        msg = Message(payload={"value": 7}, meta={"type": "DATA"})
        harness.pfi.push(msg)
        assert harness.bottom.received[0].payload["value"] == -1

    def test_crash_script(self, harness):
        script = self.find("crash_after_20_receive")
        harness.pfi.set_receive_filter(script.tclish_filter())
        for _ in range(25):
            harness.send_up("DATA")
        assert len(harness.top.received) == 20

    def test_omission_script_statistics(self, harness):
        script = self.find("omission_30pct_receive")
        harness.pfi.set_receive_filter(script.tclish_filter())
        for _ in range(300):
            harness.send_up("DATA")
        delivered = len(harness.top.received)
        assert 150 < delivered < 270


class TestCampaignAgainstGmp:
    """Run a slice of the auto-generated GMP campaign end to end."""

    def test_drop_commit_script_blocks_joins(self):
        from repro.experiments.gmp_common import build_gmp_cluster
        script = next(s for s in generate_campaign(gmp_spec())
                      if s.name == "drop_commit_receive")
        cluster = build_gmp_cluster([1, 2])
        cluster.pfis[2].set_receive_filter(script.tclish_filter())
        cluster.start()
        cluster.run_until(30.0)
        # daemon 2 can never commit a joint view
        assert all(v.is_singleton for v in cluster.daemons[2].views_adopted)

    def test_delay_heartbeat_script_causes_churn(self):
        from repro.experiments.gmp_common import build_gmp_cluster
        script = next(s for s in generate_campaign(gmp_spec())
                      if s.name == "delay_heartbeat_send")
        cluster = build_gmp_cluster([1, 2, 3])
        cluster.start()
        cluster.run_until(10.0)
        baseline_views = len(cluster.trace.entries("gmp.view_adopted"))
        cluster.pfis[3].set_send_filter(script.tclish_filter())
        cluster.run_until(40.0)
        churn = len(cluster.trace.entries("gmp.view_adopted"))
        assert churn > baseline_views  # delayed heartbeats look dropped


#: sha256 over ``repr`` of ``(name, direction, failure model, tclish
#: source, tclish init)`` per generated script, as the generator produced
#: them when every script still carried a Python twin
CAMPAIGN_DIGESTS = {
    "tcp": (52, "bb8f85212ff937bc11912126ce03c0e7"
                "f2b1e8453d629be5aca31310e2520b00"),
    "gmp": (70, "92d540cf2f19013d2bb290003d3b93d2"
                "986dadd8b78239ff9c33edb59708af46"),
    "abp": (24, "386d9e699e8b39148aa0da6aa6ab83b1"
                "7a69f5b25a97c8cf5d9cc55a1b04397f"),
}


def test_generated_campaigns_are_pinned():
    import hashlib
    import runpy
    from pathlib import Path
    demo = Path(__file__).resolve().parents[2] / "examples" / "abp_bug_demo.py"
    abp = runpy.run_path(str(demo))["ABP_SPEC"]
    for spec in (tcp_spec(), gmp_spec(), abp):
        rows = [(s.name, s.direction, s.failure_model.value,
                 s.tclish_source, s.tclish_init)
                for s in generate_campaign(spec)]
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert (len(rows), digest) == CAMPAIGN_DIGESTS[spec.name]
