"""A filter script's fault is its run's verdict, not the tool's crash.

A ``TclError`` raised while the PFI layer runs a filter (a field the
message lacks, a runaway loop) ends that run: the layer records a
``pfi.script_error`` entry and raises ``ScriptFault``; ``run_one`` turns
it into ``RunResult.script_error`` and a ``PFI-SCRIPT-ERROR`` violation,
so the sweep, the journal, the scorecard and the shrinker carry on.
"""

import json
import pickle

import pytest

from repro.core import TclishFilter
from repro.core.orchestrator import Campaign
from repro.core.script import ScriptFault
from repro.core.tclish import TclError
from repro.oracle.fuzz import (pack_for, prefixed_fuzz_body, run_fuzz,
                               sweep_battery)
from repro.oracle.shrink import artifact_name, replay_artifact, shrink_finding

from .conftest import probe

#: sweep script 20 of ``repro sweep --protocol gmp``: its
#: ``msg_set_field subject 0`` reaches a REL_ACK, which has no settable
#: field, and used to abort the whole sweep
FAULTING_SCRIPT = 20


def _faulting_config():
    return sweep_battery("gmp", ["self_death"],
                         FAULTING_SCRIPT + 1)[FAULTING_SCRIPT]


class TestTheLayer:
    def test_a_script_error_is_recorded_then_raised(self, harness):
        harness.pfi.set_send_filter(TclishFilter(
            "set n 1\nif {$n} {\n    msg_set_field nosuch 1\n}",
            lint="off"))
        msg = probe()
        with pytest.raises(ScriptFault) as caught:
            harness.pfi.push(msg)
        error = {"command": "msg_set_field", "line": 2,
                 "message": str(caught.value)}
        assert caught.value.error == error
        assert str(caught.value).startswith(
            'error in command "msg_set_field": message type PROBE ')
        entry = harness.env.trace.last("pfi.script_error")
        assert entry.kind == "pfi.script_error"
        assert entry.attrs == {"node": "testnode", "direction": "send",
                               "uid": msg.uid, **error}
        assert harness.bottom.received == []  # the message went nowhere

    def test_the_fault_is_a_tclerror(self, harness):
        # callers reporting script faults as bad input (`repro
        # run-script`) keep catching TclError
        harness.pfi.set_receive_filter(TclishFilter("error boom",
                                                    lint="off"))
        with pytest.raises(TclError, match="boom"):
            harness.pfi.pop(probe())

    def test_a_python_filter_error_is_not_a_script_fault(self, harness):
        def broken(ctx):
            raise KeyError("not a script error")
        harness.pfi.set_send_filter(broken)
        with pytest.raises(KeyError):
            harness.pfi.push(probe())


class TestTheRun:
    def test_the_run_ends_with_a_row(self):
        config = _faulting_config()
        result, = Campaign(prefixed_fuzz_body, seed=0).run(
            [config], oracle=pack_for("gmp"))
        assert result.script_error == {
            "command": "msg_set_field", "line": 1,
            "message": 'error in command "msg_set_field": message type '
                       "REL_ACK has no settable field 'subject' "
                       "(settable: none)"}
        assert result.result is None
        assert result.violations[-1].code == "PFI-SCRIPT-ERROR"
        assert result.violations[-1].kind == "pfi.script_error"
        assert not result.ok()
        assert list(result.trace.rows())[-1][1] == "pfi.script_error"
        # the run stopped where the script failed, well short of the
        # 30 s horizon
        assert result.telemetry.virtual_s < 30.0
        # a row crossing a process or the store keeps it; a clean row
        # carries no script_error key at all
        assert pickle.loads(pickle.dumps(result)).script_error == (
            result.script_error)
        clean, = Campaign(prefixed_fuzz_body, seed=0).run(
            [sweep_battery("gmp", ["self_death"], 1)[0]])
        assert clean.script_error is None
        assert "script_error" not in vars(clean)

    def test_without_an_oracle_the_fault_is_still_a_verdict(self):
        result, = Campaign(prefixed_fuzz_body, seed=0).run(
            [_faulting_config()])
        assert [v.code for v in result.violations] == ["PFI-SCRIPT-ERROR"]

    def test_rows_around_the_faulting_one_are_unchanged(self):
        battery = sweep_battery("gmp", ["self_death"], FAULTING_SCRIPT + 2)
        together = Campaign(prefixed_fuzz_body, seed=0).run(battery)
        alone = Campaign(prefixed_fuzz_body, seed=0).run(
            [battery[FAULTING_SCRIPT + 1]])
        assert together[FAULTING_SCRIPT].script_error is not None
        assert together[-1].script_error is None
        assert len(together[-1].trace) == len(alone[0].trace)

    def test_the_journal_keeps_its_run_end(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        battery = sweep_battery("gmp", ["self_death"], FAULTING_SCRIPT + 1)
        Campaign(prefixed_fuzz_body, seed=0).run(
            battery, oracle=pack_for("gmp"), journal=journal)
        events = [json.loads(line) for line in journal.read_text().splitlines()]
        ends = {e["data"]["index"]: e["data"] for e in events
                if e["kind"] == "campaign.run_end"}
        assert sorted(ends) == list(range(len(battery)))
        faulted = ends[FAULTING_SCRIPT]
        assert faulted["script_error"]["command"] == "msg_set_field"
        assert "PFI-SCRIPT-ERROR" in faulted["codes"]
        assert events[-1]["kind"] == "campaign.end"
        assert events[-1]["data"]["status"] == "ok"


def test_fuzzing_shrinks_a_script_fault_into_an_artefact():
    # `repro fuzz --protocol gmp --seed 2` used to end in the REL_ACK
    # traceback; its script faults are findings now, which shrink into
    # artefacts that replay
    report = run_fuzz("gmp", seed=2, budget=24)
    fault = next(finding for finding in report.findings
                 if finding.codes == ["PFI-SCRIPT-ERROR"])
    artifact, _stats = shrink_finding(fault)
    assert artifact.code == "PFI-SCRIPT-ERROR"
    assert artifact_name(artifact).startswith("gmp_pfi-script-error_")
    assert replay_artifact(artifact).ok
