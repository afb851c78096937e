"""Byte-identity guard for the PFI layer's filter verdicts.

The stock experiments install Python filters, so their conformance
digests (``test_conformance.py``) never reach a tclish filter's drop,
delay, hold / release, duplicate or ``msg_set_field``.  This battery
does: generated GMP scripts, installed from the start of the run (so
control messages, not only heartbeats, cross the filter), each pinned by
the sha256 of its trace with the volatile attributes stripped.  A change
to how the layer applies a verdict must leave every digest as it is.
"""

import hashlib

import pytest

from repro.analysis.export import VOLATILE_ATTRS, dump_trace
from repro.core.genscripts import generate_campaign
from repro.core.orchestrator import Campaign
from repro.gmp import GMP_SCHEMA
from repro.oracle.fuzz import pack_for, prefixed_fuzz_body, sweep_battery

#: generated script -> the ``pfi.*`` kinds its run must record
SCRIPTS = {
    "drop_heartbeat_send": {"pfi.drop"},
    "delay_heartbeat_receive": {"pfi.delay"},
    "duplicate_proclaim_receive": {"pfi.duplicate"},
    "reorder_proclaim_send": {"pfi.hold", "pfi.release"},
    "corrupt_proclaim_originator_send": set(),
    "omission_30pct_receive": {"pfi.drop"},
    "crash_after_20_send": {"pfi.drop"},
}

#: grammar script 9 of ``repro sweep``'s battery, at the default depth:
#: a delay, a drop and a duplicate in one filter
GRAMMAR_SCRIPT = 9

#: label -> sha256 of ``dump_trace(trace, exclude_attrs=VOLATILE_ATTRS)``
VERDICT_DIGESTS = {
    "drop_heartbeat_send":
        "dd667914748376aeece02be8867b1c14438cb7af0a91c528b9d1b3db7fb9380a",
    "delay_heartbeat_receive":
        "078f496f25d05f7c1a6930b6c1042ad78cdaa555e60d09488c482320cea84e04",
    "duplicate_proclaim_receive":
        "fb6a2624f45f00e3b795b417dbf093868b8af621a624c38069b9b82164300ad7",
    "reorder_proclaim_send":
        "fd28a43e54e43e3fbfc07e09444bc027770a63418941ba7e5b15acaad885ef57",
    "corrupt_proclaim_originator_send":
        "a4cdb493bdfd8aeb691b0d4a49b63b582e2796bb1a813ed75153c9394436d120",
    "omission_30pct_receive":
        "7db6c2452528e25b09bc35e74b238690ef9432f1544e1cd8f54d4fdbd2480d6c",
    "crash_after_20_send":
        "1e3a1727d4cba143cb2354a54e6f3e432774bea025f51b55af3826272a0e588b",
    "grammar/9":
        "42a87025859000ff335615be449d8b09023c83cc8b732fdb0603fa95b83c503e",
}


def _battery():
    generated = {s.name: s for s in generate_campaign(GMP_SCHEMA)}
    labels, configs = [], []
    for name in SCRIPTS:
        script = generated[name]
        labels.append(name)
        configs.append({"protocol": "gmp", "target": "self_death",
                        "direction": script.direction,
                        "script": script.tclish_source,
                        "init_script": script.tclish_init,
                        "install_at": 0.0})
    labels.append(f"grammar/{GRAMMAR_SCRIPT}")
    configs.append(sweep_battery("gmp", ["self_death"],
                                 GRAMMAR_SCRIPT + 1)[GRAMMAR_SCRIPT])
    return labels, configs


@pytest.fixture(scope="module")
def runs():
    labels, configs = _battery()
    results = Campaign(prefixed_fuzz_body, seed=0).run(
        configs, oracle=pack_for("gmp"))
    return dict(zip(labels, results))


def _digest(trace):
    text = dump_trace(trace, exclude_attrs=VOLATILE_ATTRS)
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_verdict_is_exercised(runs):
    for name, kinds in SCRIPTS.items():
        recorded = {kind for kind in runs[name].trace.count_by_kind()
                    if kind.startswith("pfi.")}
        assert kinds <= recorded, (name, recorded)
    assert {"pfi.delay", "pfi.drop", "pfi.duplicate"} <= set(
        runs[f"grammar/{GRAMMAR_SCRIPT}"].trace.count_by_kind())
    # the corrupting filter rewrites a field: its trace leaves the
    # unfiltered run's
    clean = Campaign(prefixed_fuzz_body, seed=0).run(
        [{"protocol": "gmp", "target": "self_death", "direction": "send",
          "script": "", "init_script": "", "install_at": 0.0}])[0]
    assert (_digest(runs["corrupt_proclaim_originator_send"].trace)
            != _digest(clean.trace))


def test_verdict_traces_are_byte_identical(runs):
    digests = {label: _digest(result.trace) for label, result in runs.items()}
    assert digests == VERDICT_DIGESTS
