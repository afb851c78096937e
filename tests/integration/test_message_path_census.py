"""Census of the simulated message path: Python calls per wire message.

Counts only, no clocks, so the figure repeats exactly from run to run and
from machine to machine.  Every simulated execution pays for each Python
frame a message crosses on its way through the stacks and the network;
a change that adds a frame back to every layer crossing moves this ratio
by whole calls, which is what the ceiling catches.
"""

import gc
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from repro.core.orchestrator import Campaign
from repro.experiments import gmp_proclaim, tcp_delayed_ack
from repro.oracle import evaluate, tcp_pack
from repro.oracle.fuzz import pack_for, prefixed_fuzz_body
from repro.tcp import VENDORS

#: Python ``call`` events per ``net.send`` row over Table 7's buggy run
#: (23.83 with links delivering into the anchored stack in one call;
#: 24.84 with the anchor handing messages to the network, the reliable
#: layer's ack and the GMP layers' header push / pop inline; 32.60
#: before, 37.11 before timer, event and gid bookkeeping went inline,
#: 57.62 before each layer's neighbours were bound at wiring), rounded
#: up to the next whole call
CALLS_PER_WIRE_MESSAGE_CEILING = 24

#: wire messages that run sends
WIRE_MESSAGES = 18_074

#: the same ratio over Table 2's 3 s column, every vendor's run followed
#: by the tcp pack's verdict on its trace, counted on a second pass
#: (69.43 with the verdict walking the trace's rows and building an
#: entry view only for a subscribed row; 71.59 with a ``Segment`` built
#: in one frame and links delivering into the anchored stack in one
#: call; 73.61 with the PFI layer's actions counted only as trace
#: entries, whatever ran before in the process; 75.58 with per-layer
#: counter handles, 82.43 before the PFI verdict was applied in
#: ``_process`` and the anchor called the network, 152.50 when segment
#: arithmetic and invariants went through one-line helpers per field),
#: rounded up
TCP_CALLS_PER_WIRE_MESSAGE_CEILING = 70

#: wire messages those four runs send
TCP_WIRE_MESSAGES = 315

#: the same ratio over one ``gmp_sweep`` pass (the e2e benchmark's GMP
#: battery at seed 0, oracle included): 34.02 with RNG streams built
#: only when drawn from, one clone plan per capture and the verdict
#: walking the trace's rows; 36.12 with links delivering into the
#: anchored stack in one call and every world torn down as its run
#: ends; 36.68 with the PFI layer's actions counted only as trace
#: entries, 37.46 with per-layer counter handles, 47.63 before tclish
#: filter verdicts, heartbeat re-arms and the wire hop were shed of
#: their glue frames, rounded up
SWEEP_CALLS_PER_WIRE_MESSAGE_CEILING = 35

#: wire messages that pass sends
SWEEP_WIRE_MESSAGES = 13_797

REPO_ROOT = Path(__file__).resolve().parents[2]

INPUTS = REPO_ROOT / "benchmarks" / "e2e" / "inputs.py"


def _counted(fn):
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return calls, result


def _table2_with_verdicts():
    traces = []
    for profile in VENDORS.values():
        trace = tcp_delayed_ack.execute(profile, 3.0).trace
        evaluate(trace, tcp_pack())
        traces.append(trace)
    return traces


def test_calls_per_wire_message_stay_under_the_ceiling():
    calls, (cluster, _start) = _counted(
        lambda: gmp_proclaim.execute_proclaim_forwarding(bugs_on=True))
    sends = cluster.trace.count("net.send")
    assert sends == WIRE_MESSAGES
    assert calls / sends <= CALLS_PER_WIRE_MESSAGE_CEILING, (
        f"{calls / sends:.2f} Python calls per wire message")


def _table2_reading():
    """Calls and wire messages of a counted Table 2 pass.

    An uncounted pass goes first: it makes the lazy imports and fills
    the caches a pass reads.  The collector then frees what earlier code
    left behind and stays off for the count, so no finalizer and no gc
    callback another library registered (Hypothesis registers one) runs
    inside it.  What ran before in the process cannot move the reading.
    """
    _table2_with_verdicts()
    gc.collect()
    gc.disable()
    try:
        calls, traces = _counted(_table2_with_verdicts)
    finally:
        gc.enable()
    return calls, sum(trace.count("net.send") for trace in traces)


def test_tcp_calls_per_wire_message_stay_under_the_ceiling():
    calls, sends = _table2_reading()
    assert sends == TCP_WIRE_MESSAGES
    assert calls / sends <= TCP_CALLS_PER_WIRE_MESSAGE_CEILING, (
        f"{calls / sends:.2f} Python calls per wire message")


def test_tcp_census_reads_the_same_whatever_ran_before():
    # here, in whatever order the suite ran; after Table 7's run; and in
    # a process that ran nothing else
    here = _table2_reading()
    gmp_proclaim.execute_proclaim_forwarding(bugs_on=True)
    assert _table2_reading() == here
    alone = subprocess.run(
        [sys.executable, "-c",
         "from tests.integration.test_message_path_census import "
         "_table2_reading; print(*_table2_reading())"],
        cwd=str(REPO_ROOT), capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)])})
    assert alone.returncode == 0, alone.stderr
    assert tuple(int(word) for word in alone.stdout.split()) == here


def _gmp_sweep_battery(monkeypatch):
    # loaded by path with bytecode writing off, registered only for the
    # test's duration: nothing is written under ``benchmarks/``
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "inputs", inputs)
    spec.loader.exec_module(inputs)
    # drawing validates every candidate by running it, which also warms
    # the compile and lint caches the counted pass reads
    return inputs.draw_battery("gmp", 10, 0).configs


def test_gmp_sweep_calls_per_wire_message_stay_under_the_ceiling(monkeypatch):
    configs = _gmp_sweep_battery(monkeypatch)
    campaign = Campaign(prefixed_fuzz_body, seed=0)
    calls, results = _counted(
        lambda: campaign.run(configs, oracle=pack_for("gmp")))
    sends = sum(result.trace.count("net.send") for result in results)
    assert sends == SWEEP_WIRE_MESSAGES
    assert calls / sends <= SWEEP_CALLS_PER_WIRE_MESSAGE_CEILING, (
        f"{calls / sends:.2f} Python calls per wire message")
