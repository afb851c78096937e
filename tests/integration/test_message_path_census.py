"""Census of the simulated message path: Python calls per wire message.

Counts only, no clocks, so the figure repeats exactly from run to run and
from machine to machine.  Every simulated execution pays for each Python
frame a message crosses on its way through the stacks and the network;
a change that adds a frame back to every layer crossing moves this ratio
by whole calls, which is what the ceiling catches.
"""

import sys

from repro.experiments import gmp_proclaim, tcp_delayed_ack
from repro.oracle import evaluate, tcp_pack
from repro.tcp import VENDORS

#: Python ``call`` events per ``net.send`` row over Table 7's buggy run
#: (32.60 with timer, event and gid bookkeeping inline; 37.11 before,
#: 57.62 before each layer's neighbours were bound at wiring), rounded
#: up to the next whole call
CALLS_PER_WIRE_MESSAGE_CEILING = 33

#: wire messages that run sends
WIRE_MESSAGES = 18_074

#: the same ratio over Table 2's 3 s column, every vendor's run followed
#: by the tcp pack's verdict on its trace (82.43 with segment arithmetic
#: read from the flag bits and invariants reading ``entry.attrs``; 152.50
#: when both went through one-line helpers per field), rounded up
TCP_CALLS_PER_WIRE_MESSAGE_CEILING = 83

#: wire messages those four runs send
TCP_WIRE_MESSAGES = 315


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


def test_tcp_calls_per_wire_message_stay_under_the_ceiling():
    calls, traces = _counted(_table2_with_verdicts)
    sends = sum(trace.count("net.send") for trace in traces)
    assert sends == TCP_WIRE_MESSAGES
    assert calls / sends <= TCP_CALLS_PER_WIRE_MESSAGE_CEILING, (
        f"{calls / sends:.2f} Python calls per wire message")
