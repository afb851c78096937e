"""Census of the simulated message path: Python calls per wire message.

Counts only, no clocks, so the figure repeats exactly from run to run and
from machine to machine.  Every simulated execution pays for each Python
frame a message crosses on its way through the stacks and the network;
a change that adds a frame back to every layer crossing moves this ratio
by whole calls, which is what the ceiling catches.
"""

import sys

from repro.experiments import gmp_proclaim

#: Python ``call`` events per ``net.send`` row over Table 7's buggy run
#: (37.11 with each layer's neighbours bound at wiring, 57.62 before),
#: rounded up to the next whole call
CALLS_PER_WIRE_MESSAGE_CEILING = 38

#: wire messages that run sends
WIRE_MESSAGES = 18_074


def _census():
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        cluster, _start = gmp_proclaim.execute_proclaim_forwarding(
            bugs_on=True)
    finally:
        sys.setprofile(None)
    return calls, cluster.trace.count("net.send")


def test_calls_per_wire_message_stay_under_the_ceiling():
    calls, sends = _census()
    assert sends == WIRE_MESSAGES
    assert calls / sends <= CALLS_PER_WIRE_MESSAGE_CEILING, (
        f"{calls / sends:.2f} Python calls per wire message")
