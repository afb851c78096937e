"""An acked reliable send is freed by reference counting, not by the GC.

The retransmission timer of a pending message is armed with the
``(dst, seq)`` key.  Armed with the pending entry itself it closed a
cycle (``_Pending.timer -> Timer._args -> (pending,)``) that kept every
acked message, its payload, its header and its timer alive until the
next full collection.
"""

import collections
import gc

import pytest

from repro.experiments.gmp_common import build_gmp_cluster
from repro.gmp import messages as m

SENDS = 50
WATCHED = ("_Pending", "Message", "GmpMessage", "RelHeader")


@pytest.fixture
def saveall():
    """GC off and in census mode; everything restored afterwards."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def test_acked_sends_leave_no_cyclic_garbage(saveall):
    cluster = build_gmp_cluster([1, 2])
    cluster.start()
    cluster.run_until(10.0)
    assert cluster.all_in_one_group()
    channels = {address: daemon.below
                for address, daemon in cluster.daemons.items()}
    sent_before = sum(count for daemon in cluster.daemons.values()
                      for kind, count in daemon.sent_counts.items()
                      if kind != m.HEARTBEAT)
    assert sent_before > 0      # group formation itself was acked sends

    # a NACK for no pending change is delivered, acked and ignored
    for i in range(SENDS):
        cluster.scheduler.schedule(
            0.01 * i, cluster.daemons[2]._send, m.NACK, 1)
    cluster.run_until(12.0)

    assert cluster.daemons[2].sent_counts[m.NACK] == SENDS
    for channel in channels.values():
        assert channel._pending == {}       # every send was acked ...
        assert channel.abandoned_count == 0  # ... none given up on

    gc.collect()
    found = collections.Counter(type(obj).__name__ for obj in gc.garbage)
    assert {name: found[name] for name in WATCHED} == dict.fromkeys(WATCHED, 0)
