#!/usr/bin/env python3
"""A scripted multi-phase nemesis run, end to end.

This example integrates the orchestration pieces around the PFI core:

1. a **fault timeline**: the network partitions and heals on the
   scheduler, and node 5's receive filter script holds its own window
   (it drops COMMITs while ``[now]`` is in [70, 100)), the way the
   paper's scripts keep the experiment's clock;
2. the **PFI layer** executing the faults;
3. a **message-sequence ladder** of the interesting window, rendered the
   way the paper draws its exchanges;
4. a **JSON-lines trace export** for offline analysis.

Run it::

    python examples/scheduled_nemesis.py
"""

import io

from repro.analysis.export import dump_trace
from repro.analysis.timeline import gmp_sequence
from repro.core import TclishFilter
from repro.experiments.gmp_common import build_gmp_cluster

#: node 5 drops every COMMIT it receives between t=70 s and t=100 s
COMMIT_WINDOW = """\
if {[now] >= 70.0 && [now] < 100.0 && [msg_type cur_msg] eq "COMMIT"} {
    xDrop cur_msg
}"""


class ViewSampler:
    """Record every member's view every 10 s, until t=130 s."""

    def __init__(self, cluster):
        self.cluster = cluster

    def __call__(self):
        scheduler = self.cluster.scheduler
        self.cluster.trace.record("nemesis.views", t=scheduler.now,
                                  views=str(self.cluster.views()))
        # the next sample is scheduled as this one fires, so it follows
        # whatever the run scheduled for the same instant before now
        if scheduler.now + 10.0 <= 130.0:
            scheduler.schedule_at(scheduler.now + 10.0, self)


def main():
    cluster = build_gmp_cluster([1, 2, 3, 4, 5])
    network = cluster.env.network
    cluster.pfis[5].set_receive_filter(
        TclishFilter(COMMIT_WINDOW, name="commit_window"))

    print("nemesis timeline: partition {1,2} | {3,4,5} at t=20s, heal at "
          "t=50s;\nnode 5's receive filter:")
    for line in COMMIT_WINDOW.splitlines():
        print(f"  {line}")

    cluster.start()
    scheduler = cluster.scheduler
    scheduler.schedule_at(20.0, network.partition, [1, 2], [3, 4, 5])
    scheduler.schedule_at(50.0, network.heal)
    scheduler.schedule_at(15.0, ViewSampler(cluster))
    cluster.run_until(140.0)

    print("\nviews through the run:")
    for entry in cluster.trace.entries("nemesis.views"):
        print(f"  t={entry.time:6.1f}  {entry['views']}")

    print("\nfinal state:")
    for address, daemon in sorted(cluster.daemons.items()):
        print(f"  gmd{address}: {daemon.status} "
              f"view={list(daemon.view.members)}")
    assert cluster.all_in_one_group(), "the group should have recovered"

    print("\nthe partition moment, as a message ladder "
          "(membership traffic only):")
    ladder = gmp_sequence(cluster.trace, [1, 2, 3],
                          kinds={"MEMBERSHIP_CHANGE", "ACK", "COMMIT"},
                          start=20.0, end=30.0, lane_width=24)
    for line in ladder.render(max_events=14).splitlines():
        print(f"  {line}")

    buffer = io.StringIO()
    dump_trace(cluster.trace, buffer)
    lines = buffer.getvalue().count("\n")
    print(f"\nexported the full trace as {lines} JSON lines "
          f"(analysis.export.dump_trace)")


if __name__ == "__main__":
    main()
