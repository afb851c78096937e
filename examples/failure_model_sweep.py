#!/usr/bin/env python3
"""Sweep the paper's failure models (§2.2) against a GMP cluster.

For each failure model -- process crash, link crash, send/receive/general
omission, timing, byzantine -- inject it into one member of a three-node
group and report whether the group recovers a consistent view.  This is
the "testing the fault-tolerance capabilities ... under various failure
models" programme, run as a campaign.

Every fault is a tclish filter script.  Crash and omission come from the
generated catalogue (:mod:`repro.core.genscripts`); timing and byzantine
are written out below.

Run it::

    python examples/failure_model_sweep.py
"""

from repro.analysis.tables import render_table
from repro.core import TclishFilter
from repro.core.genscripts import (COVERS, SEVERITY_ORDER, generate_campaign,
                                   gmp_spec)
from repro.experiments.gmp_common import build_gmp_cluster

VICTIM = 3
OTHERS = (1, 2)

#: the generated crash_after_0_* and omission_*pct_* scripts, by name
GENERATED = {script.name: script for script in generate_campaign(
    gmp_spec(), omission_rates=(0.6, 0.5), crash_after_messages=0)}

#: the victim sends slow: 2 s plus normal jitter, never negative
TIMING = "xDelay [expr {max(0.0, 2.0 + [dst_normal 0.0 0.5])}]"

#: every third message the victim sends comes with a forged DEAD_REPORT
BYZANTINE = ("incr n; if {$n % 3 == 0} "
             f"{{ inject DEAD_REPORT sender {VICTIM} subject 1 dst 2 }}")


def generated(name):
    return GENERATED[name].tclish_filter()


def inject(cluster, model):
    """Install the filter script(s) for one failure model on the victim."""
    pfi = cluster.pfis[VICTIM]
    if model == "process crash":
        pfi.set_send_filter(generated("crash_after_0_send"))
        pfi.set_receive_filter(generated("crash_after_0_receive"))
    elif model == "link crash":
        # the victim's outbound link dies; inbound still works
        pfi.set_send_filter(generated("crash_after_0_send"))
    elif model == "send omission":
        pfi.set_send_filter(generated("omission_60pct_send"))
    elif model == "receive omission":
        pfi.set_receive_filter(generated("omission_60pct_receive"))
    elif model == "general omission":
        pfi.set_send_filter(generated("omission_50pct_send"))
        pfi.set_receive_filter(generated("omission_50pct_receive"))
    elif model == "timing":
        pfi.set_send_filter(TclishFilter(TIMING, name="timing"))
    elif model == "byzantine":
        pfi.set_send_filter(TclishFilter(BYZANTINE, init_script="set n 0",
                                         name="byzantine"))
    else:
        raise ValueError(model)


def run_model(model, seed=0):
    cluster = build_gmp_cluster([1, 2, 3], seed=seed)
    cluster.start()
    cluster.run_until(10.0)
    assert cluster.all_in_one_group()

    inject(cluster, model)
    cluster.run_until(60.0)
    survivors_view = cluster.daemons[1].view.members
    victim_excluded = VICTIM not in survivors_view
    survivors_agree = (cluster.daemons[1].view.members
                       == cluster.daemons[2].view.members)

    # heal and check recovery
    cluster.pfis[VICTIM].clear_filters()
    cluster.run_until(140.0)
    recovered = cluster.all_in_one_group()
    return {
        "model": model,
        "victim_excluded_under_fault": victim_excluded,
        "survivors_agree": survivors_agree,
        "recovered_after_heal": recovered,
    }


def main():
    models = ["process crash", "link crash", "send omission",
              "receive omission", "general omission", "timing",
              "byzantine"]
    print("sweeping the paper's failure models against a 3-node GMP group")
    rows = []
    for model in models:
        result = run_model(model)
        rows.append([
            result["model"],
            "excluded" if result["victim_excluded_under_fault"]
            else "tolerated in-group",
            "consistent" if result["survivors_agree"] else "DIVERGED",
            "rejoined" if result["recovered_after_heal"]
            else "did not recover",
        ])
        print(f"  {model}: done")
    print()
    print(render_table(
        "GMP under the failure-model lattice (victim = highest address)",
        ["Failure model", "Victim", "Survivor views", "After heal"], rows))

    print("\nseverity ordering (paper section 2.2):")
    for model in SEVERITY_ORDER:
        covered = COVERS[model]
        names = ", ".join(m.value for m in covered) if covered else "-"
        print(f"  {model.value:<18} covers: {names}")


if __name__ == "__main__":
    main()
