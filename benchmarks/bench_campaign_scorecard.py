"""Capstone bench: auto-generated campaign scorecard for the GMP.

Combines the two §6 future-work features -- script generation from a
protocol spec and statistical campaign execution -- into the resilience
scorecard a testing organization would actually ship: every generated
fault script runs against a live three-node group, and the safety
property (view agreement) plus a liveness check (recovery after the fault
clears) are evaluated per failure model.  The battery is an ordinary
``Campaign`` sweep whose configs carry each generated script's tclish
source, so every run gets its own derived seed, and the script the
campaign's lint gate checks is the one the trial installs.
"""

from repro.analysis.tables import render_table
from repro.core.genscripts import generate_campaign, gmp_spec
from repro.core.orchestrator import Campaign
from repro.core.script import TclishFilter
from repro.experiments.gmp_common import build_gmp_cluster

from conftest import emit

VICTIM = 3


def gmp_trial(env, config):
    """One generated script against a three-node group; returns what
    went wrong, or ``""`` when the trial passed."""
    cluster = build_gmp_cluster([1, 2, 3], env=env)
    cluster.start()
    env.run_until(10.0)
    if not cluster.all_in_one_group():
        return "group never formed"

    script = TclishFilter(config["script"], init_script=config["init_script"],
                          name=config["name"])
    if config["direction"] == "send":
        cluster.pfis[VICTIM].set_send_filter(script)
    else:
        cluster.pfis[VICTIM].set_receive_filter(script)
    env.run_until(50.0)

    # safety: committed views must agree across daemons
    by_key = {}
    for daemon in cluster.daemons.values():
        for view in daemon.views_adopted:
            key = (view.leader, view.group_id)
            if by_key.setdefault(key, view.members) != view.members:
                return f"view disagreement at {key}"

    # liveness: clear the fault, the full group must re-form
    cluster.pfis[VICTIM].clear_filters()
    env.run_until(120.0)
    if not cluster.all_in_one_group():
        return "did not recover after fault cleared"
    return ""


def run_scorecard():
    scripts = generate_campaign(gmp_spec(), omission_rates=(0.3,),
                                crash_after_messages=30)
    return Campaign(gmp_trial, seed=7).run([
        {"script": s.tclish_source, "init_script": s.tclish_init,
         "direction": s.direction, "name": s.name,
         "model": s.failure_model.value} for s in scripts])


def scorecard_table(results, title):
    """Passed/total per failure model, naming every failing script."""
    models = {}
    for run in results:
        config = run.config
        passed, failing = models.setdefault(config["model"], ([], []))
        (failing if run.result else passed).append(config["name"])
    rows = [[model, f"{len(passed)}/{len(passed) + len(failing)}",
             ", ".join(failing) or "all passed"]
            for model, (passed, failing) in sorted(models.items())]
    total_passed = sum(len(passed) for passed, _ in models.values())
    rows.append(["TOTAL", f"{total_passed}/{len(results)}", ""])
    return render_table(title, ["Failure model", "Passed", "Failures"], rows)


def test_gmp_campaign_scorecard(once_benchmark):
    results = once_benchmark(run_scorecard)
    emit("Auto-generated campaign scorecard: GMP under every generated "
         "fault (safety + recovery)",
         scorecard_table(results, "one victim machine, three-node group"))
    # the fixed GMP must hold its safety property under every generated
    # fault, and recover from the overwhelming majority
    for run in results:
        assert "disagreement" not in run.result, run.config
    failing = [run.config["name"] for run in results if run.result]
    assert len(failing) <= 0.1 * len(results), failing
