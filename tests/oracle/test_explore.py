"""Tests for the bounded delivery-order explorer (repro.oracle.explore)."""

import sys

import pytest

from repro.netsim.link import Link
from repro.netsim.scheduler import Scheduler
from repro.netsim.timer import Timer
from repro.oracle.explore import (classify_event, describe_event, explore,
                                  _plans)


# ----------------------------------------------------------------------
# event classification
# ----------------------------------------------------------------------

def _pending(scheduler):
    return scheduler.pending_events()


def test_classify_link_delivery():
    sched = Scheduler()
    link = Link(sched, lambda payload, src: None, 1, name="a->b")
    link.send(b"hello")
    (event,) = _pending(sched)
    assert classify_event(event) == "delivery"
    assert describe_event(event).startswith("deliver[a->b] bytes")


def test_classify_timer():
    sched = Scheduler()
    timer = Timer(sched, sched.run, name="retransmit/5")
    timer.start(2.0)
    (event,) = _pending(sched)
    assert classify_event(event) == "timer"
    assert describe_event(event) == "timer[retransmit/5] @2.000"


def test_classify_other():
    sched = Scheduler()

    def plain():
        pass

    sched.schedule(1.0, plain)
    (event,) = _pending(sched)
    assert classify_event(event) == "other"
    assert "plain" in describe_event(event)


# ----------------------------------------------------------------------
# plan enumeration
# ----------------------------------------------------------------------

STEPS = [("delivery", "d0"), ("other", "x"), ("timer", "t0")]


def test_plans_baseline_first_then_singles():
    plans = _plans(STEPS, max_perturbations=1, max_schedules=64)
    assert plans[0] == {}
    # two perturbable steps x two actions each; "other" untouched
    assert plans[1:] == [{0: "drop"}, {0: "defer"},
                         {2: "drop"}, {2: "defer"}]


def test_plans_pairs_when_allowed():
    plans = _plans(STEPS, max_perturbations=2, max_schedules=64)
    assert {0: "drop", 2: "drop"} in plans
    assert all(len(plan) <= 2 for plan in plans)
    # never two actions on the same step
    assert all(len(set(plan)) == len(plan) for plan in plans)


def test_plans_respect_schedule_budget():
    plans = _plans(STEPS * 10, max_perturbations=2, max_schedules=7)
    assert len(plans) == 7


# ----------------------------------------------------------------------
# end-to-end exploration
# ----------------------------------------------------------------------

def test_explore_rediscovers_gmp_self_death():
    report = explore("gmp", "self_death", max_schedules=32)
    assert report.baseline_codes == []  # undisturbed order is clean
    found = {code for finding in report.findings for code in finding.codes}
    assert "GMP-SELF-DEATH" in found
    # the culprit schedule suppressed something, it did not inject
    culprit = next(f for f in report.findings
                   if "GMP-SELF-DEATH" in f.codes)
    assert all(p.action in ("drop", "defer")
               for p in culprit.perturbations)


def test_explore_fixed_build_stays_clean():
    report = explore("gmp", "fixed", max_schedules=16)
    assert report.findings == []
    assert report.baseline_codes == []
    assert report.schedules == 16


def test_explore_is_deterministic():
    def run():
        report = explore("gmp", "self_death", max_schedules=12)
        return [(o.perturbations, o.codes, o.outcome_hash)
                for o in report.outcomes]
    assert run() == run()


def test_explore_collapses_equivalent_schedules():
    report = explore("gmp", "self_death", max_schedules=24)
    assert 1 <= report.distinct_outcomes <= report.schedules
    novel = [o for o in report.outcomes if o.novel]
    assert len(novel) == report.distinct_outcomes


def _prefix_calls(fn):
    """Run ``fn``; count the warm prefixes simulated meanwhile."""
    from repro.oracle.fuzz import _fuzz_prefix
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is _fuzz_prefix.__code__:
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return calls, result


@pytest.mark.parametrize("protocol, target, depth", [
    ("gmp", "self_death", None), ("tcp", "SunOS 4.1.3", 2.0)])
def test_explore_simulates_its_prefix_once(protocol, target, depth):
    # the survey's cold run is captured and every schedule forks it
    calls, report = _prefix_calls(lambda: explore(
        protocol, target, depth=depth, window=0.5, max_schedules=6))
    assert report.schedules > 1
    assert calls == 1


def test_explore_tcp_smoke():
    report = explore("tcp", "SunOS 4.1.3", depth=5.0, window=0.5,
                     max_schedules=6)
    assert report.schedules >= 1
    assert report.depth == 5.0


def test_explore_rejects_unknown_target():
    with pytest.raises(ValueError, match="unknown gmp target"):
        explore("gmp", "no_such_variant")


def test_explore_progress_lines():
    lines = []
    explore("gmp", "self_death", max_schedules=20,
            progress=lines.append)
    assert any("GMP-SELF-DEATH" in line for line in lines)
    assert any("schedules" in line for line in lines)


# ----------------------------------------------------------------------
# pair plans, event accounting
# ----------------------------------------------------------------------

def test_explore_counts_simulated_events():
    report = explore("gmp", "self_death", max_schedules=8)
    assert report.simulated_events > 0
    assert report.ancestor_forks == 0  # every schedule forks the root
    assert f"  simulated {report.simulated_events} events" in (
        report.render().splitlines())


def test_explore_pairs_are_deterministic():
    def run():
        report = explore("gmp", "self_death", seed=2, max_schedules=16,
                         max_perturbations=2)
        return ([(o.perturbations, o.codes, o.outcome_hash)
                 for o in report.outcomes], report.simulated_events)
    assert run() == run()
