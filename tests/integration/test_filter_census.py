"""Census of filter execution: Python calls per ``TclishFilter.run``.

Counts only, no clocks, so the figure repeats exactly from run to run
and from machine to machine.  Every intercepted message runs its filter
once; a change that puts interpretation back on that path -- a lookup,
a re-parse, a trip through a command's text -- moves this ratio by
whole calls, which is what the ceiling catches.
"""

import sys

from repro.core.orchestrator import Campaign
from repro.core.script import TclishFilter
from repro.oracle.fuzz import prefixed_fuzz_body, sweep_battery

#: Python ``call`` events per filter run over the battery below (34.68
#: with scripts compiled into closures, 71.54 when each command went
#: through the interpreter's word loop and each condition through
#: substitution and an expression memo), rounded up to the next whole
#: call
CALLS_PER_FILTER_RUN_CEILING = 35

#: filter runs the battery makes
FILTER_RUNS = 3_045


def _census():
    calls = runs = 0
    run = TclishFilter.run

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    def counted(self, ctx):
        nonlocal runs
        runs += 1
        sys.setprofile(profile)
        try:
            run(self, ctx)
        finally:
            sys.setprofile(None)

    battery = sweep_battery("gmp", ["self_death", "fixed"], 12)
    TclishFilter.run = counted
    try:
        Campaign(prefixed_fuzz_body, seed=0).run(battery)
    finally:
        TclishFilter.run = run
    return calls, runs


def test_calls_per_filter_run_stay_under_the_ceiling():
    calls, runs = _census()
    assert runs == FILTER_RUNS
    assert calls / runs <= CALLS_PER_FILTER_RUN_CEILING, (
        f"{calls / runs:.2f} Python calls per filter run")
