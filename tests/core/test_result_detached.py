"""A result a sweep returns holds its rows, not the world it ran in.

An in-process run's trace records against its scheduler's clock, and a
simulated world is one big reference cycle, so a result still bound to
that clock kept the whole world alive for as long as the caller kept
the result -- and left it to the cyclic collector afterwards, whenever
that next came round.  Rows from the pool, the fabric and the store
never carried a clock; in-process rows now come back the same way.
"""

import gc
import types

import pytest

from repro.core.orchestrator import Campaign
from repro.netsim.scheduler import Scheduler
from repro.oracle.fuzz import prefixed_fuzz_body, sweep_battery

_OPAQUE = (type, types.ModuleType, types.FunctionType)


def _reaches_a_scheduler(root):
    seen, todo = {id(root)}, [root]
    while todo:
        obj = todo.pop()
        if isinstance(obj, Scheduler):
            return True
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, _OPAQUE):
                seen.add(id(ref))
                todo.append(ref)
    return False


@pytest.mark.parametrize("group", [True, False],
                         ids=["forked", "cold"])
def test_returned_results_pin_no_world(group):
    battery = sweep_battery("gmp", ["self_death", "fixed"], 2)
    results = Campaign(prefixed_fuzz_body, seed=0).run(battery,
                                                       group=group)
    assert len(results) == len(battery)
    for result in results:
        assert len(result.trace) > 0
        assert not _reaches_a_scheduler(result)


def test_a_returned_trace_records_only_with_an_explicit_time():
    result, = Campaign(prefixed_fuzz_body, seed=0).run(
        sweep_battery("gmp", ["fixed"], 1))
    rows = len(result.trace)
    with pytest.raises(RuntimeError, match="no clock bound"):
        result.trace.record("note")
    result.trace.record("note", t=1.0)
    assert len(result.trace) == rows + 1
