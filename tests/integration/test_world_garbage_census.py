"""Census of what a sweep leaves the cyclic collector: objects per config.

A finished run tears its world down (``ExperimentEnv.teardown``, called
by ``run_one``), so the world dies by reference counting.  What is left
in reference cycles after one pass of the e2e benchmark's batteries is
counted here with the collector off and ``gc.DEBUG_SAVEALL`` on: counts,
never timings, so the figure repeats from run to run.  A change that
leaves a back reference uncut puts a whole world back on the collector
per config, which moves this by hundreds.
"""

import gc
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core.orchestrator import Campaign
from repro.oracle.fuzz import pack_for, prefixed_fuzz_body

#: cyclic objects per config over one ``gmp_sweep`` pass (40 configs,
#: four prefix groups): 34.2, all of it the four groups' checkpoint
#: snapshots, which a capture keeps as its clone plan's template; 469.0
#: when every forked world and capture world was left to the collector
GMP_CYCLIC_PER_CONFIG_CEILING = 35

#: the same over one ``tcp_sweep`` pass (300 configs, four groups):
#: 0.69, the snapshots again; 139.9 before
TCP_CYCLIC_PER_CONFIG_CEILING = 1

INPUTS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "inputs.py"


def _battery(monkeypatch, protocol, per_target):
    # loaded by path with bytecode writing off, registered only for the
    # test's duration: nothing is written under ``benchmarks/``
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "inputs", inputs)
    spec.loader.exec_module(inputs)
    return inputs.draw_battery(protocol, per_target, 0).configs


def _cyclic_per_config(configs, protocol):
    """Objects one pass leaves in unreachable cycles, per config.

    A first pass warms the caches a pass fills; the collector then
    frees what ran before and stays off while the counted pass runs.
    """
    campaign = Campaign(prefixed_fuzz_body, seed=0)
    campaign.run(configs, oracle=pack_for(protocol))
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        results = campaign.run(configs, oracle=pack_for(protocol))
        assert len(results) == len(configs)
        del results
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return garbage / len(configs)


@pytest.mark.parametrize("protocol, per_target, ceiling", [
    ("gmp", 10, GMP_CYCLIC_PER_CONFIG_CEILING),
    ("tcp", 75, TCP_CYCLIC_PER_CONFIG_CEILING),
])
def test_a_sweep_leaves_few_cyclic_objects_per_config(monkeypatch, protocol,
                                                      per_target, ceiling):
    configs = _battery(monkeypatch, protocol, per_target)
    reading = _cyclic_per_config(configs, protocol)
    assert reading <= ceiling, (
        f"{reading:.1f} cyclic objects per {protocol} config")
