"""Census of what a sweep leaves behind and what it keeps, per config.

A finished run tears its world down (``ExperimentEnv.teardown``, called
by ``run_one``), and so does a prefix group's checkpoint snapshot once
the group has run (``Checkpoint.teardown``, called by
``execute_shard``), so every world dies by reference counting.  What is
left in reference cycles after one pass of the e2e benchmark's batteries
is counted here with the collector off and ``gc.DEBUG_SAVEALL`` on:
counts, never timings, so the figure repeats from run to run.  A change
that leaves a back reference uncut puts a whole world back on the
collector per config, which moves this by hundreds.

What a pass keeps is its rows.  Each holds its trace as a pickle
(``RunResult``), not as a live recorder with an attrs dict per entry;
the bytes one returned row holds are measured with ``tracemalloc``,
which counts allocations exactly, so this figure repeats too.
"""

import gc
import importlib.util
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.core.orchestrator import Campaign
from repro.oracle.fuzz import pack_for, prefixed_fuzz_body

#: cyclic objects per config over one ``gmp_sweep`` pass (40 configs,
#: four prefix groups): 0.0; 34.2 while the four groups' checkpoint
#: snapshots were left to the collector, and 469.0 when every forked
#: world and capture world was too.  One leaked snapshot reads ~8.5
GMP_CYCLIC_PER_CONFIG_CEILING = 0.1

#: the same over one ``tcp_sweep`` pass (300 configs, four groups):
#: 0.0; 0.69 with the snapshots, 139.9 before.  One leaked snapshot
#: reads ~0.17
TCP_CYCLIC_PER_CONFIG_CEILING = 0.1

#: bytes one returned ``gmp_sweep`` row holds: 39.2 KiB; 238.5 KiB
#: while a row returned by an in-process sweep kept its trace live
GMP_ROW_BYTES_CEILING = 48 * 1024

#: the same for a ``tcp_sweep`` row: 3.9 KiB; 22.7 KiB live
TCP_ROW_BYTES_CEILING = 5 * 1024

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


def _bytes_per_row(configs, protocol):
    """Bytes the rows of one pass hold, per row.

    A first pass warms the caches a pass fills; what the counted pass
    leaves allocated, once its cyclic garbage is collected, is what its
    rows hold.
    """
    campaign = Campaign(prefixed_fuzz_body, seed=0)
    campaign.run(configs, oracle=pack_for(protocol))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = campaign.run(configs, oracle=pack_for(protocol))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(results) == len(configs)
    return held / len(configs)


@pytest.mark.parametrize("protocol, per_target, ceiling", [
    ("gmp", 10, GMP_ROW_BYTES_CEILING),
    ("tcp", 75, TCP_ROW_BYTES_CEILING),
])
def test_a_returned_row_holds_its_trace_encoded(monkeypatch, protocol,
                                                per_target, ceiling):
    configs = _battery(monkeypatch, protocol, per_target)
    reading = _bytes_per_row(configs, protocol)
    assert reading <= ceiling, (
        f"{reading / 1024:.1f} KiB held per {protocol} row")
