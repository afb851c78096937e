"""Tier-1 guards over modules under ``benchmarks/``.

Each module is loaded by path with bytecode writing off, and registered
in ``sys.modules`` only for the test's duration, so nothing is written
under ``benchmarks/`` and nothing outlives the test.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.fixture
def load_bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)

    def load(relative):
        path = BENCHMARKS / relative
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, path.stem, module)
        spec.loader.exec_module(module)
        return module

    return load


def test_the_e2e_tracer_finds_every_entry_point_it_wraps(load_bench):
    # the per-layer pass wraps these by name; a deleted or renamed one
    # would otherwise surface only in a ``run.py --trace 1`` run
    from repro.netsim.scheduler import Scheduler
    from repro.xkernel.protocol import Protocol

    tracing = load_bench("e2e/tracing.py")
    plan = tracing.Tracer()._plan()
    planned = {(id(namespace), attribute)
               for namespace, attribute, _original, _wrapper in plan}
    for owner, attribute, _name, _after in tracing._entry_points():
        if isinstance(owner, type):
            assert (id(owner), attribute) in planned, (owner, attribute)
        else:
            assert any(original is owner for _n, _a, original, _w in plan), \
                owner
    # planning installs nothing
    assert Scheduler.run is Scheduler.__dict__["run"]
    assert not hasattr(Scheduler.run, "__wrapped__")
    assert not hasattr(Protocol.send_down, "__wrapped__")


def test_every_generated_gmp_script_passes_the_scorecard(load_bench):
    load_bench("conftest.py")
    scorecard = load_bench("bench_campaign_scorecard.py")
    results = scorecard.run_scorecard()
    failing = [(run.config["name"], run.result) for run in results
               if run.result]
    assert (len(results), failing) == (70, [])
