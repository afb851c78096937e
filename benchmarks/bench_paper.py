"""Regenerates the paper's tables and figures: one bench per panel.

Each bench runs one panel of ``repro.cli.PANELS`` through
``pytest-benchmark`` (so regeneration cost is tracked), prints it as
``repro all`` does, and checks that panel's claims in
``repro.experiments.claims``, so a regression in the protocol machinery
fails the bench.  Run::

    cd benchmarks && PYTHONPATH=../src python -m pytest bench_paper.py -s

(``-k table1`` for one panel, ``--benchmark-disable`` to skip timing).
"""

import functools

import pytest

from repro.cli import PANELS, render_panel
from repro.experiments import claims


@pytest.fixture(scope="module")
def run():
    return functools.cache(claims.call)


@pytest.mark.parametrize("panel", PANELS, ids=lambda panel: panel.command)
def test_panel(panel, run, once_benchmark):
    print(once_benchmark(render_panel, panel))
    assert claims.check(run, panel.command) == []
