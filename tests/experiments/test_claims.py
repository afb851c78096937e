"""The paper's claims (:mod:`repro.experiments.claims`): each one holds
on the runs, and EXPERIMENTS.md prints what the runs measure."""

import dataclasses
import functools
from pathlib import Path

import pytest

from repro.cli import PANELS
from repro.experiments import claims
from repro.tcp import VENDORS

pytestmark = pytest.mark.experiment

DOCUMENT = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


@pytest.mark.parametrize("claim", claims.LEDGER,
                         ids=lambda claim: f"{claim.panel}/{claim.quantity}")
def test_claim(claim, run):
    assert claim.match.label == "exact" or claim.cause, \
        "a match that is not exact states its cause"
    problem = claim.check(run)
    assert not problem, problem


def test_every_printed_panel_has_claims():
    assert sorted(claims.panels()) == sorted({panel.command
                                              for panel in PANELS})


@pytest.mark.parametrize("panel", claims.panels())
def test_experiments_md_prints_the_measured_table(panel, run):
    rendered = claims.table(panel, run)
    assert rendered in DOCUMENT.read_text(), (
        f"EXPERIMENTS.md's {panel} table is not what the runs measure "
        f"(python -m repro.experiments.claims prints it):\n{rendered}")


def test_a_moved_value_fails_the_row_that_prints_it(monkeypatch):
    sunos = VENDORS["SunOS 4.1.3"]
    monkeypatch.setitem(VENDORS, sunos.name,
                        dataclasses.replace(sunos, max_retransmits=11))
    run = functools.cache(claims.call)
    problems = claims.check(run, "table1")
    assert [problem.split(":")[0] for problem in problems] == [
        "table1 / SunOS/AIX/NeXT retransmissions before death"]
    assert "SunOS 4.1.3: retransmissions=11" in problems[0]
    assert claims.table("table1", run) not in DOCUMENT.read_text()
