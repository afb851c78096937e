"""One run of each experiment per session, shared by every ledger test."""

import functools

import pytest

from repro.experiments import claims


@pytest.fixture(scope="session")
def run():
    return functools.cache(claims.call)


def panel_holds(panel):
    """A test method checking every claim of ``panel``."""
    def test(self, run):
        assert claims.check(run, panel) == []
    return test
