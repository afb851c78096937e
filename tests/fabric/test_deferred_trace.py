"""A row keeps its trace encoded until the trace is read.

A resume scores the rows it holds from their verdicts and telemetry, so
it does not unpickle their traces: a stored (or shipped) row carries its
trace as a nested pickle that ``row.trace`` decodes on first access.
Pinned here: a resume on either backend returns encoded rows with the
scorecard unchanged, decoding gives the serial run's trace, passing an
undecoded row on never decodes or re-encodes it, and the dataclass
conveniences (``==``, ``repr``, ``copy.copy``) still work on one.
"""

import copy
import pickle
import shutil

import pytest

from repro.core.fabric import ResultStore, SweepSpec, merge_campaign_dir
from repro.core.orchestrator import _ENCODED_TRACE, Campaign
from repro.netsim.trace import TraceRecorder
from repro.obs.campaign_report import render_stable
from repro.oracle.fuzz import pack_for, prefixed_fuzz_body, sweep_battery
from tests.fabric import rig

CONFIGS = sweep_battery("gmp", ["self_death", "fixed"], 2)
CAMPAIGN = Campaign(prefixed_fuzz_body, seed=0)


@pytest.fixture(scope="module")
def complete(tmp_path_factory):
    """A campaign directory holding every row, and the serial results."""
    fabric_dir = tmp_path_factory.mktemp("complete") / "fabric"
    serial = CAMPAIGN.run(CONFIGS, oracle=pack_for("gmp"),
                          fabric_dir=fabric_dir)
    return fabric_dir, serial


def _scored(results):
    return [(r.config, r.result, r.violations, r.ok()) for r in results]


def _held(fabric_dir, index):
    store = ResultStore(fabric_dir / "store")
    keys = SweepSpec.load(fabric_dir / "spec.pkl").store_keys(store)
    return store.get(keys[index])


def _refuse(*_args):
    raise AssertionError("a trace was decoded or re-encoded")


@pytest.mark.parametrize("backend", ["local", "sockets"])
def test_a_resume_scores_rows_without_decoding_their_traces(
        complete, tmp_path, backend):
    source, serial = complete
    fabric_dir = tmp_path / "fabric"
    shutil.copytree(source, fabric_dir)
    card = render_stable(merge_campaign_dir(fabric_dir))
    run = dict(oracle=pack_for("gmp"), backend=backend,
               fabric_dir=fabric_dir)
    if backend == "sockets":
        run["workers"] = 2

    resumed = CAMPAIGN.run(CONFIGS, **run)
    end = rig.campaign_ends(fabric_dir)[-1]
    assert (end["executed"], end["cached"]) == (0, len(CONFIGS))
    assert all("trace" not in vars(row) for row in resumed)
    assert _scored(resumed) == _scored(serial)
    assert any(not row.ok() for row in resumed)
    assert render_stable(merge_campaign_dir(fabric_dir)) == card

    # decoding is on demand, once, and gives the serial run's trace
    assert [list(row.trace) for row in resumed] \
        == [list(row.trace) for row in serial]
    assert all("trace" in vars(row) and _ENCODED_TRACE not in vars(row)
               for row in resumed)


def test_an_undecoded_row_passes_its_trace_bytes_on(complete, tmp_path,
                                                    monkeypatch):
    source, _serial = complete
    row = _held(source, 0)
    encoded = vars(row)[_ENCODED_TRACE]
    monkeypatch.setattr(TraceRecorder, "__setstate__", _refuse)
    monkeypatch.setattr(TraceRecorder, "__getstate__", _refuse)

    again = pickle.loads(pickle.dumps(row))
    store = ResultStore(tmp_path / "store")
    assert store.put("ab" * 32, row)
    stored = store.get("ab" * 32)

    for twin in (row, again, stored):
        assert "trace" not in vars(twin)
        assert vars(twin)[_ENCODED_TRACE] == encoded
    assert (again.config, stored.config) == (row.config, row.config)


def test_an_undecoded_row_compares_prints_and_copies(complete):
    source, serial = complete
    row = _held(source, 0)
    copied = copy.copy(row)
    assert "trace" not in vars(copied)
    assert vars(copied)[_ENCODED_TRACE] == vars(row)[_ENCODED_TRACE]

    assert repr(row).startswith(f"RunResult(config={row.config!r}")
    assert row == row
    assert row != _held(source, 1)
    assert list(copied.trace) == list(row.trace) == list(serial[0].trace)
