"""A row keeps its trace encoded until the trace is read.

A sweep is scored from its rows' verdicts and telemetry, so it does not
need their traces live: every row a sweep returns carries its trace as
a nested pickle that ``row.trace`` decodes on first access -- a row run
here was encoded as the sink published it, a shipped or stored one
arrived that way.  Pinned here: a serial, pool, sockets and resumed row
each hold the encoded trace and decode to the same trace; an in-process
sweep with a store pickles each trace once; a trace that does not pickle
stays live; a resume on either backend returns encoded rows with the
scorecard unchanged, decoding gives the serial run's trace, passing an
undecoded row on never decodes or re-encodes it, and the dataclass
conveniences (``==``, ``repr``, ``copy.copy``) still work on one.
"""

import copy
import pickle
import shutil

import pytest

from repro.analysis.export import VOLATILE_ATTRS, dump_trace
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


def _traces(rows):
    """Each row's trace as text, less the per-process message uids."""
    return [dump_trace(row.trace, exclude_attrs=VOLATILE_ATTRS)
            for row in rows]


@pytest.mark.parametrize("transport", ["serial", "pool", "sockets",
                                       "resumed"])
def test_every_transport_returns_rows_with_encoded_traces(
        complete, tmp_path, transport):
    source, serial = complete
    run = {"oracle": pack_for("gmp")}
    if transport == "pool":
        run["workers"] = 2
    elif transport == "sockets":
        run.update(backend="sockets", workers=2,
                   fabric_dir=tmp_path / "fabric")
    elif transport == "resumed":
        run["fabric_dir"] = tmp_path / "fabric"
        shutil.copytree(source, run["fabric_dir"])

    rows = CAMPAIGN.run(CONFIGS, **run)
    if transport == "resumed":
        end = rig.campaign_ends(run["fabric_dir"])[-1]
        assert (end["executed"], end["cached"]) == (0, len(CONFIGS))
    assert all("trace" not in vars(row) and _ENCODED_TRACE in vars(row)
               for row in rows)
    assert _scored(rows) == _scored(serial)
    assert _traces(rows) == _traces(serial)


def test_an_inprocess_sweep_with_a_store_pickles_each_trace_once(
        tmp_path, monkeypatch):
    pickled = []
    getstate = TraceRecorder.__getstate__

    def counted(trace):
        pickled.append(trace)
        return getstate(trace)

    monkeypatch.setattr(TraceRecorder, "__getstate__", counted)
    rows = CAMPAIGN.run(CONFIGS, oracle=pack_for("gmp"),
                        fabric_dir=tmp_path / "fabric")
    assert len(pickled) == len(CONFIGS)
    assert all("trace" not in vars(row) for row in rows)
    monkeypatch.setattr(TraceRecorder, "__getstate__", _refuse)
    held = [_held(tmp_path / "fabric", index)
            for index in range(len(CONFIGS))]
    assert [vars(row)[_ENCODED_TRACE] for row in held] \
        == [vars(row)[_ENCODED_TRACE] for row in rows]


def unpicklable_trace_body(env, config):
    """A module-level body whose trace does not pickle."""
    env.trace.record("probe", t=0.0, callback=lambda: config["item"])
    return config["item"]


def test_a_trace_that_does_not_pickle_stays_live(tmp_path):
    rows = Campaign(unpicklable_trace_body, seed=0, lint="off").run(
        [{"item": 0}, {"item": 1}], fabric_dir=tmp_path / "fabric")
    assert [row.result for row in rows] == [0, 1]
    assert all("trace" in vars(row) and _ENCODED_TRACE not in vars(row)
               for row in rows)
    assert [row.trace.first("probe").attrs["callback"]() for row in rows] \
        == [0, 1]
    assert list((tmp_path / "fabric" / "store").rglob("*.pkl")) == []


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
