"""Rows are published as they complete, and a bad store entry heals.

Two contracts of the shared sink and store, on every backend that can
express them:

- ``store.put`` -> journal ``run_end`` happens per row, not after the
  sweep: a sweep that dies at configuration *k* leaves *k* resumable
  rows, and the re-run executes only the remainder;
- an entry that does not load as a sealed ``RunResult`` -- garbage,
  truncated, a foreign pickle, a bare pickle as ``put`` wrote it before
  entries were sealed (columnar or pre-columnar ``{"entries": [...]}``
  trace), a flipped payload byte, another format version -- is a
  counted miss for probe and load alike: it is re-executed and
  overwritten, never a wedge.
"""

import copyreg
import dataclasses
import io
import pickle

import pytest

from repro.core import envelope
from repro.core.fabric import ResultStore, merge_campaign_dir
from repro.core.orchestrator import Campaign, RunResult
from repro.netsim import kinds as K
from repro.netsim.trace import TraceRecorder
from repro.obs.journal import replay_journal
from tests.fabric import rig

#: flipped by the tests; module state is not part of a store key, so the
#: armed and the disarmed sweep address the same rows
ARMED = {"item": None}


def fragile_body(env, config):
    if config["item"] == ARMED["item"]:
        raise RuntimeError(f"planted at item {config['item']}")
    return rig.chaos_body(env, config)


@pytest.fixture(autouse=True)
def _disarm():
    ARMED["item"] = None
    yield
    ARMED["item"] = None


def _stable(results):
    return [(r.config, r.result, list(r.trace)) for r in results]


def _end(fabric_dir):
    return rig.campaign_ends(fabric_dir)[-1]


def test_failed_sweep_leaves_completed_rows_resumable(tmp_path):
    configs = rig.make_configs(6)
    campaign = Campaign(fragile_body, seed=5, lint="off")
    fabric_dir = tmp_path / "fabric"

    ARMED["item"] = 4
    journal = tmp_path / "first.jsonl"
    with pytest.raises(RuntimeError, match="planted at item 4"):
        campaign.run(configs, journal=journal, fabric_dir=fabric_dir)
    first = replay_journal(journal)
    assert [e.get("index") for e in first.of(K.CAMPAIGN_RUN_END)] \
        == [0, 1, 2, 3]
    assert len(list((fabric_dir / "store").rglob("*.pkl"))) == 4
    assert first.last(K.CAMPAIGN_END).get("executed") == 4

    ARMED["item"] = None
    journal = tmp_path / "second.jsonl"
    results = campaign.run(configs, journal=journal, fabric_dir=fabric_dir)
    second = replay_journal(journal)
    end = second.last(K.CAMPAIGN_END)
    assert (end.get("executed"), end.get("cached")) == (2, 4)
    assert [e.get("index") for e in second.of(K.CAMPAIGN_RUN_START)] \
        == [4, 5]
    assert _stable(results) == _stable(
        Campaign(fragile_body, seed=5, lint="off").run(configs))


def _bare_pickle(blob, trace_state):
    """The real entry as ``put`` wrote it before entries were sealed: a
    bare pickle of the dataclass, the trace inline as
    ``trace_state(recorder)`` -- the bytes the default reduction made."""
    result = envelope.unseal(blob)
    state = {field.name: getattr(result, field.name)
             for field in dataclasses.fields(RunResult)}
    out = io.BytesIO()
    pickler = pickle.Pickler(out)
    pickler.dispatch_table = {
        RunResult: lambda row: (copyreg.__newobj__, (RunResult,), state),
        TraceRecorder: lambda trace: (copyreg.__newobj__, (TraceRecorder,),
                                      trace_state(trace)),
    }
    pickler.dump(result)
    return out.getvalue()


def _parent_format(blob):
    """The real entry as the list-of-entries recorder pickled it."""
    return _bare_pickle(blob, lambda trace: {"entries": list(trace)})


def _unenveloped(blob):
    """The real entry as ``put`` wrote it with the columnar recorder."""
    return _bare_pickle(blob, TraceRecorder.__getstate__)


def _flipped_byte(blob):
    middle = len(blob) // 2
    return blob[:middle] + bytes([blob[middle] ^ 0x01]) + blob[middle + 1:]


def _future_version(blob):
    return envelope._frame(envelope.VERSION + 1,
                           pickle.dumps(envelope.unseal(blob)))


#: bytes, or a function of the real entry's bytes
BAD_ENTRIES = {
    "garbage": b"\x00not a pickle at all",
    "truncated": lambda blob: blob[:len(blob) // 2],
    "foreign": pickle.dumps({"not": "a RunResult"}),
    "hostile": b"cos\nsystem_that_does_not_exist\n(S'x'\ntR.",
    "parent_format": _parent_format,
    "unenveloped": _unenveloped,
    "flipped_byte": _flipped_byte,
    "future_version": _future_version,
}


def _corrupt(fabric_dir, how):
    """Overwrite row 1's entry; returns its path."""
    spec = rig.SweepSpec.load(fabric_dir / "spec.pkl")
    store = ResultStore(fabric_dir / "store")
    path = store._path(spec.store_keys(store)[1])
    blob = BAD_ENTRIES[how]
    path.write_bytes(blob(path.read_bytes()) if callable(blob) else blob)
    return path


@pytest.mark.parametrize("how", sorted(BAD_ENTRIES))
def test_store_treats_unloadable_entries_as_counted_misses(tmp_path, how):
    fabric_dir = tmp_path / "fabric"
    Campaign(rig.chaos_body, seed=5, lint="off").run(
        rig.make_configs(3), fabric_dir=fabric_dir)
    _corrupt(fabric_dir, how)
    store = ResultStore(fabric_dir / "store")
    keys = rig.SweepSpec.load(fabric_dir / "spec.pkl").store_keys(store)
    assert store.get(keys[1]) is None
    assert (store.hits, store.misses) == (0, 1)
    # probe and load agree with get
    assert store.missing(keys) == [1]
    with pytest.raises(RuntimeError, match="missing row 1"):
        store.load_all(keys)


@pytest.mark.parametrize("backend", ["local", "sockets"])
@pytest.mark.parametrize("how", ["garbage", "truncated", "parent_format",
                                 "unenveloped", "flipped_byte",
                                 "future_version"])
def test_resume_reexecutes_and_overwrites_a_bad_entry(tmp_path, backend,
                                                      how):
    configs = rig.make_configs(4)
    campaign = Campaign(rig.chaos_body, seed=5, lint="off")
    fabric_dir = tmp_path / "fabric"
    run = dict(backend=backend, fabric_dir=fabric_dir)
    if backend == "sockets":
        run["workers"] = 2
    first = campaign.run(configs, **run)
    path = _corrupt(fabric_dir, how)

    again = campaign.run(configs, **run)
    assert _stable(again) == _stable(first)
    end = _end(fabric_dir)
    assert end["status"] == "ok"
    assert (end["executed"], end["cached"]) == (1, 3)
    # healed: the entry loads again, so the next resume is a no-op
    with open(path, "rb") as fh:
        assert pickle.load(fh).config == configs[1]
    campaign.run(configs, **run)
    assert (_end(fabric_dir)["executed"], _end(fabric_dir)["cached"]) \
        == (0, 4)
    assert len(merge_campaign_dir(fabric_dir).runs) == 4
