"""ResultStore: multi-writer atomicity and probe-based resume."""

import pickle

import pytest

from repro.core.fabric import ResultStore, SweepSpec
from repro.core.orchestrator import RunCache, run_one
from tests.fabric.rig import chaos_body, make_spec


def _result(item=0):
    return run_one(chaos_body, 1, {"item": item, "ticks": 2})


def test_put_has_get_roundtrip(tmp_path):
    store = ResultStore(tmp_path / "store")
    spec = make_spec(3)
    keys = spec.store_keys(store)
    assert store.get(keys[0]) is None
    result = _result(0)
    assert store.put(keys[0], result)
    loaded = store.get(keys[0])
    assert loaded.config == result.config
    assert loaded.result == result.result


def test_missing_returns_todo_indices_in_order(tmp_path):
    store = ResultStore(tmp_path / "store")
    keys = make_spec(4).store_keys(store)
    store.put(keys[1], _result(1))
    store.put(keys[3], _result(3))
    assert store.missing(keys) == [0, 2]
    store.put(keys[0], _result(0))
    store.put(keys[2], _result(2))
    assert store.missing(keys) == []


def test_load_all_raises_on_gap(tmp_path):
    store = ResultStore(tmp_path / "store")
    keys = make_spec(2).store_keys(store)
    store.put(keys[0], _result(0))
    with pytest.raises(RuntimeError, match="missing row 1"):
        store.load_all(keys)
    store.put(keys[1], _result(1))
    results = store.load_all(keys)
    assert [r.config["item"] for r in results] == [0, 1]


def test_concurrent_writers_never_leave_temp_debris(tmp_path):
    # two store objects simulate two worker processes racing on one key
    a = ResultStore(tmp_path / "store")
    b = ResultStore(tmp_path / "store")
    key = make_spec(1).store_keys(a)[0]
    assert a.put(key, _result(0))
    assert b.put(key, _result(0))
    assert a.missing([key]) == b.missing([key]) == []
    leftovers = [p for p in (tmp_path / "store").rglob("*.tmp")]
    assert leftovers == []


def test_unpicklable_result_refused_not_crashed(tmp_path):
    store = ResultStore(tmp_path / "store")
    key = make_spec(1).store_keys(store)[0]

    class Hostile:
        def __reduce__(self):
            raise pickle.PicklingError("no")

    result = _result(0)
    result.result = Hostile()
    assert store.put(key, result) is False
    assert store.get(key) is None


def test_store_interoperates_with_plain_runcache(tmp_path):
    # RunCache is the store under its older name: a key computed
    # through it addresses the row a sweep spec's key does
    store = ResultStore(tmp_path / "store")
    cache = RunCache(tmp_path / "store")
    spec = make_spec(2)
    fabric_keys = spec.store_keys(store)
    for index, config in enumerate(spec.configs):
        assert cache.key(spec.body, spec.seed, config,
                         telemetry=spec.telemetry,
                         oracle=spec.oracle) == fabric_keys[index]


def test_spec_digest_stable_across_save_load_cycles(tmp_path):
    spec = make_spec(3)
    path = tmp_path / "spec.pkl"
    spec.save(path)
    first = SweepSpec.load(path)
    second = SweepSpec.load(path)
    assert spec.digest() == first.digest() == second.digest()
    # and across a re-save of a loaded spec (pickle memo layouts differ;
    # the digest must not care)
    first.save(tmp_path / "respec.pkl")
    assert SweepSpec.load(tmp_path / "respec.pkl").digest() == spec.digest()


def test_spec_digest_distinguishes_content(tmp_path):
    base = make_spec(3)
    assert make_spec(4).digest() != base.digest()
    assert make_spec(3, seed=2).digest() != base.digest()
