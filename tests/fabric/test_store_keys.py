"""Store keys: one derivation, whichever form computes it.

:meth:`SweepSpec.store_keys` hashes a sweep's shared part once and
copies it per configuration; :meth:`ResultStore.key` is the
one-configuration form.  Both must name every row by the same bytes, or
a store warmed by one would be orphaned by the other.
"""

import sys

import pytest

from repro.core import orchestrator
from repro.core.fabric import ResultStore, SweepSpec
from repro.core.orchestrator import PrefixedBody, _prefix_digest


def plain_body(env, config):
    return {"n": config["n"]}


def split_prefix(env, config):
    return {"warm": True}


def split_continue(env, state, config):
    return {"n": config["n"], "warm": state["warm"]}


def split_key(config):
    return config.get("grp")


def name_oracle(trace, pack=None):
    return []


split_body = PrefixedBody(split_prefix, split_continue, key=split_key)

#: prefix keys held by several rows and by one, a row that never
#: groups, and two keys that compare equal but print apart
CONFIGS = [{"grp": grp, "n": n}
           for n, grp in enumerate(("a", "b", "a", "c", "b", None, 1, 1.0))]


def _reference_keys(spec, store):
    """Each row's key from its own :meth:`ResultStore.key` call, the
    prefix digest derived afresh for every row."""
    keys = []
    for config in spec.configs:
        prefix = spec.body.key(config) if spec.split else None
        keys.append(store.key(
            spec.body, spec.seed, config, telemetry=spec.telemetry,
            oracle=spec.oracle,
            checkpoint=(None if prefix is None
                        else _prefix_digest(spec.body, prefix))))
    return keys


@pytest.mark.parametrize("body", [plain_body, split_body],
                         ids=["unsplit", "split"])
@pytest.mark.parametrize("oracle", [None, name_oracle],
                         ids=["no-oracle", "oracle"])
@pytest.mark.parametrize("group", [True, False], ids=["grouped", "cold"])
@pytest.mark.parametrize("telemetry", [True, False],
                         ids=["telemetry", "bare"])
def test_store_keys_are_the_one_configuration_keys(tmp_path, body, oracle,
                                                   group, telemetry):
    store = ResultStore(tmp_path / "store")
    spec = SweepSpec(body=body, seed=11, configs=CONFIGS, oracle=oracle,
                     group=group, telemetry=telemetry, lint="off")
    keys = spec.store_keys(store)
    assert keys == _reference_keys(spec, store)
    assert len(set(keys)) == len(keys)


#: the keys of one fixed split sweep: a change that re-derives them
#: differently orphans every store written before it.  A key hashes
#: bytecode, so the pins hold for one CPython minor version.
GOLDEN = [
    "6efd433100bc4db0be405132491d62c3be5e93742f84497955e516be4ab24f8c",
    "254f42ae2952ce24724e8bbc73c01f1c6998e9b525742eb7a5f09e6f51e896f1",
    "5247150339ed42c9a517c07dcd0362287ef8a8f883fb09b4b09d30b5a22fdd34",
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="keys pinned for CPython 3.11 bytecode")
def test_store_keys_are_pinned(tmp_path):
    spec = SweepSpec(body=split_body, seed=1995, configs=CONFIGS[:3],
                     oracle=name_oracle, lint="off")
    assert spec.store_keys(ResultStore(tmp_path / "store")) == GOLDEN


def test_store_keys_hash_each_code_object_once(tmp_path, monkeypatch):
    # the sweep part (both body parts) is hashed once, and the prefix
    # code once per distinct prefix key, however many rows share them
    calls = [0]
    depth = [0]
    hash_code = orchestrator._hash_code

    def counting(digest, code):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            hash_code(digest, code)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(orchestrator, "_hash_code", counting)
    store = ResultStore(tmp_path / "store")
    distinct = len({repr(config["grp"]) for config in CONFIGS} - {"None"})
    for copies in (1, 4):
        calls[0] = 0
        SweepSpec(body=split_body, seed=3, configs=CONFIGS * copies,
                  lint="off").store_keys(store)
        assert calls[0] == len(split_body.cache_parts()) + distinct
    calls[0] = 0
    SweepSpec(body=plain_body, seed=3, configs=CONFIGS * 4,
              lint="off").store_keys(store)
    assert calls[0] == 1
