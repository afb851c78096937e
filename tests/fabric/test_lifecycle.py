"""One sweep lifecycle: what ``run_sweep`` gives every backend alike.

The sockets fabric is a row transport under the same ``campaign.start``
-> journaled preflight -> plan -> rows -> progress -> ``campaign.end``
that serial and pool sweeps run, so its coordinator journal carries the
preflight verdict, its ``progress`` sink is fed, ``workers="auto"``
means what it means on the local backend, and a sweep the gate refuses
ends before any worker exists.  The settable values of that one sweep
surface are pinned here too.
"""

import dataclasses
import inspect
import multiprocessing.process
import os

import pytest

from repro.core.checkpoint import CheckpointPool
from repro.core.fabric import ResultStore, SweepSpec
from repro.core.orchestrator import (Campaign, CampaignScriptError, run_one,
                                     run_sweep)
from repro.netsim import kinds as K
from repro.obs.journal import replay_journal
from tests.fabric import rig

SEED = 5


def _coordinator_journal(fabric_dir):
    return replay_journal(fabric_dir / "journals" / "coordinator.jsonl")


def plain_body(env, config):
    return {"item": config["item"]}


def _sockets(fabric_dir, configs, **options):
    return Campaign(plain_body, seed=SEED).run(
        configs, backend="sockets", workers=2, fabric_dir=fabric_dir,
        **options)


def test_sockets_progress_is_served_and_counts_cached_rows(tmp_path):
    fabric_dir = tmp_path / "fabric"
    # an earlier attempt left 3 of the 8 rows in the store
    configs = rig.make_configs(8)
    store = ResultStore(fabric_dir / "store")
    keys = SweepSpec(body=plain_body, seed=SEED,
                     configs=configs).store_keys(store)
    for index in range(3):
        store.put(keys[index], run_one(plain_body, SEED, configs[index]))
    lines = []
    _sockets(fabric_dir, rig.make_configs(8), progress=lines.append)
    assert all(line.startswith("[campaign] ") for line in lines)
    assert lines[0].startswith("[campaign] 3/8 configs") \
        and lines[0].endswith("cached 3")
    counts = [int(line.split()[1].split("/")[0]) for line in lines]
    assert counts == list(range(3, 9))

    lines.clear()
    _sockets(fabric_dir, rig.make_configs(8), progress=lines.append)
    assert [line.split(",")[0] for line in lines] \
        == ["[campaign] 8/8 configs"]


def test_auto_workers_mean_one_thing_on_sockets(tmp_path, monkeypatch):
    # on one CPU "auto" is one process on every transport: here one
    # fabric worker (the sockets backend used to floor it at two)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    Campaign(plain_body, seed=SEED).run(
        rig.make_configs(8), backend="sockets", workers="auto",
        fabric_dir=tmp_path)
    assert set(rig.worker_pids(tmp_path)) == {"w1"}


def test_sweep_surface_is_pinned():
    # every settable value on the sweep path: a new knob must show up
    # here as a diff
    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(Campaign.run) == [
        "self", "configs", "workers", "telemetry", "oracle", "journal",
        "progress", "group", "backend", "fabric_dir"]
    assert names(run_sweep) == [
        "spec", "workers", "journal", "progress", "backend", "fabric_dir",
        "fabric_options"]
    assert [field.name for field in dataclasses.fields(SweepSpec)] == [
        "body", "seed", "configs", "telemetry", "oracle", "lint", "group"]
    assert names(CheckpointPool) == ["max_items"]


def test_sockets_preflight_is_journaled_inside_its_phase(tmp_path):
    _sockets(tmp_path, rig.make_configs(4))
    events = [(event.kind, event.get("name"))
              for event in _coordinator_journal(tmp_path).events]
    start = events.index((K.CAMPAIGN_PHASE_START, "preflight"))
    assert events[start + 1:start + 3] == [
        (K.CAMPAIGN_PREFLIGHT, None), (K.CAMPAIGN_PHASE_END, "preflight")]
    assert start < events.index((K.CAMPAIGN_PHASE_START, "dispatch"))


def test_sockets_preflight_failure_ends_before_any_worker(tmp_path,
                                                          monkeypatch):
    def no_fork(self):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        no_fork)
    configs = [dict(config, script="this is not tclish {")
               for config in rig.make_configs(4)]
    with pytest.raises(CampaignScriptError):
        _sockets(tmp_path, configs)
    journal = _coordinator_journal(tmp_path)
    assert journal.last(K.CAMPAIGN_PREFLIGHT).get("ok") is False
    assert rig.campaign_ends(tmp_path) == [
        {"status": "preflight_failed", "executed": 0, "cached": 0,
         "findings": 0, "stolen": 0, "expired": 0}]
    assert not list((tmp_path / "journals").glob("shard-*.jsonl"))
