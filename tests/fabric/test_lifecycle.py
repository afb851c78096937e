"""One sweep lifecycle: what ``run_sweep`` gives every backend alike.

The sockets fabric is a row transport under the same ``campaign.start``
-> journaled preflight -> plan -> rows -> progress -> ``campaign.end``
that serial and pool sweeps run, so its coordinator journal carries the
preflight verdict, its ``progress`` sink is fed, and a sweep the gate
refuses ends before any worker exists.
"""

import multiprocessing.process

import pytest

from repro.core.fabric import ResultStore
from repro.core.orchestrator import Campaign, CampaignScriptError
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
    # a local attempt leaves 3 of the 8 rows in the store
    Campaign(plain_body, seed=SEED).run(
        rig.make_configs(8)[:3], cache=ResultStore(fabric_dir / "store"))
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
