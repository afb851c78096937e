"""Prefix-sharing statistics mean one thing on every transport.

One mixed sweep -- a capturable group, a group whose prefix draws from
an RNG stream (captured, but no fork can be re-seeded), a singleton
group, and ``None``-keyed configurations -- runs serially, on the
two-worker pool and through the sockets fabric.  All three
``campaign.end`` records must report the same ``prefix_captures`` /
``prefix_forks`` / ``prefix_fallbacks``, with *fallback* meaning "a keyed
configuration that ran cold".
"""

from repro.core.fabric import merge_campaign_dir
from repro.core.orchestrator import PREFIX_STATS, Campaign, PrefixedBody
from repro.netsim import kinds as K
from repro.obs.campaign_report import render_stable, summarize_journal
from repro.obs.journal import replay_journal
from tests.fabric import rig


class _Pulse:
    """Self-rescheduling callable class (SC101-clean, picklable)."""

    def __init__(self, env):
        self.env = env
        self.fired = 0

    def __call__(self):
        self.fired += 1
        self.env.trace.record("pulse", n=self.fired)
        self.env.scheduler.schedule(1.0, self)


def mixed_prefix(env, config):
    if config["grp"] == "draw":
        # violates the zero-draw contract: forks cannot be re-seeded
        env.dist("early").dst_uniform(0.0, 1.0)
    pulse = _Pulse(env)
    env.scheduler.schedule(1.0, pulse)
    env.run_until(3.5)
    return {"pulse": pulse}


def mixed_continue(env, state, config):
    draw = env.dist("tail", config["grp"]).dst_uniform(0.0, 1.0)
    env.run_until(3.5 + config["extra"])
    return {"fired": state["pulse"].fired, "draw": round(draw, 9)}


def mixed_key(config):
    return None if config["grp"] == "loose" else config["grp"]


mixed_body = PrefixedBody(mixed_prefix, mixed_continue, key=mixed_key)

CONFIGS = [{"grp": grp, "extra": float(n)}
           for grp, count in (("warm", 3), ("draw", 3), ("solo", 1),
                              ("loose", 2))
           for n in range(count)]

#: warm: 1 capture, 3 forks; draw: 1 capture, 3 cold; solo: 1 cold
EXPECTED = {"prefix_captures": 2, "prefix_forks": 3, "prefix_fallbacks": 4}


def _stats(end):
    return {name: end.get(name) for name in PREFIX_STATS}


def test_three_sinks_report_identical_prefix_statistics(tmp_path):
    campaign = Campaign(mixed_body, seed=9)
    cold = campaign.run(CONFIGS, group=False)

    serial = campaign.run(CONFIGS, journal=tmp_path / "serial.jsonl")
    pooled = campaign.run(CONFIGS, workers=2,
                          journal=tmp_path / "pool.jsonl")
    sockets = campaign.run(CONFIGS, workers=2, backend="sockets",
                           fabric_dir=tmp_path / "fabric")

    for results in (serial, pooled, sockets):
        assert [(r.config, r.result, list(r.trace)) for r in results] \
            == [(r.config, r.result, list(r.trace)) for r in cold]

    ends = {
        "serial": replay_journal(tmp_path / "serial.jsonl")
        .last(K.CAMPAIGN_END).data,
        "pool": replay_journal(tmp_path / "pool.jsonl")
        .last(K.CAMPAIGN_END).data,
        "sockets": rig.campaign_ends(tmp_path / "fabric")[-1],
    }
    assert {name: _stats(end) for name, end in ends.items()} \
        == dict.fromkeys(ends, EXPECTED)


def test_ungrouped_sweeps_report_no_prefix_statistics(tmp_path):
    campaign = Campaign(mixed_body, seed=9)
    campaign.run(CONFIGS, group=False, journal=tmp_path / "cold.jsonl")
    end = replay_journal(tmp_path / "cold.jsonl").last(K.CAMPAIGN_END)
    assert _stats(end) == dict.fromkeys(PREFIX_STATS)


def test_single_group_sweep_is_leased_to_every_worker(tmp_path):
    # one target, many scripts -- the CLI's most natural sweep -- is one
    # prefix group: it is split at a worker's fair share (a duplicate
    # capture beats an idle core), on sockets as on the pool
    configs = [{"grp": "warm", "extra": float(n)} for n in range(8)]
    campaign = Campaign(mixed_body, seed=9)
    serial = campaign.run(configs, journal=tmp_path / "serial.jsonl")
    fabric_dir = tmp_path / "fabric"
    sockets = campaign.run(configs, workers=2, backend="sockets",
                           fabric_dir=fabric_dir)
    assert [(r.config, r.result, list(r.trace)) for r in sockets] \
        == [(r.config, r.result, list(r.trace)) for r in serial]
    assert render_stable(merge_campaign_dir(fabric_dir)) \
        == render_stable(summarize_journal(tmp_path / "serial.jsonl"))

    shards = rig.read_state(fabric_dir)["board"]["shards"]
    assert [len(shard["indices"]) for shard in shards] == [4, 4]
    forking = [journal for journal
               in (fabric_dir / "journals").glob("shard-*.jsonl")
               if any(event.get("forked") for event
                      in replay_journal(journal).of(K.CAMPAIGN_RUN_END))]
    assert _stats(rig.campaign_ends(fabric_dir)[-1]) == {
        "prefix_captures": len(forking), "prefix_forks": 8,
        "prefix_fallbacks": 0}
    assert len(forking) == len(shards)


def test_merge_keeps_captures_wherever_they_were_journaled(tmp_path):
    # a local directory journals its captures in coordinator.jsonl, a
    # sockets directory in its shard journals only: both merge them all
    campaign = Campaign(mixed_body, seed=9)
    campaign.run(CONFIGS, fabric_dir=tmp_path / "local")
    campaign.run(CONFIGS, workers=2, backend="sockets",
                 fabric_dir=tmp_path / "sockets")
    captures = EXPECTED["prefix_captures"]

    local = merge_campaign_dir(tmp_path / "local")
    coordinator = summarize_journal(
        tmp_path / "local" / "journals" / "coordinator.jsonl")
    assert local.checkpoints == coordinator.checkpoints
    assert len(local.checkpoints) == captures

    sockets_journals = tmp_path / "sockets" / "journals"
    assert summarize_journal(
        sockets_journals / "coordinator.jsonl").checkpoints == []
    assert len(merge_campaign_dir(tmp_path / "sockets").checkpoints) \
        == sum(len(summarize_journal(shard).checkpoints)
               for shard in sockets_journals.glob("shard-*.jsonl")) \
        == captures
    assert render_stable(local) == render_stable(
        merge_campaign_dir(tmp_path / "sockets"))
