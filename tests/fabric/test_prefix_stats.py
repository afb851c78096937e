"""Prefix-sharing statistics mean one thing on every transport.

One mixed sweep -- a capturable group, a group whose prefix draws from
an RNG stream (captured, but no fork can be re-seeded), a singleton
group, and ``None``-keyed configurations -- runs serially, on the
two-worker pool and through the sockets fabric.  All three
``campaign.end`` records must report the same ``prefix_captures`` /
``prefix_forks`` / ``prefix_fallbacks``, with *fallback* meaning "a keyed
configuration that ran cold".
"""

from repro.core.orchestrator import PREFIX_STATS, Campaign, PrefixedBody
from repro.netsim import kinds as K
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
