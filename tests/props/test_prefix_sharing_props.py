"""Prefix-grouped sweeps and prefix-shared exploration digests change
nothing but the clock.

Four contracts, the first three pinned over the real protocol rigs:

- a prefix-grouped ``Campaign.run`` of the split fuzz body is
  byte-identical -- results, canonical traces, oracle fingerprints --
  to the cold (``group=False``) sweep of the same body it amortizes,
  across every TCP vendor profile and GMP bug variant;
- every explorer schedule (a :data:`~repro.oracle.explore
  .schedule_body` config) that the shard executor serves by a fork is
  byte-identical -- trace, verdict, applied plan -- to its cold run, on
  the GMP variants and on TCP mid-stream (depth 2.0);
- over drawn budgets, the explorer's prefix-shared incremental digest
  of every schedule equals the digest of a full ``dump_trace`` of that
  schedule's final trace;
- :func:`~repro.core.orchestrator.execute_shard` itself, over drawn key
  layouts (scattered groups, singletons, ``None`` keys, rows the store
  already holds, prefixes that cannot be captured or re-seeded): one row
  per index, stable-equal to the ``group=False`` cold run, each group
  captured at most once -- and a group of one only for a caller that
  keeps the pool (the fuzz loop, the shrinker), whose next call forks it.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.export import VOLATILE_ATTRS, dump_trace
from repro.core.checkpoint import CheckpointPool
from repro.core.fabric import SweepSpec
from repro.core.orchestrator import (Campaign, PrefixedBody, ShardCapture,
                                     ShardRow, ShardStart, execute_shard)
from repro.oracle.explore import _plans, _survey, explore, schedule_body
from repro.oracle.fuzz import (DEFAULT_DEPTHS, GMP_VARIANTS, HORIZONS,
                               pack_for, prefixed_fuzz_body)
from repro.oracle.grammar import generate_script
from repro.tcp import VENDORS


def canon(trace) -> str:
    return dump_trace(trace, exclude_attrs=VOLATILE_ATTRS)


def _config(protocol: str, target: str, index: int, depth=None):
    script = generate_script(random.Random(index), protocol, index=index)
    config = {"protocol": protocol, "target": target,
              "script": script.source, "init_script": script.init,
              "direction": script.direction}
    if depth is not None:
        config["install_at"] = depth
    return config


def _stable(results):
    return [(r.config, r.result, canon(r.trace),
             [v.fingerprint() for v in (r.violations or [])],
             None if r.telemetry is None else
             (r.telemetry.events, r.telemetry.virtual_s,
              r.telemetry.trace_entries))
            for r in results]


def _assert_grouped_matches_cold(configs, protocol, seed):
    cold = Campaign(prefixed_fuzz_body, seed=seed).run(
        configs, oracle=pack_for(protocol), group=False)
    grouped = Campaign(prefixed_fuzz_body, seed=seed).run(
        configs, oracle=pack_for(protocol))
    assert _stable(grouped) == _stable(cold)


# ----------------------------------------------------------------------
# grouped campaign == cold sweep
# ----------------------------------------------------------------------

@pytest.mark.parametrize("vendor", sorted(VENDORS))
def test_tcp_grouped_sweep_matches_cold(vendor):
    # depth 5.0 shares a mid-stream prefix: handshake done, segments
    # and retransmission timers in flight when each script arms
    configs = [_config("tcp", vendor, index, depth=5.0)
               for index in range(3)]
    _assert_grouped_matches_cold(configs, "tcp", seed=42)


@pytest.mark.parametrize("variant", GMP_VARIANTS + ("fixed",))
def test_gmp_grouped_sweep_matches_cold(variant):
    configs = [_config("gmp", variant, index) for index in range(3)]
    _assert_grouped_matches_cold(configs, "gmp", seed=7)


def test_mixed_target_sweep_groups_per_target():
    # a sweep across all GMP variants forms one prefix group per
    # variant (the bug flags differ, so the warm worlds differ)
    configs = [_config("gmp", variant, index)
               for variant in GMP_VARIANTS for index in range(2)]
    keys = {prefixed_fuzz_body.prefix_key(c) for c in configs}
    assert keys == {("gmp", v, DEFAULT_DEPTHS["gmp"])
                    for v in GMP_VARIANTS}
    _assert_grouped_matches_cold(configs, "gmp", seed=3)


def test_grouped_parallel_matches_cold():
    configs = [_config("gmp", variant, index)
               for variant in ("self_death", "fixed")
               for index in range(3)]
    cold = Campaign(prefixed_fuzz_body, seed=7).run(
        configs, oracle=pack_for("gmp"), group=False)
    grouped = Campaign(prefixed_fuzz_body, seed=7).run(
        configs, workers=2, oracle=pack_for("gmp"))
    assert _stable(grouped) == _stable(cold)


# ----------------------------------------------------------------------
# forked explorer schedule == cold schedule
# ----------------------------------------------------------------------

@pytest.mark.parametrize("protocol, target, depth, window", [
    *(("gmp", variant, DEFAULT_DEPTHS["gmp"], 1.5)
      for variant in GMP_VARIANTS + ("fixed",)),
    *(("tcp", vendor, 2.0, 0.5) for vendor in sorted(VENDORS))])
def test_forked_schedules_match_cold(protocol, target, depth, window):
    base = {"protocol": protocol, "target": target, "install_at": depth,
            "window": window, "horizon": HORIZONS[protocol],
            "defer_delta": 4.0}
    pool = CheckpointPool()
    steps, _digest, _capture = _survey(base, 0, pool)
    every = _plans(steps, max_perturbations=2, max_schedules=10 ** 6)
    # the baseline, then singles and pairs across the whole plan order
    configs = [dict(base, plan=plan)
               for plan in every[::max(1, len(every) // 7)]]
    assert any(len(config["plan"]) == 2 for config in configs)
    spec = SweepSpec(body=schedule_body, seed=5, configs=configs,
                     oracle=pack_for(protocol))
    # every schedule forks the survey's capture
    rows = [event for event in execute_shard(spec, range(len(configs)),
                                             pool)
            if type(event) is ShardRow]
    assert [row.forked for row in rows] == [True] * len(configs)
    cold = Campaign(schedule_body, seed=5).run(
        configs, oracle=pack_for(protocol), group=False)
    assert _stable([row.result for row in rows]) == _stable(cold)
    # the plans perturbed something: not a run of identical baselines
    assert any(row.result.result[0] for row in rows)


# ----------------------------------------------------------------------
# incremental digest == full dump, for drawn budgets
# ----------------------------------------------------------------------

#: a 0.5 s window holds 15 steps -> 30 singles, so budgets past 31
#: reach pair plans without exploring hundreds of schedules
_NARROW = dict(seed=0, window=0.5)


@pytest.fixture(scope="module")
def all_hashes():
    """Outcome hashes of the longest drawn exploration; the plan order
    is fixed, so shorter budgets are prefixes of it."""
    report = explore("gmp", "self_death", max_schedules=70,
                     max_perturbations=2, **_NARROW)
    return [o.outcome_hash for o in report.outcomes]


@given(max_schedules=st.integers(1, 70),
       max_perturbations=st.integers(1, 2))
@settings(max_examples=12, deadline=None)
def test_incremental_digest_equals_full_dump(all_hashes, max_schedules,
                                             max_perturbations):
    import repro.oracle
    evaluate = repro.oracle.evaluate
    full = []

    def dumping_evaluate(trace, pack):
        # called once per schedule with its final trace: the reference
        # is the whole-trace hash the explorer used to compute
        full.append(hashlib.sha256(canon(trace).encode()).hexdigest()[:16])
        return evaluate(trace, pack)

    repro.oracle.evaluate = dumping_evaluate
    try:
        report = explore("gmp", "self_death", max_schedules=max_schedules,
                         max_perturbations=max_perturbations, **_NARROW)
    finally:
        repro.oracle.evaluate = evaluate
    hashes = [o.outcome_hash for o in report.outcomes]
    assert hashes == full
    # one perturbation per schedule stops at the singles
    budget = max_schedules if max_perturbations > 1 \
        else min(max_schedules, 31)
    assert hashes == all_hashes[:budget]


# ----------------------------------------------------------------------
# execute_shard over drawn key layouts == cold, one capture per group
# ----------------------------------------------------------------------

class _Beat:
    """Self-rescheduling callable class (SC101-clean, deep-copyable)."""

    def __init__(self, env, period):
        self.env = env
        self.period = period
        self.fired = 0

    def __call__(self):
        self.fired += 1
        self.env.trace.record("beat", n=self.fired)
        self.env.scheduler.schedule(self.period, self)


def _layout_prefix(env, config):
    kind = config["grp"]
    if kind == "draws":
        # capturable, but no fork can be re-seeded: a stream was drawn
        env.dist("early").dst_uniform(0.0, 1.0)
    beat = _Beat(env, 0.5 + 0.25 * (len(kind) % 3))
    env.scheduler.schedule(0.5, beat)
    if kind == "closure":
        # uncapturable: a pending closure fails the capture audit
        env.scheduler.schedule(50.0, lambda: env.trace.record("late"))
    env.run_until(3.0)
    return {"beat": beat}


def _layout_continue(env, state, config):
    draw = env.dist("tail", config["grp"]).dst_uniform(0.0, 1.0)
    env.run_until(3.0 + config["extra"])
    env.trace.record("tail.done", fired=state["beat"].fired)
    return {"fired": state["beat"].fired, "draw": round(draw, 9)}


def _layout_key(config):
    return None if config["grp"] == "loose" else config["grp"]


_layout_body = PrefixedBody(_layout_prefix, _layout_continue,
                            key=_layout_key)

_groups = st.sampled_from(["a", "b", "c", "loose", "draws", "closure"])
_layouts = st.lists(st.tuples(_groups, st.booleans()), min_size=1,
                    max_size=9)


def _row_stable(result):
    return (result.config, result.result, list(result.trace),
            (result.telemetry.events, result.telemetry.virtual_s,
             result.telemetry.trace_entries))


@given(_layouts, st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_execute_shard_matches_cold_and_captures_each_group_once(layout,
                                                                 rnd):
    # (group, stored): stored rows are ones a store probe already took
    # out of the shard, so groups arrive with holes; the shard's indices
    # arrive in any order, so groups arrive scattered
    configs = [{"grp": grp, "extra": float(n % 3), "n": n}
               for n, (grp, _stored) in enumerate(layout)]
    indices = [n for n, (_grp, stored) in enumerate(layout) if not stored]
    rnd.shuffle(indices)
    spec = SweepSpec(body=_layout_body, seed=13, configs=configs)
    cold = Campaign(_layout_body, seed=13, lint="off").run(configs,
                                                           group=False)

    events = list(execute_shard(spec, indices))
    rows = [e for e in events if type(e) is ShardRow]
    starts = [e.index for e in events if type(e) is ShardStart]
    captures = [e.payload["prefix"] for e in events
                if type(e) is ShardCapture]

    # one start and one row per index, each start right before its row
    assert sorted(starts) == sorted(indices)
    assert [row.index for row in rows] == starts
    for row in rows:
        assert _row_stable(row.result) == _row_stable(cold[row.index])
        assert row.prefix == _layout_key(configs[row.index])

    in_shard = {}
    for index in indices:
        in_shard.setdefault(_layout_key(configs[index]), []).append(index)
    # at most one capture per group, only for groups of two or more, and
    # never for a world that cannot be captured
    assert len(captures) == len(set(captures))
    assert set(captures) == {key for key, members in in_shard.items()
                             if key not in (None, "closure")
                             and len(members) > 1}
    for row in rows:
        shareable = (row.prefix in captures and row.prefix != "draws")
        assert row.forked == shareable

    # group=False: the same rows, nothing captured, nothing forked
    flat = list(execute_shard(
        SweepSpec(body=_layout_body, seed=13, configs=configs,
                  group=False), indices))
    assert not any(type(e) is ShardCapture for e in flat)
    assert [(e.index, _row_stable(e.result), e.prefix, e.forked)
            for e in flat if type(e) is ShardRow] \
        == [(index, _row_stable(cold[index]), None, False)
            for index in indices]


def test_caller_pool_captures_a_singleton_and_the_next_call_forks_it():
    configs = [{"grp": "a", "extra": 1.0, "n": 0},
               {"grp": "a", "extra": 2.0, "n": 1}]
    spec = SweepSpec(body=_layout_body, seed=13, configs=configs)
    cold = Campaign(_layout_body, seed=13, lint="off").run(configs,
                                                           group=False)
    pool = CheckpointPool()
    first = list(execute_shard(spec, [0], pool))
    second = list(execute_shard(spec, [1], pool))
    # without a pool nobody could fork the capture: the row runs cold
    alone = list(execute_shard(spec, [0]))

    assert [type(e) for e in first] == [ShardCapture, ShardStart, ShardRow]
    assert [type(e) for e in second] == [ShardStart, ShardRow]
    assert [type(e) for e in alone] == [ShardStart, ShardRow]
    assert first[0].payload["configs"] == 1 and len(pool) == 1
    assert [(e[-1].index, e[-1].prefix, e[-1].forked)
            for e in (first, second, alone)] \
        == [(0, "a", True), (1, "a", True), (0, "a", False)]
    for events in (first, second, alone):
        row = events[-1]
        assert _row_stable(row.result) == _row_stable(cold[row.index])
