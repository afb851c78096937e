"""Prefix-grouped campaign scheduling is byte-identical to cold runs.

A :class:`~repro.core.orchestrator.PrefixedBody` splits a campaign body
at its shareable warm prefix; ``Campaign.run`` (``group=True``, the
default) captures that prefix once per group and forks it per
configuration.  Everything observable -- results, traces, oracle
verdicts, telemetry's deterministic fields -- must be exactly what the
cold path produces; only wall time may differ.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.checkpoint import CheckpointPool
from repro.core.fabric.spec import SweepSpec
from repro.core.orchestrator import (Campaign, PrefixedBody, ResultStore,
                                     ShardCapture, ShardRow, _prefix_chunks,
                                     _prefix_digest, _prefix_groups,
                                     execute_shard)
from repro.netsim import kinds as K
from repro.obs.journal import replay_journal


class _Pulse:
    """Self-rescheduling callable class (SC101-clean, picklable)."""

    def __init__(self, env, period):
        self.env = env
        self.period = period
        self.fired = 0

    def __call__(self):
        self.fired += 1
        self.env.trace.record("pulse", n=self.fired)
        self.env.scheduler.schedule(self.period, self)


def warm_prefix(env, config):
    """Zero-draw warmup shared by every config in a group."""
    pulse = _Pulse(env, period=float(config["grp"][-1]) * 0.1 + 0.5)
    env.scheduler.schedule(0.5, pulse)
    env.run_until(5.0)
    return {"pulse": pulse}


def noisy_continue(env, state, config):
    """The varying tail: seeded draws, so seed identity is observable."""
    dist = env.dist("tail", config["grp"])
    acc = sum(dist.dst_uniform(0.0, 1.0) for _ in range(5))
    env.run_until(5.0 + config["extra"])
    env.trace.record("tail.done", fired=state["pulse"].fired)
    return {"fired": state["pulse"].fired, "acc": round(acc, 9)}


def group_key(config):
    return f"warm-{config['grp']}"


def no_key(config):
    """Every configuration opts out of grouping."""
    return None


def drawing_prefix(env, config):
    """A prefix that consumes RNG: violates the reseed contract."""
    env.dist("early", config["grp"]).dst_uniform(0.0, 1.0)
    return warm_prefix(env, config)


split_body = PrefixedBody(warm_prefix, noisy_continue, key=group_key)
loose_body = PrefixedBody(warm_prefix, noisy_continue, key=no_key)
drawing_body = PrefixedBody(drawing_prefix, noisy_continue, key=group_key)


def _configs(groups=("g1", "g2"), per_group=3):
    return [{"grp": grp, "extra": float(n)}
            for grp in groups for n in range(per_group)]


def _stable(results):
    """Everything a run produced except wall time."""
    return [(r.config, r.result, list(r.trace),
             None if r.telemetry is None else
             (r.telemetry.events, r.telemetry.virtual_s,
              r.telemetry.trace_entries))
            for r in results]


def _shard(configs, pool):
    """Run ``configs`` as one in-process shard over ``pool``, the way
    fuzz batches and shrink probes do; returns (captures, rows)."""
    spec = SweepSpec(body=split_body, seed=11, configs=configs)
    events = list(execute_shard(spec, range(len(configs)), pool))
    rows = sorted((e for e in events if type(e) is ShardRow),
                  key=lambda row: row.index)
    return sum(type(e) is ShardCapture for e in events), rows


# ----------------------------------------------------------------------
# PrefixedBody semantics
# ----------------------------------------------------------------------

class TestPrefixedBody:
    def test_cold_call_is_prefix_then_continuation(self):
        from repro.core.orchestrator import make_env
        env = make_env(seed=3)
        direct = split_body(env, {"grp": "g1", "extra": 1.0})
        env2 = make_env(seed=3)
        state = warm_prefix(env2, {"grp": "g1", "extra": 1.0})
        composed = noisy_continue(env2, state, {"grp": "g1", "extra": 1.0})
        assert direct == composed
        assert list(env.trace) == list(env2.trace)

    def test_prefix_key_derivation(self):
        assert split_body.prefix_key({"grp": "g1"}) == "warm-g1"
        # a config carries no say over its own grouping
        assert split_body.prefix_key(
            {"grp": "g1", "prefix_key": "forced"}) == "warm-g1"
        assert loose_body.prefix_key({"grp": "g1"}) is None

    def test_digest_names_prefix_code_and_key(self):
        base = _prefix_digest(split_body, "warm-g1")
        assert _prefix_digest(split_body, "warm-g1") == base
        assert _prefix_digest(split_body, "warm-g2") != base
        assert _prefix_digest(drawing_body, "warm-g1") != base


# ----------------------------------------------------------------------
# grouping and chunking
# ----------------------------------------------------------------------

class TestGrouping:
    def test_groups_collect_scattered_keys_in_first_appearance_order(self):
        keys = ["a", "b", "a", None, "b", "a"]
        groups = _prefix_groups(list(range(6)), keys)
        assert groups == [("a", [0, 2, 5]), ("b", [1, 4]), (None, [3])]

    def test_none_keys_stay_singletons(self):
        groups = _prefix_groups([0, 1], [None, None])
        assert groups == [(None, [0]), (None, [1])]

    def test_chunks_keep_small_groups_whole(self):
        keys = ["a"] * 4 + ["b"] * 4 + ["c"] * 4
        chunks = _prefix_chunks(list(range(12)), keys, workers=3)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]

    def test_oversized_group_splits_at_fair_share(self):
        keys = ["a"] * 10 + ["b"] * 2
        chunks = _prefix_chunks(list(range(12)), keys, workers=3)
        # "a" alone exceeds one worker's fair share (4): split; "b" whole
        assert [len(c) for c in chunks] == [4, 4, 2, 2]
        assert sorted(i for c in chunks for i in c) == list(range(12))

    def test_chunks_cover_todo_exactly(self):
        keys = ["a", None, "b", "a", None, "b", "c"]
        todo = list(range(7))
        chunks = _prefix_chunks(todo, keys, workers=2)
        assert sorted(i for c in chunks for i in c) == todo

    @given(keys=st.lists(st.sampled_from([None, "a", "b", "c"]),
                         max_size=40),
           data=st.data(), workers=st.integers(1, 6))
    def test_one_partitioner_over_any_layout(self, keys, data, workers):
        # a resumed sweep's todo has gaps; pool chunks and fabric leases
        # are both cut by this function
        todo = [index for index in range(len(keys))
                if data.draw(st.booleans())]
        chunks = _prefix_chunks(todo, keys, workers)
        assert all(chunks)  # no empty shard
        assert sorted(i for c in chunks for i in c) == todo
        fair_share = -(-len(todo) // workers)
        for key in {keys[i] for i in todo} - {None}:
            group = [i for i in todo if keys[i] == key]
            holding = [[i for i in c if keys[i] == key] for c in chunks]
            holding = [part for part in holding if part]
            # order-preserving within the group, split only past the
            # fair share (and then into fair shares)
            assert [i for part in holding for i in part] == group
            if len(group) <= fair_share:
                assert len(holding) == 1
            else:
                assert all(len(part) <= fair_share for part in holding)

    @given(count=st.integers(0, 60), workers=st.integers(1, 6))
    def test_unkeyed_todo_is_cut_into_equal_contiguous_slices(self, count,
                                                              workers):
        todo = list(range(0, 2 * count, 2))
        chunks = _prefix_chunks(todo, [None] * (2 * count), workers)
        size = -(-count // max(1, min(count, workers * 4)))
        assert chunks == [todo[start:start + size]
                          for start in range(0, count, size or 1)]


# ----------------------------------------------------------------------
# grouped execution == cold execution
# ----------------------------------------------------------------------

class TestGroupedByteIdentity:
    def test_serial_grouped_matches_cold(self):
        campaign = Campaign(split_body, seed=11)
        configs = _configs()
        cold = campaign.run(configs, group=False)
        grouped = campaign.run(configs)
        assert _stable(grouped) == _stable(cold)

    def test_parallel_grouped_matches_cold(self):
        campaign = Campaign(split_body, seed=11)
        configs = _configs(groups=("g1", "g2", "g3"), per_group=4)
        cold = campaign.run(configs, group=False)
        grouped = campaign.run(configs, workers=2)
        assert _stable(grouped) == _stable(cold)

    def test_drawing_prefix_falls_back_cold_with_same_results(self, tmp_path):
        campaign = Campaign(drawing_body, seed=11)
        configs = _configs()
        cold = campaign.run(configs, group=False)
        path = tmp_path / "j.jsonl"
        grouped = campaign.run(configs, journal=path)
        assert _stable(grouped) == _stable(cold)
        end = replay_journal(path).last(K.CAMPAIGN_END)
        assert end.get("prefix_forks") == 0
        assert end.get("prefix_fallbacks") > 0

    def test_explicit_prefix_key_none_opts_out(self, tmp_path):
        campaign = Campaign(loose_body, seed=11)
        configs = _configs()
        path = tmp_path / "j.jsonl"
        results = campaign.run(configs, journal=path)
        assert _stable(results) == _stable(campaign.run(configs,
                                                        group=False))
        replay = replay_journal(path)
        assert not replay.of(K.CAMPAIGN_CHECKPOINT_CAPTURE)
        assert replay.last(K.CAMPAIGN_END).get("prefix_captures") is None


# ----------------------------------------------------------------------
# capture amortization: journal, pool, store
# ----------------------------------------------------------------------

class TestAmortization:
    def test_one_capture_per_group_serial(self, tmp_path):
        path = tmp_path / "j.jsonl"
        Campaign(split_body, seed=11).run(_configs(), journal=path)
        replay = replay_journal(path)
        captures = replay.of(K.CAMPAIGN_CHECKPOINT_CAPTURE)
        assert [c.get("prefix") for c in captures] == ["warm-g1", "warm-g2"]
        assert all(c.get("configs") == 3 for c in captures)
        ends = replay.of(K.CAMPAIGN_RUN_END)
        assert all(e.get("forked") for e in ends)
        end = replay.last(K.CAMPAIGN_END)
        assert end.get("prefix_captures") == 2
        assert end.get("prefix_forks") == 6
        assert end.get("prefix_fallbacks") == 0

    def test_one_capture_per_group_parallel(self, tmp_path):
        path = tmp_path / "j.jsonl"
        Campaign(split_body, seed=11).run(
            _configs(groups=("g1", "g2", "g3"), per_group=4),
            workers=2, journal=path)
        replay = replay_journal(path)
        captures = replay.of(K.CAMPAIGN_CHECKPOINT_CAPTURE)
        assert sorted(c.get("prefix") for c in captures) == [
            "warm-g1", "warm-g2", "warm-g3"]
        assert replay.last(K.CAMPAIGN_END).get("prefix_forks") == 12

    def test_singleton_group_runs_cold(self, tmp_path):
        path = tmp_path / "j.jsonl"
        Campaign(split_body, seed=11).run(
            [{"grp": "g1", "extra": 0.0}], journal=path)
        replay = replay_journal(path)
        assert not replay.of(K.CAMPAIGN_CHECKPOINT_CAPTURE)
        assert replay.last(K.CAMPAIGN_END).get("prefix_captures") == 0

    def test_shared_pool_reuses_captures_across_sweeps(self):
        pool = CheckpointPool()
        captures, _rows = _shard(_configs(), pool)
        assert (captures, len(pool)) == (2, 2)
        captures, rows = _shard(_configs(), pool)
        assert captures == 0
        assert sum(row.forked for row in rows) == 6
        cold = Campaign(split_body, seed=11).run(_configs(), group=False)
        assert _stable([row.result for row in rows]) == _stable(cold)

    def test_pooled_prefix_serves_singleton_groups(self):
        pool = CheckpointPool()
        _shard(_configs(groups=("g1",)), pool)
        captures, rows = _shard([{"grp": "g1", "extra": 9.0}], pool)
        assert captures == 0
        assert [row.forked for row in rows] == [True]

    def test_cached_sweep_skips_capture_entirely(self, tmp_path):
        campaign = Campaign(split_body, seed=11)
        configs = _configs()
        fabric_dir = tmp_path / "fabric"
        campaign.run(configs, fabric_dir=fabric_dir)
        path = tmp_path / "j.jsonl"
        second = campaign.run(configs, fabric_dir=fabric_dir, journal=path)
        replay = replay_journal(path)
        assert not replay.of(K.CAMPAIGN_CHECKPOINT_CAPTURE)
        assert [row.get("cached") for row in replay.of(K.CAMPAIGN_RUN_END)] \
            == [True] * len(configs)
        assert [r.result for r in second] == [
            r.result for r in campaign.run(configs, group=False)]

    def test_cache_keys_are_group_flag_independent(self, tmp_path):
        configs = _configs(per_group=2)
        Campaign(split_body, seed=11).run(configs, group=False,
                                          fabric_dir=tmp_path)
        store = ResultStore(tmp_path / "store")
        grouped = SweepSpec(body=split_body, seed=11, configs=configs)
        ungrouped = SweepSpec(body=split_body, seed=11, configs=configs,
                              group=False)
        assert grouped.store_keys(store) == ungrouped.store_keys(store)
        assert store.missing(grouped.store_keys(store)) == []  # must hit

    def test_changed_prefix_function_misses_cache(self, tmp_path):
        configs = _configs(per_group=2)
        Campaign(split_body, seed=11).run(configs, fabric_dir=tmp_path)
        store = ResultStore(tmp_path / "store")
        drawing = SweepSpec(body=drawing_body, seed=11, configs=configs)
        assert store.missing(drawing.store_keys(store)) \
            == list(range(len(configs)))


class TestOracleAndErrors:
    def test_grouped_oracle_verdicts_match_cold(self):
        from repro.oracle import Invariant

        class Odd(Invariant):
            code = "TEST-ODD"

            def __init__(self):
                self.count = 0

            def observe(self, entry):
                if entry.kind == "pulse":
                    self.count += 1

            def finish(self):
                if self.count % 2:
                    self.fail("odd pulse count", t=0.0)

        # module-level factory not needed: serial path only
        def pack():
            return [Odd()]

        campaign = Campaign(split_body, seed=11)
        configs = _configs()
        cold = campaign.run(configs, group=False, oracle=pack)
        grouped = campaign.run(configs, oracle=pack)
        assert ([[v.code for v in (r.violations or [])] for r in grouped]
                == [[v.code for v in (r.violations or [])] for r in cold])

    def test_continuation_error_names_global_index(self, tmp_path):
        body = PrefixedBody(warm_prefix, exploding_continue, key=group_key)
        campaign = Campaign(body, seed=11)
        with pytest.raises(RuntimeError, match="boom"):
            campaign.run(_configs(), journal=tmp_path / "j.jsonl")
        replay = replay_journal(tmp_path / "j.jsonl")
        assert replay.of(K.CAMPAIGN_WORKER_ERROR)
        assert replay.last(K.CAMPAIGN_END).get("status") == "failed"


def exploding_continue(env, state, config):
    if config["extra"] == 1.0:
        raise RuntimeError("boom")
    return noisy_continue(env, state, config)
