"""Parallel campaign sweeps are byte-identical to serial ones.

``Campaign.run(configs, workers=N)`` fans configurations out to worker
processes, but per-config seed derivation means each run is independent
of scheduling: results, traces, and ordering must be exactly what the
serial path produces.  Rows a campaign directory's store already holds
are not run again, and a key that changes with the seed, the config or
the body misses.
"""

import pytest

from repro.core.fabric.spec import SweepSpec
from repro.core.orchestrator import Campaign, ResultStore, run_one
from tests.fabric.rig import campaign_ends


class _Ticker:
    """Self-rescheduling callback as a callable class, not a closure,
    so the Campaign body passes the SC1xx determinism precheck."""

    def __init__(self, env, dist, events):
        self.env = env
        self.dist = dist
        self.events = events
        self.fired = 0
        self.acc = 0.0

    def __call__(self):
        self.fired += 1
        self.acc += self.dist.dst_uniform(0.0, 1.0)
        if self.fired < self.events:
            self.env.scheduler.schedule(
                self.dist.dst_exponential(10.0), self)


def sweep_body(env, config):
    """Module-level (hence picklable) campaign body: a seeded timer chain."""
    dist = env.dist("sweep", config["profile"])
    ticker = _Ticker(env, dist, config["events"])
    env.scheduler.schedule(0.0, ticker)
    final = env.run_until_quiet()
    env.trace.record("sweep.done", fired=ticker.fired)
    return {"fired": ticker.fired, "acc": round(ticker.acc, 9),
            "final": round(final, 9)}


def _sweep_configs(count=6, events=200):
    return [{"profile": f"vendor{i}", "events": events} for i in range(count)]


class TestParallelCampaign:
    def test_workers_match_serial_exactly(self):
        campaign = Campaign(sweep_body, seed=7)
        configs = _sweep_configs()
        serial = campaign.run(configs)
        parallel = campaign.run(configs, workers=4)
        assert [r.config for r in parallel] == [r.config for r in serial]
        assert [r.result for r in parallel] == [r.result for r in serial]
        assert ([list(r.trace) for r in parallel]
                == [list(r.trace) for r in serial])

    def test_order_follows_input_not_completion(self):
        campaign = Campaign(sweep_body, seed=7)
        # uneven workloads: later configs finish first if order leaked
        configs = [{"profile": "slow", "events": 500},
                   {"profile": "fast", "events": 10},
                   {"profile": "faster", "events": 5}]
        results = campaign.run(configs, workers=3)
        assert [r.config["profile"] for r in results] == [
            "slow", "fast", "faster"]

    def test_workers_one_is_serial_path(self):
        campaign = Campaign(sweep_body, seed=7)
        configs = _sweep_configs(count=3, events=50)
        assert ([r.result for r in campaign.run(configs, workers=1)]
                == [r.result for r in campaign.run(configs)])

    def test_single_config_skips_pool(self):
        campaign = Campaign(sweep_body, seed=7)
        results = campaign.run(_sweep_configs(count=1), workers=4)
        assert len(results) == 1
        assert results[0].result["fired"] == 200

    def test_unpicklable_body_rejected_with_clear_error(self):
        campaign = Campaign(lambda env, config: None, seed=7)
        with pytest.raises(TypeError, match="picklable"):
            campaign.run(_sweep_configs(count=2), workers=2)

    def test_unpicklable_body_still_runs_serially(self):
        campaign = Campaign(lambda env, config: config["events"], seed=7)
        results = campaign.run(_sweep_configs(count=2, events=5))
        assert [r.result for r in results] == [5, 5]


def failing_body(env, config):
    raise RuntimeError(f"boom in {config['profile']}")


class TestParallelErrors:
    def test_worker_exception_propagates(self):
        campaign = Campaign(failing_body, seed=7)
        with pytest.raises(RuntimeError, match="boom in vendor0"):
            campaign.run(_sweep_configs(count=2, events=1), workers=2)


class TestChunkedDispatch:
    def test_many_configs_few_workers_ordered(self):
        # more configs than workers forces multi-config chunks; input
        # order and per-config results must be untouched
        campaign = Campaign(sweep_body, seed=7)
        configs = _sweep_configs(count=13, events=20)
        serial = campaign.run(configs)
        parallel = campaign.run(configs, workers=2)
        assert [r.result for r in parallel] == [r.result for r in serial]
        assert [r.config["profile"] for r in parallel] == [
            f"vendor{i}" for i in range(13)]

    def test_chunk_failure_names_global_index(self):
        campaign = Campaign(picky_body, seed=7)
        configs = _sweep_configs(count=8, events=1)
        with pytest.raises(RuntimeError, match="boom in vendor5") as info:
            campaign.run(configs, workers=2)
        notes = getattr(info.value, "__notes__", [])
        assert any("campaign config [5]" in note for note in notes)


class TestAutoWorkers:
    def test_auto_small_sweep_is_serial(self):
        campaign = Campaign(sweep_body, seed=7)
        results = campaign.run(_sweep_configs(count=2, events=10),
                               workers="auto")
        assert [r.result["fired"] for r in results] == [10, 10]

    def test_auto_matches_serial_results(self):
        campaign = Campaign(sweep_body, seed=7)
        configs = _sweep_configs(count=6, events=30)
        assert ([r.result for r in campaign.run(configs, workers="auto")]
                == [r.result for r in campaign.run(configs)])

    def test_bad_workers_value_rejected(self, tmp_path):
        # on every backend, before the campaign directory is touched
        campaign = Campaign(sweep_body, seed=7)
        for backend in ("local", "sockets"):
            for workers in ("turbo", 0, -1):
                with pytest.raises(ValueError, match=">= 1 or \"auto\""):
                    campaign.run(_sweep_configs(count=2), workers=workers,
                                 backend=backend, fabric_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


def _counts(fabric_dir):
    """(executed, cached) of a campaign directory's last attempt."""
    end = campaign_ends(fabric_dir)[-1]
    return end["executed"], end["cached"]


def _stored(fabric_dir, seed, configs):
    """Sweep ``configs`` through a campaign directory; its store."""
    Campaign(sweep_body, seed=seed).run(configs, fabric_dir=fabric_dir)
    return ResultStore(fabric_dir / "store")


def _missing(store, body, seed, configs):
    """Indices of ``configs`` the store holds no row for under ``body``
    and ``seed`` (what a sweep of them would execute)."""
    spec = SweepSpec(body=body, seed=seed, configs=configs)
    return store.missing(spec.store_keys(store))


class TestRunCache:
    def test_second_sweep_hits_cache(self, tmp_path):
        campaign = Campaign(sweep_body, seed=7)
        configs = _sweep_configs(count=3, events=25)
        first = campaign.run(configs, fabric_dir=tmp_path)
        assert _counts(tmp_path) == (3, 0)
        second = campaign.run(configs, fabric_dir=tmp_path)
        assert _counts(tmp_path) == (0, 3)
        assert [r.result for r in second] == [r.result for r in first]
        assert ([list(r.trace) for r in second]
                == [list(r.trace) for r in first])

    def test_seed_change_misses(self, tmp_path):
        configs = _sweep_configs(count=2, events=10)
        store = _stored(tmp_path, 7, configs)
        assert _missing(store, sweep_body, 7, configs) == []
        assert _missing(store, sweep_body, 8, configs) == [0, 1]

    def test_config_change_misses(self, tmp_path):
        store = _stored(tmp_path, 7, _sweep_configs(count=1, events=10))
        assert _missing(store, sweep_body, 7,
                        _sweep_configs(count=1, events=11)) == [0]

    def test_body_identity_in_key(self, tmp_path):
        configs = _sweep_configs(count=1, events=10)
        store = _stored(tmp_path, 7, configs)
        # a different body with the same config/seed must not hit
        assert _missing(store, other_body, 7, configs) == [0]

    def test_cached_parallel_mixed_with_fresh(self, tmp_path):
        # half the sweep stored, half fresh, fresh half parallel:
        # results must still come back complete and in input order
        configs = _sweep_configs(count=6, events=15)
        store = ResultStore(tmp_path / "store")
        keys = SweepSpec(body=sweep_body, seed=7,
                         configs=configs).store_keys(store)
        for index in range(3):
            store.put(keys[index], run_one(sweep_body, 7, configs[index]))
        campaign = Campaign(sweep_body, seed=7)
        results = campaign.run(configs, workers=2, fabric_dir=tmp_path)
        assert _counts(tmp_path) == (3, 3)
        assert [r.config["profile"] for r in results] == [
            f"vendor{i}" for i in range(6)]
        uncached = campaign.run(configs)
        assert [r.result for r in results] == [r.result for r in uncached]


def picky_body(env, config):
    if config["profile"] == "vendor5":
        raise RuntimeError("boom in vendor5")
    return config["profile"]


def other_body(env, config):
    return {"different": True}
