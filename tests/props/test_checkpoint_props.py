"""The checkpoint engine's contract: forked continuations are
byte-identical to cold replays.

Every property here compares a run that forked a warmed prefix
checkpoint against the same configuration replayed cold from t=0 --
trace (canonically dumped, volatile message uids excluded), run result,
and oracle verdicts all have to match exactly, across every TCP vendor
profile and GMP bug variant.  This equality is what licenses the
fuzzer, the shrinker and the explorer to substitute forks for cold
starts: they are not approximations of the old behavior, they *are*
the old behavior, reached faster.
"""

import copy
import random

import pytest

from repro.analysis.export import VOLATILE_ATTRS, dump_trace
from repro.core.checkpoint import Checkpoint
from repro.core.distributions import DistributionSet
from repro.core.orchestrator import make_env
from repro.oracle import evaluate
from repro.oracle.fuzz import (GMP_VARIANTS, _continue_body, _gmp_prefix,
                               _tcp_prefix, fuzz_body, pack_for, run_fuzz)
from repro.oracle.grammar import generate_script
from repro.tcp import VENDORS


def canon(trace) -> str:
    return dump_trace(trace, exclude_attrs=VOLATILE_ATTRS)


def _config(protocol: str, target: str, depth: float, index: int = 0):
    script = generate_script(random.Random(index), protocol, index=index)
    return {"protocol": protocol, "target": target,
            "script": script.source, "init_script": script.init,
            "direction": script.direction, "install_at": depth}


def _cold(config, seed: int):
    env = make_env(seed=seed)
    result = fuzz_body(env, config)
    return env, result


def _forked(config, seed: int, depth: float):
    env = make_env(seed=seed)
    prefix = (_tcp_prefix if config["protocol"] == "tcp"
              else _gmp_prefix)
    roots = prefix(env, config, depth)
    checkpoint = Checkpoint.capture(env, roots)
    forked = checkpoint.fork()
    result = _continue_body(forked.env, forked.roots, dict(config))
    return forked.env, result


def _assert_identical(config, seed: int, depth: float, oracle):
    cold_env, cold_result = _cold(config, seed)
    fork_env, fork_result = _forked(config, seed, depth)
    assert fork_result == cold_result
    assert canon(fork_env.trace) == canon(cold_env.trace)
    cold_verdict = evaluate(cold_env.trace, oracle()).violations
    fork_verdict = evaluate(fork_env.trace, oracle()).violations
    assert ([v.fingerprint() for v in fork_verdict]
            == [v.fingerprint() for v in cold_verdict])


@pytest.mark.parametrize("vendor", sorted(VENDORS))
def test_tcp_fork_byte_identical_to_cold(vendor):
    # depth 5.0 checkpoints mid-stream: handshake done, segments and
    # their retransmission timers in flight
    config = _config("tcp", vendor, 5.0)
    _assert_identical(config, seed=42, depth=5.0,
                      oracle=pack_for("tcp"))


@pytest.mark.parametrize("variant", GMP_VARIANTS + ("fixed",))
def test_gmp_fork_byte_identical_to_cold(variant):
    config = _config("gmp", variant, 8.0, index=1)
    _assert_identical(config, seed=7, depth=8.0,
                      oracle=pack_for("gmp"))


def test_reseeded_fork_matches_cold_run_of_that_seed():
    # one captured prefix serves many run seeds: fork(seed=s) must land
    # byte-identically on the cold run under s, for every s
    config = _config("gmp", "self_death", 8.0)
    env = make_env(seed=0)
    roots = _gmp_prefix(env, config, 8.0)
    checkpoint = Checkpoint.capture(env, roots)
    for seed in (0, 7, 123456789):
        forked = checkpoint.fork(seed=seed)
        fork_result = _continue_body(forked.env, forked.roots,
                                     dict(config))
        cold_env, cold_result = _cold(config, seed)
        assert fork_result == cold_result, seed
        assert canon(forked.env.trace) == canon(cold_env.trace), seed


def test_fork_determinism_fork_vs_fork():
    config = _config("gmp", "inverted_timer", 8.0)
    env = make_env(seed=5)
    roots = _gmp_prefix(env, config, 8.0)
    checkpoint = Checkpoint.capture(env, roots)

    def run_one():
        forked = checkpoint.fork()
        _continue_body(forked.env, forked.roots, dict(config))
        return canon(forked.env.trace)

    def wreck_one():
        # a fork may do anything to its own world
        forked = checkpoint.fork()
        for event in forked.env.scheduler.pending_events():
            event.cancel()
        forked.env.trace.clear()
        forked.env.dists.clear()
        forked.env.network.__dict__.clear()
        for daemon in forked["cluster"].daemons.values():
            daemon.__dict__.clear()
        forked["cluster"].__dict__.clear()

    first = run_one()
    for _ in range(19):
        wreck_one()
        assert run_one() == first


# ----------------------------------------------------------------------
# RNG stream restore determinism
# ----------------------------------------------------------------------

def test_distribution_deepcopy_resumes_mid_stream():
    stream = DistributionSet(5, labels=("a",))
    consumed = [stream.dst_uniform(0, 1) for _ in range(3)]
    clone = copy.deepcopy(stream)
    assert clone.draws == stream.draws == 3
    assert clone.labels == ("a",) and clone.seed == 5
    # both continue the stream identically, independently
    assert [clone.dst_uniform(0, 1) for _ in range(5)] \
        == [stream.dst_uniform(0, 1) for _ in range(5)]
    assert consumed  # the prefix draws were real


def test_distribution_reseed_restarts_stream():
    stream = DistributionSet(5)
    first = stream.dst_normal(0, 1)
    stream.dst_normal(0, 1)
    stream.reseed(5)
    assert stream.draws == 0
    assert stream.dst_normal(0, 1) == first


def test_link_deepcopy_shares_rng_state():
    from repro.netsim.link import Link
    from repro.netsim.scheduler import Scheduler
    sched = Scheduler()
    link = Link(sched, lambda payload: None, jitter=0.01,
                rng=random.Random(3))
    for _ in range(4):
        link.send(b"x")
    clone = copy.deepcopy(link)
    assert clone.rng_draws == link.rng_draws == 4
    assert clone._rng.getstate() == link._rng.getstate()
    assert clone._rng is not link._rng


# ----------------------------------------------------------------------
# consumer equivalence: fuzzing and shrinking
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def fuzz_pair():
    legacy = run_fuzz("gmp", seed=3, budget=12)
    engine = run_fuzz("gmp", seed=3, budget=12, checkpoint_depth=8.0)
    return legacy, engine


def test_run_fuzz_engine_reports_match_legacy(fuzz_pair):
    legacy, engine = fuzz_pair
    assert engine.executed == legacy.executed
    assert engine.coverage == legacy.coverage
    assert [c.script.name for c in engine.corpus] \
        == [c.script.name for c in legacy.corpus]
    assert [(f.case.script.name, f.codes, f.violation_count)
            for f in engine.findings] \
        == [(f.case.script.name, f.codes, f.violation_count)
            for f in legacy.findings]


def test_run_fuzz_engine_reports_speed_and_hit_rate(fuzz_pair):
    _legacy, engine = fuzz_pair
    assert engine.checkpoint_depth == 8.0
    assert engine.trials_per_sec > 0
    # 12 trials over at most 4 targets: most trials reuse a capture
    assert engine.checkpoint_hit_rate is not None
    assert engine.checkpoint_hit_rate >= 0.5
    assert "checkpointed @ depth 8" in engine.render()


def test_shrink_probes_checkpointed_equals_cold(fuzz_pair):
    from repro.oracle.shrink import shrink_case
    legacy, _engine = fuzz_pair
    finding = legacy.findings[0]
    code = finding.codes[0]
    warm, warm_stats = shrink_case(finding.case, code, campaign_seed=3,
                                   checkpoint=True)
    cold, cold_stats = shrink_case(finding.case, code, campaign_seed=3,
                                   checkpoint=False)
    assert warm.script.source == cold.script.source
    assert warm.case_seed == cold.case_seed
    assert warm_stats.runs == cold_stats.runs
    assert warm_stats.clauses_after == cold_stats.clauses_after
