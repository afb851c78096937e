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
import hashlib
import random

import pytest

from repro.analysis.export import VOLATILE_ATTRS, dump_trace
from repro.core.checkpoint import Checkpoint
from repro.core.distributions import DistributionSet
from repro.core.orchestrator import make_env
from repro.oracle import evaluate
from repro.core.checkpoint import CheckpointPool
from repro.oracle.fuzz import (DEFAULT_DEPTHS, GMP_VARIANTS, FuzzCase,
                               _continue_body, _gmp_prefix, _tcp_prefix,
                               execute_configs, pack_for,
                               prefixed_fuzz_body, run_case, run_fuzz)
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
    result = prefixed_fuzz_body(env, config)
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

#: what the *cold* ``run_fuzz`` reported at bd80511, the last commit
#: that had one (a cold ``Campaign.run`` per batch, nothing forked):
#: (protocol, seed, budget) -> executed, coverage keys, coverage digest,
#: corpus names, (name, codes, violation count) per finding.  gmp seeds
#: 2 and 3 die at larger budgets on the ``TclError ... 'group_id'`` bug.
COLD_SESSIONS = {
    ("gmp", 0, 24): (
        24, 34, "9a17525cc1d2573e",
        ["fuzz_gmp_0000", "fuzz_gmp_0002", "fuzz_gmp_0004", "fuzz_gmp_0005",
         "fuzz_gmp_0013", "fuzz_gmp_0016"],
        [("fuzz_gmp_0002", ["GMP-SELF-DEATH"], 20),
         ("fuzz_gmp_0010", ["GMP-SELF-DEATH"], 20),
         ("fuzz_gmp_0013", ["GMP-TIMER"], 2),
         ("fuzz_gmp_0015", ["GMP-SELF-DEATH"], 38),
         ("fuzz_gmp_0017", ["GMP-SELF-DEATH"], 44),
         ("fuzz_gmp_0023", ["GMP-TIMER"], 2)]),
    ("gmp", 1, 24): (
        24, 35, "9e6cbad63fedd4a8",
        ["fuzz_gmp_0000", "fuzz_gmp_0002", "fuzz_gmp_0004", "fuzz_gmp_0005",
         "fuzz_gmp_0007", "fuzz_gmp_0012", "fuzz_gmp_0016"],
        [("fuzz_gmp_0012", ["GMP-TIMER"], 2),
         ("fuzz_gmp_0016", ["GMP-VIEW-ORDER"], 1),
         ("fuzz_gmp_0018", ["GMP-TIMER"], 2)]),
    ("gmp", 3, 12): (
        12, 33, "ae2ebe5059e2d051",
        ["fuzz_gmp_0000", "fuzz_gmp_0001", "fuzz_gmp_0007", "fuzz_gmp_0008"],
        [("fuzz_gmp_0000", ["GMP-TIMER"], 3),
         ("fuzz_gmp_0007", ["GMP-SELF-DEATH"], 50)]),
    ("tcp", 0, 24): (
        24, 20, "a24bbc3fe33b7ecd",
        ["fuzz_tcp_0000", "fuzz_tcp_0003", "fuzz_tcp_0004", "fuzz_tcp_0020",
         "fuzz_tcp_0022"],
        []),
    ("tcp", 1, 24): (
        24, 18, "416e85854d78471f",
        ["fuzz_tcp_0000", "fuzz_tcp_0001", "fuzz_tcp_0002", "fuzz_tcp_0006",
         "fuzz_tcp_0012", "fuzz_tcp_0016"],
        []),
}


def _coverage_digest(coverage) -> str:
    text = "\n".join(sorted(map(repr, coverage)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def sessions():
    return {(protocol, seed, budget): run_fuzz(protocol, seed=seed,
                                                budget=budget)
            for protocol, seed, budget in COLD_SESSIONS}


def test_run_fuzz_engine_reports_match_legacy(sessions):
    for session, report in sessions.items():
        assert (report.executed, len(report.coverage),
                _coverage_digest(report.coverage),
                [c.script.name for c in report.corpus],
                [(f.case.script.name, f.codes, f.violation_count)
                 for f in report.findings]) == COLD_SESSIONS[session]
        # and what the session saw forked is what a cold replay of the
        # finding (the path artifacts are frozen and replayed on) sees
        _protocol, seed, _budget = session
        pool = CheckpointPool()
        for finding in report.findings:
            cold = run_case(finding.case, campaign_seed=seed).violations
            assert len(cold) == finding.violation_count
            assert cold[0].fingerprint() == finding.example.fingerprint()
            [row], _captures = execute_configs(
                [finding.case.config()], seed=seed, pool=pool)
            assert row.forked
            assert ([v.fingerprint() for v in row.result.violations]
                    == [v.fingerprint() for v in cold])


def test_run_fuzz_engine_reports_speed_and_hit_rate(sessions):
    for (protocol, _seed, _budget), report in sessions.items():
        depth = DEFAULT_DEPTHS[protocol]
        assert report.checkpoint_depth == depth
        assert report.trials_per_sec > 0
        # at most 4 targets: most trials reuse a capture
        assert report.checkpoint_hit_rate >= 0.5
        assert f"checkpointed @ depth {depth:g}" in report.render()


def test_shrink_probes_checkpointed_equals_cold(sessions):
    """``shrink_case`` (every probe a fork) against the same reduction
    driven here by a predicate on the cold ``run_case``."""
    from repro.oracle.shrink import SEED_CANDIDATES, ddmin, shrink_case
    finding = sessions["gmp", 3, 12].findings[0]
    code = finding.codes[0]
    warm, stats = shrink_case(finding.case, code, campaign_seed=3)

    runs = 0

    def violates(script, case_seed=finding.case.case_seed):
        nonlocal runs
        runs += 1
        case = FuzzCase(script=script, target=finding.case.target,
                        case_seed=case_seed)
        return code in {v.code for v in
                        run_case(case, campaign_seed=3).violations}

    def shrunk_to(clauses):
        return finding.case.script.with_clauses(
            clauses, name=f"{finding.case.script.name}_min")

    assert violates(finding.case.script)
    cold = shrunk_to(ddmin(finding.case.script.clauses,
                           lambda clauses: violates(shrunk_to(clauses))))
    cold_seed = next((seed for seed in SEED_CANDIDATES
                      if violates(cold, seed)), finding.case.case_seed)
    assert warm.script.source == cold.source
    assert warm.case_seed == cold_seed
    assert stats.runs == runs
    assert stats.clauses_after == len(cold.clauses)
