"""Checkpoint fork vs cold start: the prefix-sharing speedup.

The checkpoint engine (``repro.core.checkpoint``) exists so N trials
that share a warmed-up prefix cost one warmup plus N continuations
instead of N full runs.  This bench measures that on the heaviest
standard rig: a five-machine GMP group warmed almost to the fuzz
horizon, each trial installing a heartbeat-dropping tclish filter and
running the last stretch with the GMP invariant pack as the verdict --
script install and oracle evaluation are inside the timed region for
both paths, so the speedup is end-to-end, not fork-vs-copy.

Correctness is asserted, not assumed: every forked continuation's
canonical trace dump (volatile message uids excluded, see
``VOLATILE_ATTRS``) must be byte-identical to the cold run's.

The workload is serial and deterministic -- no worker pools, no
CPU-count dependence -- so it gates directly in CI (>= 3x fork vs
cold, >= 2x grouped sweep vs ungrouped serial) and prints its numbers::

    PYTHONPATH=src python benchmarks/bench_perf_fork.py [--quick]
"""

from __future__ import annotations

import argparse
import gc
import time

from repro.analysis.export import VOLATILE_ATTRS, dump_trace
from repro.core import TclishFilter
from repro.core.checkpoint import Checkpoint
from repro.core.orchestrator import Campaign, PrefixedBody, make_env
from repro.experiments.gmp_common import build_gmp_cluster
from repro.oracle import evaluate
from repro.oracle.fuzz import pack_for

WORLD = [1, 2, 3, 4, 5]
DEPTH = 28.0
HORIZON = 30.0
TARGET = 3
SCRIPT = 'if {[msg_type cur_msg] eq "HEARTBEAT"} { xDrop cur_msg }'

MIN_SPEEDUP = 3.0
#: grouped Campaign.run over ungrouped serial; lower than the raw fork
#: gate because the sweep pays one capture plus per-run scheduling
MIN_CAMPAIGN_SPEEDUP = 2.0


def _prefix(seed: int = 0):
    """Warm a five-machine group to DEPTH; returns (env, cluster)."""
    env = make_env(seed=seed)
    cluster = build_gmp_cluster(WORLD, env=env)
    cluster.start()
    env.run_until(DEPTH)
    return env, cluster


def _continuation(env, cluster, oracle):
    """The per-trial tail: install the filter, run out, judge."""
    script = TclishFilter(SCRIPT, name="bench_fork")
    cluster.pfis[TARGET].set_send_filter(script)
    env.run_until(HORIZON)
    evaluate(env.trace, oracle()).violations
    return env.trace


def run_bench(trials: int = 30, verbose: bool = True) -> dict:
    """Measure cold vs capture-once-fork-N; returns the figures."""
    oracle = pack_for("gmp")

    # warm up both paths untimed (imports, tclish compile cache); the
    # first capture otherwise pays ~10x
    env, cluster = _prefix()
    warm = Checkpoint.capture(env, {"cluster": cluster}, label="warmup")
    forked = warm.fork()
    _continuation(forked.env, forked["cluster"], oracle)

    # dumping a trace for verification costs more than running the
    # continuation it checks, so each trial is timed individually and
    # the canonical dump happens off the clock -- which also releases
    # each trial's world before the next one runs.  The collector is
    # paused inside timed sections: a gen-2 sweep triggered by dump
    # garbage would otherwise land on whichever trial allocates next
    def canon(trace):
        return dump_trace(trace, exclude_attrs=VOLATILE_ATTRS)

    def timed(fn):
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        gc.enable()
        return result, elapsed

    cold_s = 0.0
    cold_dumps = []
    for _ in range(trials):
        (env_cluster), elapsed = timed(lambda: _prefix())
        trace, tail = timed(
            lambda: _continuation(*env_cluster, oracle))
        cold_s += elapsed + tail
        cold_dumps.append(canon(trace))

    (env, cluster), _ = timed(lambda: _prefix())
    checkpoint, capture_s = timed(
        lambda: Checkpoint.capture(env, {"cluster": cluster},
                                   label=f"bench/gmp@{DEPTH:g}"))

    fork_s = 0.0
    fork_dumps = []
    for _ in range(trials):
        def one_trial():
            forked = checkpoint.fork()
            return _continuation(forked.env, forked["cluster"], oracle)
        trace, elapsed = timed(one_trial)
        fork_s += elapsed
        fork_dumps.append(canon(trace))

    identical = all(dump == cold_dumps[0]
                    for dump in cold_dumps[1:] + fork_dumps)
    forked_total = capture_s + fork_s
    payload = {
        "world": len(WORLD),
        "depth": DEPTH,
        "horizon": HORIZON,
        "trials": trials,
        "cold_seconds": round(cold_s, 4),
        "capture_seconds": round(capture_s, 4),
        "fork_seconds": round(fork_s, 4),
        "cold_ms_per_trial": round(cold_s / trials * 1e3, 3),
        "fork_ms_per_trial": round(fork_s / trials * 1e3, 3),
        "speedup": round(cold_s / forked_total, 2),
        "byte_identical": identical,
    }
    if verbose:
        print(f"checkpoint fork: {len(WORLD)}-machine GMP group, "
              f"depth {DEPTH:g} of {HORIZON:g}, {trials} trials")
        print(f"  cold   : {cold_s:8.3f}s "
              f"({payload['cold_ms_per_trial']:.2f} ms/trial)")
        print(f"  forked : {forked_total:8.3f}s "
              f"(capture {capture_s * 1e3:.1f} ms + "
              f"{payload['fork_ms_per_trial']:.2f} ms/trial)")
        print(f"  speedup: {payload['speedup']:.2f}x")
        print(f"  forked continuations byte-identical to cold: {identical}")
    return payload


# ----------------------------------------------------------------------
# campaign prefix-sharing: grouped sweep vs ungrouped serial
# ----------------------------------------------------------------------

def _campaign_prefix(env, config):
    """The sweep's shared warm prefix: the 5-machine group at DEPTH."""
    cluster = build_gmp_cluster(WORLD, env=env)
    cluster.start()
    env.run_until(DEPTH)
    return {"cluster": cluster}


def _campaign_continue(env, state, config):
    """Per-config tail: arm the heartbeat-drop filter, run out."""
    script = TclishFilter(SCRIPT, name=f"bench_prefix_{config['case']}")
    state["cluster"].pfis[TARGET].set_send_filter(script)
    env.run_until(HORIZON)
    return {"case": config["case"]}


def _campaign_key(config):
    return f"gmp{len(WORLD)}@{DEPTH:g}"


campaign_body = PrefixedBody(_campaign_prefix, _campaign_continue,
                             key=_campaign_key)


def run_campaign_bench(configs: int = 20, verbose: bool = True) -> dict:
    """Grouped ``Campaign.run`` vs the same sweep forced cold, serially.

    This is the whole-sweep view of the fork speedup above: one prefix
    group of ``configs`` configurations, single worker, oracle verdicts
    computed in both paths.  Canonical traces are asserted byte-
    identical pairwise before any number is reported.
    """
    oracle = pack_for("gmp")
    sweep = [{"case": case} for case in range(configs)]

    # untimed warmup (imports, tclish compile cache)
    Campaign(campaign_body, seed=0).run(sweep[:1], group=False,
                                        telemetry=False)

    def canon(trace):
        return dump_trace(trace, exclude_attrs=VOLATILE_ATTRS)

    def timed(fn):
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        gc.enable()
        return result, elapsed

    campaign = Campaign(campaign_body, seed=0)
    cold, cold_s = timed(lambda: campaign.run(
        sweep, group=False, telemetry=False, oracle=oracle))
    grouped, grouped_s = timed(lambda: campaign.run(
        sweep, telemetry=False, oracle=oracle))

    identical = all(
        canon(g.trace) == canon(c.trace)
        and g.result == c.result
        and [v.fingerprint() for v in (g.violations or [])]
        == [v.fingerprint() for v in (c.violations or [])]
        for g, c in zip(grouped, cold))
    payload = {
        "world": len(WORLD),
        "depth": DEPTH,
        "horizon": HORIZON,
        "configs": configs,
        "ungrouped_seconds": round(cold_s, 4),
        "grouped_seconds": round(grouped_s, 4),
        "ungrouped_ms_per_config": round(cold_s / configs * 1e3, 3),
        "grouped_ms_per_config": round(grouped_s / configs * 1e3, 3),
        "speedup": round(cold_s / grouped_s, 2),
        "byte_identical": identical,
    }
    if verbose:
        print(f"campaign prefix sharing: {configs} configs, one "
              f"{len(WORLD)}-machine GMP prefix group at depth {DEPTH:g}")
        print(f"  ungrouped: {cold_s:8.3f}s "
              f"({payload['ungrouped_ms_per_config']:.2f} ms/config)")
        print(f"  grouped  : {grouped_s:8.3f}s "
              f"({payload['grouped_ms_per_config']:.2f} ms/config)")
        print(f"  speedup  : {payload['speedup']:.2f}x")
        print(f"  grouped runs byte-identical to ungrouped: {identical}")
    return payload


def test_perf_fork_quick():
    """CI smoke: forked continuations must replay byte-identically."""
    payload = run_bench(trials=2, verbose=False)
    assert payload["byte_identical"], payload


def test_perf_campaign_prefix_quick():
    """CI smoke: grouped sweeps must match ungrouped byte-for-byte."""
    payload = run_campaign_bench(configs=3, verbose=False)
    assert payload["byte_identical"], payload


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="fewer trials, no speed gate")
    parser.add_argument("--trials", type=int, default=30)
    parser.add_argument("--configs", type=int, default=20)
    args = parser.parse_args()
    result = run_bench(trials=3 if args.quick else args.trials)
    assert result["byte_identical"], result
    sweep_result = run_campaign_bench(
        configs=4 if args.quick else args.configs)
    assert sweep_result["byte_identical"], sweep_result
    if not args.quick:
        assert result["speedup"] >= MIN_SPEEDUP, result
        assert sweep_result["speedup"] >= MIN_CAMPAIGN_SPEEDUP, sweep_result
