"""Observability overhead: the hooks must be free when nobody watches.

The PR that added ``repro.obs`` threads instrumentation through every
layer -- metrics counter handles in the PFI data path, a profiler test in
the tclish compiled executor, telemetry capture around ``Campaign.run``.
The design contract is *zero cost when disabled*: hooks are pre-bound
handles and ``is not None`` tests, never per-event allocation.

This bench holds the contract numerically.  It runs one timer-chain
campaign workload three ways:

- **baseline**: ``telemetry=False`` -- the pre-observability execution
  path;
- **disabled**: defaults -- every hook present, no profiler attached
  (what normal runs pay);
- **enabled**: filters installed with PFI tracing active plus an attached
  script profiler (what debugging runs pay).

Each mode is measured best-of-``repeats`` interleaved, so CPU drift hits
every mode equally.  The headline number is ``disabled_overhead_pct``,
asserted under ``MAX_DISABLED_OVERHEAD_PCT`` (3%, with slack for timer
noise on tiny quick runs).  Results land in ``BENCH_OBS.json``.

The campaign flight recorder (``repro.obs.journal``) added a fourth
mode -- **journal**: the default path plus an attached JSONL journal,
one appended event per run.  Its overhead over the default path is the
``journal_overhead_pct`` section, gated at
``MAX_JOURNAL_OVERHEAD_PCT`` (3%): journaling must stay cheap enough
to leave on for every long sweep.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

from repro.core.orchestrator import Campaign

#: acceptance bound: default-path (hooks present, nothing attached)
#: overhead over the telemetry=False baseline
MAX_DISABLED_OVERHEAD_PCT = 3.0

#: acceptance bound: journal-enabled sweep over the default path
MAX_JOURNAL_OVERHEAD_PCT = 3.0

BENCH_OBS_JSON = Path(__file__).resolve().parent.parent / "BENCH_OBS.json"


class _Ticker:
    """Callable timer chain (a closure would trip the SC101 preflight)."""

    def __init__(self, env, dist, target):
        self.env = env
        self.dist = dist
        self.target = target
        self.fired = 0
        self.acc = 0.0

    def __call__(self):
        self.fired += 1
        self.acc += self.dist.dst_uniform(0.0, 1.0)
        if self.fired < self.target:
            self.env.scheduler.schedule(
                self.dist.dst_exponential(50.0), self)


def campaign_body(env, config):
    """A seeded timer chain: scheduler and RNG work, PFI-free."""
    dist = env.dist("load", config["profile"])
    ticker = _Ticker(env, dist, config["events"])
    env.scheduler.schedule(0.0, ticker)
    final_time = env.run_until_quiet()
    return {"fired": ticker.fired, "acc": round(ticker.acc, 9),
            "final_time": round(final_time, 9)}


def _make_pfi_env(env):
    from repro.core.pfi import PFILayer
    from repro.core.stubs import PacketStubs
    from repro.xkernel.protocol import Protocol
    from repro.xkernel.stack import ProtocolStack

    stubs = PacketStubs()
    stubs.register_recognizer(lambda m: m.meta.get("type", "DATA"))

    class Sink(Protocol):
        def __init__(self, name):
            super().__init__(name)

        def push(self, msg):
            pass

        def pop(self, msg):
            pass

    pfi = PFILayer("pfi", env.scheduler, stubs, trace=env.trace,
                   node="bench")
    ProtocolStack().build(Sink("top"), pfi, Sink("bottom"))
    return pfi


class _ObservedTicker:
    """Timer chain that also pushes each event through a PFI layer."""

    def __init__(self, env, dist, target, pfi):
        self.env = env
        self.dist = dist
        self.target = target
        self.pfi = pfi
        self.fired = 0
        self.acc = 0.0

    def __call__(self):
        from repro.xkernel.message import Message
        self.fired += 1
        self.acc += self.dist.dst_uniform(0.0, 1.0)
        self.pfi.push(Message(b"x", meta={"type": "DATA"}))
        if self.fired < self.target:
            self.env.scheduler.schedule(
                self.dist.dst_exponential(50.0), self)


def observed_body(env, config):
    """Timer chain where every event also pushes a message through a
    PFI layer running a profiled tclish filter: the all-hooks-on path."""
    from repro.core.script import TclishFilter

    dist = env.dist("load", config["profile"])
    pfi = _make_pfi_env(env)
    script = TclishFilter("set n [expr $n + 1]", init_script="set n 0",
                          name="bench-filter")
    script.enable_profiler()
    pfi.set_send_filter(script)
    ticker = _ObservedTicker(env, dist, config["events"], pfi)
    env.scheduler.schedule(0.0, ticker)
    final_time = env.run_until_quiet()
    return {"fired": ticker.fired, "final_time": round(final_time, 9)}


def _configs(count: int, events: int):
    return [{"profile": f"vendor{i}", "events": events}
            for i in range(count)]


def _measure(campaign, sweep, repeats: int, **run_kwargs) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        campaign.run(sweep, **run_kwargs)
        best = min(best, time.perf_counter() - start)
    return best


def _measure_journaled(campaign, sweep) -> float:
    """One sweep with a fresh journal attached, journal discarded."""
    with tempfile.TemporaryDirectory(prefix="bench-journal-") as tmp:
        path = os.path.join(tmp, "sweep.jsonl")
        start = time.perf_counter()
        campaign.run(sweep, journal=path)
        return time.perf_counter() - start


def run_bench(configs: int = 4, events: int = 20_000, repeats: int = 3,
              verbose: bool = True) -> dict:
    """Measure the three observability modes; returns the JSON payload."""
    sweep = _configs(configs, events)
    bare = Campaign(campaign_body, seed=42)
    observed = Campaign(observed_body, seed=42)

    # interleave so thermal/scheduler drift hits every mode equally
    baseline_s = disabled_s = journal_s = float("inf")
    for _ in range(repeats):
        baseline_s = min(baseline_s,
                         _measure(bare, sweep, 1, telemetry=False))
        disabled_s = min(disabled_s, _measure(bare, sweep, 1))
        journal_s = min(journal_s, _measure_journaled(bare, sweep))
    enabled_s = _measure(observed, sweep, repeats)

    total_events = configs * events
    overhead_pct = (disabled_s - baseline_s) / baseline_s * 100.0
    journal_pct = (journal_s - disabled_s) / disabled_s * 100.0
    payload = {
        "configs": configs,
        "events_per_config": events,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "baseline_seconds": round(baseline_s, 4),
        "disabled_seconds": round(disabled_s, 4),
        "enabled_seconds": round(enabled_s, 4),
        "baseline_events_per_s": round(total_events / baseline_s),
        "disabled_events_per_s": round(total_events / disabled_s),
        "disabled_overhead_pct": round(overhead_pct, 2),
        "max_disabled_overhead_pct": MAX_DISABLED_OVERHEAD_PCT,
        "journal_seconds": round(journal_s, 4),
        "journal_events_per_s": round(total_events / journal_s),
        "journal_overhead_pct": round(journal_pct, 2),
        "max_journal_overhead_pct": MAX_JOURNAL_OVERHEAD_PCT,
    }
    if verbose:
        print(f"obs overhead: {configs} configs x {events} events, "
              f"best of {repeats}")
        print(f"  baseline (telemetry off) : {baseline_s:8.3f}s")
        print(f"  hooks disabled (default) : {disabled_s:8.3f}s "
              f"({overhead_pct:+.2f}%)")
        print(f"  journal attached         : {journal_s:8.3f}s "
              f"({journal_pct:+.2f}% over default)")
        print(f"  fully enabled (pfi+prof) : {enabled_s:8.3f}s")
    return payload


def check(payload: dict) -> None:
    """The acceptance gates: disabled hooks and the attached journal
    must both stay under their bounds."""
    assert payload["disabled_overhead_pct"] < MAX_DISABLED_OVERHEAD_PCT, (
        f"observability hooks cost "
        f"{payload['disabled_overhead_pct']:.2f}% with nothing attached "
        f"(bound: {MAX_DISABLED_OVERHEAD_PCT}%)\n{payload}")
    assert payload["journal_overhead_pct"] < MAX_JOURNAL_OVERHEAD_PCT, (
        f"flight-recorder journal cost "
        f"{payload['journal_overhead_pct']:.2f}% over the default path "
        f"(bound: {MAX_JOURNAL_OVERHEAD_PCT}%)\n{payload}")


def test_obs_overhead_quick():
    """CI smoke: tiny run; noise-prone, so only sanity-check the shape."""
    payload = run_bench(configs=2, events=2_000, repeats=2)
    assert payload["baseline_seconds"] > 0
    assert payload["enabled_seconds"] > 0
    assert payload["journal_seconds"] > 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweep, no JSON update, no gate")
    parser.add_argument("--configs", type=int, default=4)
    parser.add_argument("--events", type=int, default=20_000)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if args.quick:
        run_bench(configs=2, events=2_000, repeats=2)
    else:
        result = run_bench(configs=args.configs, events=args.events,
                           repeats=args.repeats)
        check(result)
        BENCH_OBS_JSON.write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"updated {BENCH_OBS_JSON}")
