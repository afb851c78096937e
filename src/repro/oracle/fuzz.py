"""Coverage-guided fault-scenario fuzzing with the oracle as the verdict.

The loop is classic greybox fuzzing, transplanted to fault injection:

1. draw fault scripts from the grammar (:mod:`repro.oracle.grammar`),
   or mutate scripts already in the corpus;
2. run each batch of cases through the campaign's shard executor
   (:func:`~repro.core.orchestrator.execute_shard`, or ``Campaign.run``
   on the process pool) with the protocol's invariant pack as the
   oracle, every case a fork of its target's pooled warm prefix;
3. keep a case in the corpus when its trace reaches coverage (trace
   kinds, TCP state transitions, GMP message kinds) no earlier case
   reached;
4. report any case whose oracle verdict is non-empty as a *finding*,
   ready for the shrinker (:mod:`repro.oracle.shrink`).

Targets: for TCP the four vendor profiles of the paper; for GMP the
single-bug daemon variants (one historical bug armed at a time, the
rest fixed).  Both are conformant at rest -- the no-false-positive
conformance suite pins that -- so a finding always names a (variant,
script, seed) triple where the injected faults made a latent bug
observable, exactly the paper's probing workflow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple, Union)

from repro.core.checkpoint import CheckpointPool
from repro.core.distributions import derive_seed
from repro.core.fabric.spec import SweepSpec
from repro.core.orchestrator import (PREFIX_STATS, Campaign, PrefixedBody,
                                     RunResult, ShardCapture, ShardRow,
                                     execute_shard)
from repro.netsim import kinds as K
from repro.obs.journal import NULL_JOURNAL, Flight, Journal, NullJournal
from repro.oracle.grammar import (FuzzScript, GrammarLintError,
                                  generate_script, mutate_script, trial_seed)
from repro.oracle.invariants import Violation

#: virtual-time horizon of one fuzz run, per protocol
HORIZONS = {"tcp": 30.0, "gmp": 30.0}

#: GMP runs let the group form before the filter arms, so faults hit a
#: committed view instead of an empty network
GMP_INSTALL_AT = 8.0
GMP_WORLD = (1, 2, 3)
GMP_TARGET = 2

#: GMP single-bug variants the fuzzer explores.  ``reply_to_sender`` is
#: deliberately absent: that daemon already violates GMP-PROCLAIM-REPLY
#: during unfaulted group formation (the forwarding loop needs no help),
#: so as a fuzz target it would make every case a trivial finding -- the
#: known-bug detection tests cover it instead.
GMP_VARIANTS = ("self_death", "forward_param", "inverted_timer")

TCP_SEGMENTS = 10
TCP_SEGMENT_INTERVAL = 0.4

#: default filter-install times, per protocol.  These are where the
#: fuzzed script arms in a stock run -- and therefore also the deepest
#: script-free prefix a checkpoint can reuse across trials.  TCP arms
#: its filter before the handshake (t=0), GMP after group formation.
DEFAULT_DEPTHS = {"tcp": 0.0, "gmp": GMP_INSTALL_AT}


# ----------------------------------------------------------------------
# campaign bodies (module-level: the parallel path needs them picklable)
#
# Each body is split into a *prefix* (everything before the fuzzed
# filter script arms: rig construction plus the script-free warmup) and
# a *continuation* (install the script, run the workload to the
# horizon).  A cold run (:func:`fuzz_body`, :func:`run_case`) is
# prefix+continuation back to back; the shard executor, through
# :data:`prefixed_fuzz_body`, captures one prefix per target and re-runs
# only continuations.  Keeping both on the same two functions is what
# makes forked trials byte-identical to cold ones by construction.
# ----------------------------------------------------------------------

def _gmp_bug_flags(variant: str):
    from repro.gmp import BugFlags, FIXED
    if variant == "fixed":
        return FIXED
    flags = {"self_death": BugFlags(self_death=True),
             "forward_param": BugFlags(proclaim_forward_param=True),
             "reply_to_sender": BugFlags(proclaim_reply_to_sender=True),
             "inverted_timer": BugFlags(inverted_timer_unregister=True)}
    return flags[variant]


def _script_filter(config):
    from repro.core.script import TclishFilter
    return TclishFilter(config["script"], init_script=config["init_script"],
                        name="fuzz")


def _install_filter(pfi, config):
    script = _script_filter(config)
    if config["direction"] == "send":
        pfi.set_send_filter(script)
    else:
        pfi.set_receive_filter(script)


def fuzz_body(env, config):
    """One fuzz case: build the rig, arm the script, run the workload.

    ``config["install_at"]`` (optional) moves the filter-install time;
    absent, the protocol's :data:`DEFAULT_DEPTHS` entry applies and the
    run is identical to what this body always produced.
    """
    return _continue_body(env, _fuzz_prefix(env, config), config)


def _tcp_prefix(env, config, depth):
    """The script-free head of a TCP fuzz run, up to virtual ``depth``.

    At the default depth 0.0 this is rig construction only (the stock
    rig arms its filter before the handshake); deeper prefixes open the
    connection and run the stream schedule up to the install point.
    """
    from repro.experiments.tcp_common import (SERVER_PORT, CLIENT_PORT,
                                              XKERNEL_ADDR,
                                              build_tcp_testbed,
                                              stream_from_vendor)
    from repro.tcp import VENDORS
    testbed = build_tcp_testbed(VENDORS[config["target"]], env=env)
    state = {"testbed": testbed}
    if depth <= 0.0:
        return state
    testbed.xkernel_tcp.listen(SERVER_PORT)
    client = testbed.vendor_tcp.open_connection(
        local_port=CLIENT_PORT, remote_address=XKERNEL_ADDR,
        remote_port=SERVER_PORT)
    client.connect()
    state["client"] = client
    if depth < 1.0:
        env.run_until(depth)
    else:
        env.run_until(1.0)
        stream_from_vendor(testbed, client, segments=TCP_SEGMENTS,
                           interval=TCP_SEGMENT_INTERVAL)
        env.run_until(depth)
    return state


def _tcp_continue(env, state, config):
    """Arm the script and run a TCP case from its prefix to the horizon."""
    from repro.experiments.tcp_common import (SERVER_PORT, CLIENT_PORT,
                                              XKERNEL_ADDR,
                                              stream_from_vendor)
    testbed = state["testbed"]
    _install_filter(testbed.pfi, config)
    client = state.get("client")
    if client is None:
        # default depth: filter armed before the handshake, stock order
        testbed.xkernel_tcp.listen(SERVER_PORT)
        client = testbed.vendor_tcp.open_connection(
            local_port=CLIENT_PORT, remote_address=XKERNEL_ADDR,
            remote_port=SERVER_PORT)
        client.connect()
    if env.scheduler.now < 1.0:
        env.run_until(1.0)
        stream_from_vendor(testbed, client, segments=TCP_SEGMENTS,
                           interval=TCP_SEGMENT_INTERVAL)
    env.run_until(HORIZONS["tcp"])
    return {"established": client.established, "final_state": client.state}


def _gmp_prefix(env, config, depth):
    """The script-free head of a GMP fuzz run: group formation."""
    from repro.experiments.gmp_common import build_gmp_cluster
    cluster = build_gmp_cluster(
        list(GMP_WORLD), default_bugs=_gmp_bug_flags(config["target"]),
        env=env)
    cluster.start()
    cluster.run_until(depth)
    return {"cluster": cluster}


def _gmp_continue(env, state, config):
    """Arm the script and run a GMP case from its prefix to the horizon."""
    cluster = state["cluster"]
    _install_filter(cluster.pfis[GMP_TARGET], config)
    cluster.run_until(HORIZONS["gmp"])
    return {"views": {a: list(v) for a, v in cluster.views().items()}}


def _continue_body(env, state, config):
    """Dispatch a forked continuation by protocol."""
    if config["protocol"] == "tcp":
        return _tcp_continue(env, state, config)
    return _gmp_continue(env, state, config)


def _fuzz_prefix(env, config):
    """The script-free head of a fuzz run, as a prefix stage."""
    protocol = config["protocol"]
    depth = config.get("install_at", DEFAULT_DEPTHS[protocol])
    if protocol == "tcp":
        return _tcp_prefix(env, config, depth)
    return _gmp_prefix(env, config, depth)


def _fuzz_prefix_key(config):
    """Prefix identity of one fuzz config: (protocol, target, depth).

    Every config sharing this key runs the same script-free,
    zero-draw head -- the fuzzed script only differs downstream of the
    install point -- so the grouped campaign dispatcher may warm the
    prefix once and fork it per case.
    """
    protocol = config["protocol"]
    depth = config.get("install_at", DEFAULT_DEPTHS[protocol])
    return (protocol, config["target"], depth)


#: :func:`fuzz_body` as a split body: cold calls are prefix+continuation
#: back to back (byte-identical to ``fuzz_body`` by construction), while
#: a prefix-grouped :meth:`Campaign.run <repro.core.orchestrator
#: .Campaign.run>` captures one warm prefix per (protocol, target,
#: depth) group and forks it per case.  Module-level and picklable.
prefixed_fuzz_body = PrefixedBody(_fuzz_prefix, _continue_body,
                                  key=_fuzz_prefix_key)


def pack_for(protocol: str):
    """The (picklable) oracle factory for one protocol's fuzz runs."""
    from repro.oracle import gmp_pack, tcp_pack
    if protocol == "tcp":
        return tcp_pack
    if protocol == "gmp":
        return gmp_pack
    raise ValueError(f"unknown protocol {protocol!r}")


# ----------------------------------------------------------------------
# cases and coverage
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FuzzCase:
    """One executable fuzz input: script + placement + seeds."""

    script: FuzzScript
    target: str                 # vendor name (tcp) / bug-variant (gmp)
    case_seed: int

    @property
    def protocol(self) -> str:
        return self.script.protocol

    def config(self) -> Dict[str, object]:
        """The campaign configuration this case runs as.

        Deliberately excludes the script's display name: the campaign
        derives each run's seed from the config repr, and a rename (the
        shrinker suffixes ``_min``) must not change the simulation.
        """
        return {"protocol": self.protocol,
                "target": self.target, "direction": self.script.direction,
                "script": self.script.source,
                "init_script": self.script.init,
                "case_seed": self.case_seed}

    def to_dict(self) -> Dict[str, object]:
        return {"script": self.script.to_dict(), "target": self.target,
                "case_seed": self.case_seed}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FuzzCase":
        return cls(script=FuzzScript.from_dict(data["script"]),
                   target=data["target"], case_seed=data["case_seed"])


def coverage_keys(trace) -> FrozenSet[Tuple]:
    """The coverage signature of one trace.

    Trace kinds give breadth (which mechanisms ran at all); TCP state
    transitions and GMP message kinds give depth within the protocol
    state machines -- the "state-transition coverage" the fuzzer steers
    by.
    """
    keys = {("kind", kind) for kind in trace.count_by_kind()}
    for entry in trace.entries("tcp.state"):
        keys.add(("tcp.state", entry.get("old"), entry.get("new")))
    for entry in trace.entries("gmp.send"):
        keys.add(("gmp.send", entry.get("msg_kind")))
    return frozenset(keys)


@dataclass
class Finding:
    """One violating case, before shrinking."""

    case: FuzzCase
    codes: List[str]
    violation_count: int
    example: Optional[Violation] = None


@dataclass
class FuzzReport:
    """What one fuzzing session did."""

    protocol: str
    seed: int
    budget: int
    executed: int = 0
    corpus: List[FuzzCase] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    coverage: FrozenSet[Tuple] = frozenset()
    #: overall execution rate (virtual trials per wall second)
    trials_per_sec: float = 0.0
    #: virtual time the filter was installed at (the shared prefix depth)
    checkpoint_depth: Optional[float] = None
    #: share of trials forking a pooled prefix an earlier one captured;
    #: ``None`` when the rows carried no prefix provenance (the process
    #: pool returns results only)
    checkpoint_hit_rate: Optional[float] = None
    #: draws thrown away because the grammar's own lint rejected them
    discarded_draws: int = 0

    def hit_rate_text(self) -> str:
        rate = self.checkpoint_hit_rate
        return "n/a" if rate is None else f"{rate:.0%}"

    def render(self) -> str:
        lines = [f"fuzz {self.protocol}: {self.executed}/{self.budget} "
                 f"cases, coverage {len(self.coverage)} keys, "
                 f"corpus {len(self.corpus)}, "
                 f"findings {len(self.findings)}"]
        if self.discarded_draws:
            lines[0] += f", {self.discarded_draws} draws discarded"
        if self.trials_per_sec:
            lines.append(f"  {self.trials_per_sec:.1f} trials/s "
                         f"(checkpointed @ depth {self.checkpoint_depth:g}, "
                         f"hit-rate {self.hit_rate_text()})")
        for finding in self.findings:
            lines.append(
                f"  {finding.case.script.name} "
                f"[target={finding.case.target} "
                f"seed={finding.case.case_seed}] -> "
                f"{','.join(finding.codes)} "
                f"({finding.violation_count} violations)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# execution: the campaign's shard executor over a session-owned pool
# ----------------------------------------------------------------------

def execute_configs(configs: Sequence[Dict[str, object]], *, seed: int,
                    pool: CheckpointPool,
                    journal: Union[Journal, NullJournal] = NULL_JOURNAL,
                    workers: int = 1) -> Tuple[List[ShardRow], int]:
    """Run fuzz configurations through the campaign's one executor.

    Returns ``(rows, captures)``: one :class:`~repro.core.orchestrator
    .ShardRow` per configuration, in input order, and how many prefixes
    were simulated for them.  The configurations go, as a sweep over
    :data:`prefixed_fuzz_body`, to :func:`~repro.core.orchestrator
    .execute_shard` with ``pool`` -- the one thing a fuzz session or a
    shrink owns.  Because the caller keeps it, the first configuration
    against a target captures that target's warm prefix and every later
    one, in this call or the next, forks it.  Captures are journaled as
    ``campaign.checkpoint_capture`` (the campaign sink's payload plus
    ``target`` and ``depth``).  Nothing is linted here: callers pass
    ``Campaign.preflight`` first.  ``workers > 1`` takes the sweep
    through ``Campaign.run`` and the process pool instead; that
    transport returns results only, so its rows carry no prefix key and
    the session pool is not consulted.
    """
    oracle = pack_for(configs[0]["protocol"])
    if workers > 1:
        results = Campaign(prefixed_fuzz_body, seed=seed, lint="off").run(
            configs, workers=workers, telemetry=False, oracle=oracle)
        return [ShardRow(index, result, None, False)
                for index, result in enumerate(results)], 0
    spec = SweepSpec(body=prefixed_fuzz_body, seed=seed, configs=configs,
                     telemetry=False, oracle=oracle)
    groups = {str(key): key for key in spec.prefix_keys()}
    rows: List[Optional[ShardRow]] = [None] * len(spec.configs)
    captures = 0
    for event in execute_shard(spec, range(len(rows)), pool):
        if type(event) is ShardRow:
            rows[event.index] = event
        elif type(event) is ShardCapture:
            captures += 1
            _protocol, target, depth = groups[event.payload["prefix"]]
            journal.record(K.CAMPAIGN_CHECKPOINT_CAPTURE, target=target,
                           depth=depth, **event.payload)
    return rows, captures


# ----------------------------------------------------------------------
# the fuzzing loop
# ----------------------------------------------------------------------

def _targets(protocol: str) -> Tuple[str, ...]:
    if protocol == "tcp":
        from repro.tcp import VENDORS
        return tuple(VENDORS)
    return GMP_VARIANTS


def check_placement(protocol: str, targets: Sequence[str] = (),
                    depth: Optional[float] = None, *,
                    window: Optional[float] = None,
                    horizon: Optional[float] = None) -> None:
    """Refuse a placement no run could honour, before anything runs.

    Each of ``targets`` must be one of the protocol's fuzz targets (or,
    for GMP, the ``fixed`` build); an install ``depth`` must lie in
    ``[0, horizon)``, since the prefix is simulated up to it and the
    continuation from it to ``horizon`` (default: the protocol's
    :data:`HORIZONS` entry); an exploration ``window`` must be positive
    and close by ``horizon``.  Raises :class:`ValueError` naming the
    first rule broken.
    """
    if protocol not in HORIZONS:
        raise ValueError(f"unknown protocol {protocol!r}")
    valid = _targets(protocol) + (("fixed",) if protocol == "gmp" else ())
    for target in targets:
        if target not in valid:
            raise ValueError(f"unknown {protocol} target {target!r}; "
                             f"expected one of {valid}")
    horizon = HORIZONS[protocol] if horizon is None else horizon
    if depth is not None and not 0.0 <= depth < horizon:
        raise ValueError(f"depth {depth:g} is not in "
                         f"[0, horizon {horizon:g})")
    if window is not None and not window > 0.0:
        raise ValueError(f"window {window:g} must be positive")
    if window is not None and depth + window > horizon:
        raise ValueError(f"window [{depth:g}, {depth + window:g}] runs past "
                         f"the horizon {horizon:g}")


#: consecutive lint-rejected draws after which the grammar is taken to
#: be broken rather than unlucky (the stock sessions checked reject
#: zero or one draw in 48)
MAX_REDRAWS = 50


def _draw_clean(rng: random.Random, draw: Callable[[random.Random], object],
                what: str, report: Optional[FuzzReport] = None):
    """``draw(rng)``, redrawn until the grammar's own lint accepts it.

    A draw the self-check rejects (:class:`GrammarLintError`: e.g. two
    ``xDrop cur_msg`` in a row, SL005) is discarded, counted on
    ``report.discarded_draws`` and redrawn from the same stream, so a
    stream that never hits one yields exactly what it always yielded.
    """
    for _attempt in range(MAX_REDRAWS):
        try:
            return draw(rng)
        except GrammarLintError:
            if report is not None:
                report.discarded_draws += 1
    raise GrammarLintError(
        f"{MAX_REDRAWS} consecutive draws for {what} failed the "
        f"grammar's lint; the grammar is broken, not unlucky")


def _draw_case(rng: random.Random, report: FuzzReport, index: int
               ) -> FuzzCase:
    """Draw case ``index`` of ``report``'s session from ``rng``: a
    mutation of a corpus member, or a fresh script and target."""
    protocol, corpus = report.protocol, report.corpus

    def draw(rng: random.Random) -> Tuple[FuzzScript, str]:
        if corpus and rng.random() < 0.5:
            parent = corpus[rng.randrange(len(corpus))]
            return (mutate_script(rng, parent.script, index=index),
                    parent.target)
        script = generate_script(rng, protocol, index=index)
        return script, rng.choice(_targets(protocol))

    script, target = _draw_clean(rng, draw, f"case {index}", report)
    return FuzzCase(script=script, target=target,
                    case_seed=trial_seed(report.seed, script.name))


def sweep_battery(protocol: str, targets: Sequence[str], count: int, *,
                  depth: Optional[float] = None) -> List[Dict[str, object]]:
    """The generated battery ``repro sweep`` runs: ``count`` grammar
    scripts -- script *i* drawn lint-clean from ``random.Random(i)`` --
    against every target (none given: every fuzz target, plus the fixed
    GMP build), each installed at ``depth`` when one is given.  A
    placement :func:`check_placement` refuses raises :class:`ValueError`
    before any script is drawn."""
    check_placement(protocol, targets, depth)
    if not targets:
        targets = (sorted(_targets("tcp")) if protocol == "tcp"
                   else [*GMP_VARIANTS, "fixed"])
    scripts = [
        _draw_clean(random.Random(index),
                    lambda rng: generate_script(rng, protocol, index=index),
                    f"sweep script {index}")
        for index in range(count)]
    placement = {} if depth is None else {"install_at": depth}
    return [{"protocol": protocol, "target": target,
             "script": script.source, "init_script": script.init,
             "direction": script.direction, **placement}
            for target in targets for script in scripts]


#: cases drawn, executed and folded into the corpus together.  The size
#: feeds the per-batch RNG stream and the corpus-feedback cadence, so
#: sizing it from ``workers`` would make the session depend on them.
BATCH = 4


def run_fuzz(protocol: str = "gmp", *, seed: int = 0, budget: int = 24,
             workers: int = 1, checkpoint_depth: Optional[float] = None,
             pool: Optional[CheckpointPool] = None,
             progress: Optional[Callable[[str], None]] = None,
             journal=None) -> FuzzReport:
    """Fuzz one protocol's rig for ``budget`` cases.

    Fully deterministic in ``seed``: case generation, per-case seeds,
    and the simulations themselves all derive from it, batches are
    :data:`BATCH` cases however they execute, and a forked trial is
    byte-identical to the cold run of its configuration, so neither
    ``workers`` nor what ``pool`` already holds perturbs the outcome.

    Every batch runs through :func:`execute_configs`: one script-free
    prefix per target is simulated once, every trial forks it.
    ``checkpoint_depth`` is *where the filter is installed* -- the depth
    of that prefix: ``None`` is the protocol's stock install time
    (:data:`DEFAULT_DEPTHS`), any other depth a distinct experiment (its
    configs carry ``install_at``, which changes every run seed); one
    outside ``[0, horizon)`` is refused (:func:`check_placement`) before
    the session starts.  ``pool`` (a
    :class:`~repro.core.checkpoint.CheckpointPool`) holds the prefixes;
    share one with the finding shrinkers (``repro fuzz --save-repro``
    does) and each warmup is simulated once for the whole session, not
    once per consumer.  ``progress`` (e.g. ``print``) receives one
    status line per batch (shared renderer format) with the trial rate,
    coverage, findings and checkpoint hit-rate.

    ``journal`` (a :class:`~repro.obs.journal.Journal` or a path)
    attaches the campaign flight recorder: every executed case appends
    a crash-safe ``campaign.run_end`` event carrying its verdict codes,
    coverage delta and prefix group, so a sweep killed mid-run still
    reproduces its exact partial scorecard from the journal (``repro
    report --campaign``).  The session is one
    :class:`~repro.obs.journal.Flight`: off by default, its hooks then
    land in the no-op journal.
    """
    depth = (DEFAULT_DEPTHS.get(protocol) if checkpoint_depth is None
             else float(checkpoint_depth))
    check_placement(protocol, depth=depth)
    placement = ({} if depth == DEFAULT_DEPTHS[protocol]
                 else {"install_at": depth})
    report = FuzzReport(protocol=protocol, seed=seed, budget=budget,
                        checkpoint_depth=depth)
    coverage: set = set()
    sharing = dict.fromkeys(PREFIX_STATS, 0)
    campaign = Campaign(prefixed_fuzz_body, seed=seed)
    if pool is None:
        pool = CheckpointPool()
    batch_index = 0
    started = perf_counter()
    with Flight(journal, "fuzz",
                {"protocol": protocol, "seed": seed, "budget": budget,
                 "workers": workers, "batch": BATCH,
                 "checkpoint_depth": depth},
                progress=progress, label=f"fuzz {protocol}",
                total=budget) as flight:
        journal = flight.journal
        flight.counters = lambda: {
            "executed": report.executed, "findings": len(report.findings),
            "coverage": len(coverage), "corpus": len(report.corpus),
            "trials_per_sec": round(report.trials_per_sec, 3),
            "checkpoint_hit_rate": report.checkpoint_hit_rate,
            "discarded_draws": report.discarded_draws,
            **(sharing if any(sharing.values()) else {})}
        while report.executed < budget:
            count = min(BATCH, budget - report.executed)
            rng = random.Random(derive_seed(seed, "fuzz-batch", batch_index))
            cases = [_draw_case(rng, report, report.executed + i)
                     for i in range(count)]
            configs = [{**case.config(), **placement} for case in cases]
            # the campaign's gate: body vetted once, scripts per batch
            flight.gate(campaign.preflight, configs, body=batch_index == 0)
            rows, captures = execute_configs(
                configs, seed=seed, pool=pool, journal=journal,
                workers=workers)
            sharing["prefix_captures"] += captures
            for case, row in zip(cases, rows):
                result = row.result
                index = report.executed
                report.executed += 1
                keys = coverage_keys(result.trace)
                fresh = len(keys - coverage)
                if fresh:
                    coverage |= keys
                    report.corpus.append(case)
                codes: List[str] = []
                if result.violations:
                    codes = sorted({v.code for v in result.violations})
                    report.findings.append(Finding(
                        case=case, codes=codes,
                        violation_count=len(result.violations),
                        example=result.violations[0]))
                group = {}
                if row.prefix is not None:
                    group = {"prefix": str(row.prefix),
                             "forked": row.forked}
                    sharing["prefix_forks" if row.forked
                            else "prefix_fallbacks"] += 1
                journal.record(
                    K.CAMPAIGN_RUN_END, index=index,
                    label=case.script.name, case=case.script.name,
                    target=case.target, case_seed=case.case_seed,
                    ok=not codes, codes=codes,
                    violations=len(result.violations or ()),
                    new_coverage=fresh, coverage_total=len(coverage),
                    corpus=bool(fresh), **group)
            batch_index += 1
            elapsed = perf_counter() - started
            report.trials_per_sec = (report.executed / elapsed if elapsed
                                     else 0.0)
            # a trial is a hit when it forked a prefix it did not pay
            # for; rows without a prefix key say nothing either way
            traced = sharing["prefix_forks"] + sharing["prefix_fallbacks"]
            report.checkpoint_hit_rate = (
                (sharing["prefix_forks"] - sharing["prefix_captures"])
                / report.executed if traced else None)
            flight.progress.update(
                report.executed, coverage=len(coverage),
                findings=len(report.findings),
                checkpoint_hit_rate=report.hit_rate_text())
    report.coverage = frozenset(coverage)
    return report


def run_case(case: FuzzCase, *, campaign_seed: int = 0) -> RunResult:
    """Execute one case exactly as the fuzz loop would (serial)."""
    campaign = Campaign(fuzz_body, seed=campaign_seed, lint="error")
    [result] = campaign.run([case.config()], telemetry=False,
                            oracle=pack_for(case.protocol))
    return result
