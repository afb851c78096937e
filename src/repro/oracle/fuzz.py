"""Coverage-guided fault-scenario fuzzing with the oracle as the verdict.

The loop is classic greybox fuzzing, transplanted to fault injection:

1. draw fault scripts from the grammar (:mod:`repro.oracle.grammar`),
   or mutate scripts already in the corpus;
2. run each case through the parallel :class:`~repro.core.orchestrator
   .Campaign` engine with the protocol's invariant pack installed as the
   campaign oracle;
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
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional,
                    Tuple)

from repro.core.distributions import derive_seed
from repro.core.orchestrator import (Campaign, PrefixedBody, RunResult,
                                     _capture_prefix, run_one)
from repro.netsim import kinds as K
from repro.obs.journal import Journal
from repro.obs.progress import ProgressRenderer

if TYPE_CHECKING:
    from repro.core.checkpoint import Checkpoint, CheckpointPool
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
# horizon).  The cold path runs prefix+continuation back to back; the
# checkpointed paths (a grouped ``Campaign.run`` and :class:`ForkEngine`,
# both through :data:`prefixed_fuzz_body`) capture one prefix per target
# and re-run only continuations.  Keeping both paths on the same two
# functions is what makes forked trials byte-identical to cold ones by
# construction.
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
    #: prefix depth when the checkpointed engine ran; None = cold path
    checkpoint_depth: Optional[float] = None
    #: fraction of trials served by forking an existing checkpoint
    checkpoint_hit_rate: Optional[float] = None
    #: draws thrown away because the grammar's own lint rejected them
    discarded_draws: int = 0

    def render(self) -> str:
        lines = [f"fuzz {self.protocol}: {self.executed}/{self.budget} "
                 f"cases, coverage {len(self.coverage)} keys, "
                 f"corpus {len(self.corpus)}, "
                 f"findings {len(self.findings)}"]
        if self.discarded_draws:
            lines[0] += f", {self.discarded_draws} draws discarded"
        if self.trials_per_sec:
            speed = f"  {self.trials_per_sec:.1f} trials/s"
            if self.checkpoint_depth is not None:
                speed += (f" (checkpointed @ depth "
                          f"{self.checkpoint_depth:g}, hit-rate "
                          f"{self.checkpoint_hit_rate:.0%})")
            lines.append(speed)
        for finding in self.findings:
            lines.append(
                f"  {finding.case.script.name} "
                f"[target={finding.case.target} "
                f"seed={finding.case.case_seed}] -> "
                f"{','.join(finding.codes)} "
                f"({finding.violation_count} violations)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# checkpointed execution
# ----------------------------------------------------------------------

class ForkEngine:
    """A per-target pool of prefix checkpoints over the shared executor.

    One warmed-up, script-free prefix is captured per fuzz target
    (vendor profile / bug variant) at the configured depth; every trial
    against that target then runs as a fork of it.  The engine owns only
    the bookkeeping -- which checkpoint serves which target, how often
    one was reused -- and hands capture and execution to the campaign
    executor (:func:`~repro.core.orchestrator._capture_prefix`,
    :func:`~repro.core.orchestrator.run_one`) through
    :data:`prefixed_fuzz_body`.  A forked trial is therefore
    byte-identical to the cold run of the same configuration for the
    same reason a prefix-grouped ``Campaign.run`` is -- the property
    suite pins both -- and engine results are interchangeable with
    :class:`~repro.core.orchestrator.Campaign` results.  Unlike a
    campaign sweep the engine serves trials one at a time, as the fuzz
    loop and the shrinker's ddmin probes draw them.

    ``depth`` defaults to the protocol's stock install time
    (:data:`DEFAULT_DEPTHS`), in which case engine configs carry no
    ``install_at`` key and run seeds match the cold path exactly.  A
    non-default depth is recorded in each config (changing its run
    seed): those are *different* experiments, not cheaper replays of
    the stock ones.
    """

    def __init__(self, protocol: str, *, campaign_seed: int = 0,
                 depth: Optional[float] = None,
                 journal: Optional[Journal] = None,
                 pool: Optional["CheckpointPool"] = None):
        if protocol not in DEFAULT_DEPTHS:
            raise ValueError(f"unknown protocol {protocol!r}")
        from repro.core.checkpoint import CheckpointPool
        self.protocol = protocol
        self.campaign_seed = campaign_seed
        self.depth = (DEFAULT_DEPTHS[protocol] if depth is None
                      else float(depth))
        #: prefix snapshots, keyed ``(protocol, target, depth)`` --
        #: pass a shared :class:`CheckpointPool` to let several engines
        #: (fuzz loop, per-finding shrinkers) reuse one another's
        #: captures instead of re-simulating the same warmup
        self.pool = pool if pool is not None else CheckpointPool()
        #: flight recorder each prefix capture is reported to (optional)
        self.journal = journal
        #: trials served by forking (every trial is one fork)
        self.forks = 0
        #: prefix simulations actually run (one per distinct target)
        self.captures = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of trials that reused an already-captured prefix."""
        if not self.forks:
            return 0.0
        return (self.forks - self.captures) / self.forks

    def config_for(self, case: FuzzCase) -> Dict[str, object]:
        """The campaign config this engine runs ``case`` as.

        Adds ``install_at`` only at non-default depths, so default-depth
        engine runs share run seeds (and results) with the cold path.
        """
        config = case.config()
        if self.depth != DEFAULT_DEPTHS[self.protocol]:
            config["install_at"] = self.depth
        return config

    def checkpoint_for(self, config: Dict[str, object]) -> "Checkpoint":
        """The (lazily captured, pooled) prefix checkpoint ``config``
        forks from, keyed like its campaign prefix group."""
        key = _fuzz_prefix_key(config)
        checkpoint = self.pool.get(key)
        if checkpoint is None:
            checkpoint = _capture_prefix(prefixed_fuzz_body, config, key)
            self.pool.put(key, checkpoint)
            self.captures += 1
            if self.journal is not None:
                self.journal.record(K.CAMPAIGN_CHECKPOINT_CAPTURE,
                                    target=config["target"], depth=key[2],
                                    label=checkpoint.label,
                                    identity=checkpoint.identity,
                                    **checkpoint.plan_stats)
        return checkpoint

    def run_config(self, config: Dict[str, object], *,
                   oracle=None) -> RunResult:
        """Execute one configuration as a fork of its prefix checkpoint
        (re-seeded to the run seed a cold campaign derives for it)."""
        result = run_one(prefixed_fuzz_body, self.campaign_seed, config,
                         self.checkpoint_for(config), telemetry=False,
                         oracle=oracle)
        self.forks += 1
        return result

    def run_case(self, case: FuzzCase, *, oracle=None) -> RunResult:
        """Convenience: :meth:`config_for` + :meth:`run_config`."""
        return self.run_config(self.config_for(case), oracle=oracle)


# ----------------------------------------------------------------------
# the fuzzing loop
# ----------------------------------------------------------------------

def _targets(protocol: str) -> Tuple[str, ...]:
    if protocol == "tcp":
        from repro.tcp import VENDORS
        return tuple(VENDORS)
    return GMP_VARIANTS


#: consecutive lint-rejected draws after which the grammar is taken to
#: be broken rather than unlucky (the stock sessions checked reject
#: zero or one draw in 48)
MAX_REDRAWS = 50


def _draw_case(rng: random.Random, report: FuzzReport, index: int
               ) -> FuzzCase:
    """Draw case ``index`` of ``report``'s session from ``rng``.

    A draw the grammar's self-check rejects (:class:`GrammarLintError`:
    e.g. two ``xDrop cur_msg`` in a row, SL005) is discarded, counted on
    ``report.discarded_draws`` and redrawn from the same stream, so a
    session that never hits one draws exactly the cases it always drew.
    """
    protocol, corpus = report.protocol, report.corpus
    for _attempt in range(MAX_REDRAWS):
        try:
            if corpus and rng.random() < 0.5:
                parent = corpus[rng.randrange(len(corpus))]
                script = mutate_script(rng, parent.script, index=index)
                target = parent.target
            else:
                script = generate_script(rng, protocol, index=index)
                target = rng.choice(_targets(protocol))
        except GrammarLintError:
            report.discarded_draws += 1
            continue
        return FuzzCase(script=script, target=target,
                        case_seed=trial_seed(report.seed, script.name))
    raise GrammarLintError(
        f"{MAX_REDRAWS} consecutive draws for case {index} failed the "
        f"grammar's lint; the grammar is broken, not unlucky")


def run_fuzz(protocol: str = "gmp", *, seed: int = 0, budget: int = 24,
             workers: int = 1, batch: int = 0,
             checkpoint_depth: Optional[float] = None,
             pool: Optional["CheckpointPool"] = None,
             progress: Optional[Callable[[str], None]] = None,
             journal=None) -> FuzzReport:
    """Fuzz one protocol's rig for ``budget`` cases.

    Fully deterministic in ``seed``: case generation, per-case seeds,
    and the simulations themselves all derive from it, and the parallel
    campaign path returns results in input order, so ``workers`` does
    not perturb the outcome.

    ``checkpoint_depth`` switches execution to the :class:`ForkEngine`:
    one script-free prefix per target is simulated once, every trial
    forks it.  Passing the protocol's stock install time
    (:data:`DEFAULT_DEPTHS`) -- or any value at the default-depth rigs'
    defaults -- produces the *same* report the cold path produces, just
    faster; other depths are distinct experiments (the ``install_at``
    config key changes every run seed).  ``progress`` (e.g. ``print``)
    receives one status line per batch (shared renderer format) with
    the trial rate, coverage, findings and, on the engine path, the
    checkpoint hit-rate.

    ``journal`` (a :class:`~repro.obs.journal.Journal` or a path)
    attaches the campaign flight recorder: every executed case appends
    a crash-safe ``campaign.run_end`` event carrying its verdict codes
    and coverage delta, so a sweep killed mid-run still reproduces its
    exact partial scorecard from the journal (``repro report
    --campaign``).  Off by default; the hook is a single ``is not
    None`` guard per case.

    ``pool`` (a :class:`~repro.core.checkpoint.CheckpointPool`) backs
    the engine path's prefix snapshots; share one pool across sweeps
    and the subsequent finding shrinkers (``repro fuzz --save-repro``
    does) and the warmup is simulated once per target for the whole
    session, not once per consumer.
    """
    if batch <= 0:
        batch = max(4, workers * 2)
    journal_obj, journal_owned = Journal.ensure(journal)
    try:
        return _run_fuzz_journaled(
            protocol, journal_obj, seed=seed, budget=budget,
            workers=workers, batch=batch,
            checkpoint_depth=checkpoint_depth, pool=pool,
            progress=progress)
    finally:
        if journal_owned:
            journal_obj.close()


def _run_fuzz_journaled(protocol: str, journal: Optional[Journal], *,
                        seed: int, budget: int, workers: int, batch: int,
                        checkpoint_depth: Optional[float],
                        pool: Optional["CheckpointPool"],
                        progress: Optional[Callable[[str], None]]
                        ) -> FuzzReport:
    report = FuzzReport(protocol=protocol, seed=seed, budget=budget)
    coverage: set = set()
    campaign = Campaign(fuzz_body, seed=seed, lint="error")
    engine = None
    if checkpoint_depth is not None:
        engine = ForkEngine(protocol, campaign_seed=seed,
                            depth=checkpoint_depth, journal=journal,
                            pool=pool)
        report.checkpoint_depth = engine.depth
    if journal is not None:
        journal.start("fuzz", protocol=protocol, seed=seed, budget=budget,
                      workers=workers, batch=batch,
                      checkpoint_depth=report.checkpoint_depth)
    renderer = (ProgressRenderer(f"fuzz {protocol}", total=budget,
                                 unit="trials", sink=progress)
                if progress is not None else None)
    batch_index = 0
    started = perf_counter()
    status = "ok"
    try:
        while report.executed < budget:
            count = min(batch, budget - report.executed)
            rng = random.Random(derive_seed(seed, "fuzz-batch", batch_index))
            cases = [_draw_case(rng, report, report.executed + i)
                     for i in range(count)]
            if engine is not None:
                # trials fork one at a time, outside Campaign.run, but
                # pass the same gate: body vetted once, scripts per batch
                configs = [engine.config_for(case) for case in cases]
                campaign.preflight(
                    configs, journal if batch_index == 0 else None,
                    body=batch_index == 0)
                oracle = pack_for(protocol)
                results = [engine.run_config(config, oracle=oracle)
                           for config in configs]
            else:
                results = campaign.run([case.config() for case in cases],
                                       workers=workers, telemetry=False,
                                       oracle=pack_for(protocol))
                if journal is not None and batch_index == 0:
                    journal.record(K.CAMPAIGN_PREFLIGHT, ok=True,
                                   failing=0)
            for case, result in zip(cases, results):
                index = report.executed
                report.executed += 1
                keys = coverage_keys(result.trace)
                fresh = len(keys - coverage)
                in_corpus = False
                if fresh:
                    coverage |= keys
                    report.corpus.append(case)
                    in_corpus = True
                codes: List[str] = []
                if result.violations:
                    codes = sorted({v.code for v in result.violations})
                    report.findings.append(Finding(
                        case=case, codes=codes,
                        violation_count=len(result.violations),
                        example=result.violations[0]))
                if journal is not None:
                    journal.record(
                        K.CAMPAIGN_RUN_END, index=index,
                        label=case.script.name, case=case.script.name,
                        target=case.target, case_seed=case.case_seed,
                        ok=not codes, codes=codes,
                        violations=len(result.violations or ()),
                        new_coverage=fresh, coverage_total=len(coverage),
                        corpus=in_corpus)
            batch_index += 1
            elapsed = perf_counter() - started
            report.trials_per_sec = (report.executed / elapsed if elapsed
                                     else 0.0)
            if engine is not None:
                report.checkpoint_hit_rate = engine.hit_rate
            if renderer is not None:
                renderer.update(
                    report.executed,
                    coverage=len(coverage),
                    findings=len(report.findings),
                    checkpoint_hit_rate=(f"{engine.hit_rate:.0%}"
                                         if engine is not None else None))
    except BaseException:
        status = "failed"
        raise
    finally:
        if journal is not None:
            journal.record(
                K.CAMPAIGN_END, status=status, executed=report.executed,
                findings=len(report.findings), coverage=len(coverage),
                corpus=len(report.corpus),
                trials_per_sec=round(report.trials_per_sec, 3),
                checkpoint_hit_rate=report.checkpoint_hit_rate,
                discarded_draws=report.discarded_draws)
    report.coverage = frozenset(coverage)
    return report


def run_case(case: FuzzCase, *, campaign_seed: int = 0) -> RunResult:
    """Execute one case exactly as the fuzz loop would (serial)."""
    campaign = Campaign(fuzz_body, seed=campaign_seed, lint="error")
    [result] = campaign.run([case.config()], telemetry=False,
                            oracle=pack_for(case.protocol))
    return result
