"""Bounded delivery-order exploration from a checkpoint (DPOR-lite).

Fault scripts perturb *what* messages say; this module perturbs *when*
things happen.  From one warmed-up prefix checkpoint it enumerates
bounded perturbations of the pending event order -- dropping an
in-flight delivery, suppressing or delaying a protocol timer -- and
runs each alternative schedule to the horizon with the protocol's
oracle pack as the verdict.  A schedule whose trace violates an
invariant is a *finding*: a latent bug made observable purely by event
ordering, no filter script required.

This is deliberately not a full dynamic partial-order reduction: the
schedule space is bounded (``max_perturbations`` perturbations per
schedule, ``max_schedules`` schedules total) and reduction is by
*outcome* -- schedules whose canonical traces are byte-identical to one
already seen collapse into it, which catches the bulk of commutative
interleavings at a fraction of a vector-clock implementation's cost.
The checkpoint engine is what makes the sweep affordable: every
schedule forks the same captured prefix instead of re-simulating the
warmup, so exploring N schedules costs N continuations, not N runs.

Schedules are applied best-effort: a perturbation is addressed by step
index into the *baseline* event order, and an earlier perturbation may
shift what later indices refer to.  That is standard for bounded
schedule fuzzing -- every executed schedule is still a real, legal
event order, which is all the oracle verdict needs.

Reforking is **tree-shaped** and **plan-aware**: the whole plan list
is fixed before the first schedule runs, so the explorer knows which
branch positions (every ``recheckpoint_every`` steps) a later schedule
will fork from.  A running schedule re-checkpoints its branch (a nested
:meth:`Checkpoint.capture` on the running fork) only at a position a
not-yet-run plan is waiting for, every later schedule forks that
*nearest ancestor* instead of the flat root -- a branch that diverges
at step d costs one fork plus the steps past d, not d re-simulated
events -- and a snapshot is released as soon as its last consumer has
forked it.  ``_TREE_ITEMS`` is only the hard cap on live snapshots.
The per-schedule event counts are tracked
(``ExploreReport.simulated_events``).

The outcome hash is **prefix-shared** the same way: a fork's trace
below its checkpoint is the same rows in every fork, so each checkpoint
carries a running digest of that prefix and a schedule renders only the
rows past the ancestor it forked from (read with ``TraceRecorder.rows``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from math import comb
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.analysis.export import VOLATILE_ATTRS, render_rows
from repro.core.checkpoint import Checkpoint, CheckpointPool
from repro.core.orchestrator import Campaign, make_env
from repro.netsim import kinds as K
from repro.netsim.link import Link
from repro.netsim.scheduler import Event
from repro.netsim.timer import Timer
from repro.netsim.trace import TraceRecorder
from repro.obs.campaign_report import plans_line
from repro.obs.journal import NULL_JOURNAL, Flight, Journal, NullJournal
from repro.oracle.fuzz import (DEFAULT_DEPTHS, HORIZONS, _gmp_prefix,
                               _tcp_prefix, check_placement, pack_for)

#: perturbation actions by event class; "fire" (run as scheduled) is
#: always legal and never counts as a perturbation
ACTIONS = {"delivery": ("drop", "defer"), "timer": ("drop", "defer")}

#: hard cap on nested snapshots live at once; when it binds, the nodes
#: whose next use comes soonest in plan order are the ones kept
_TREE_ITEMS = 32

_VOLATILE = frozenset(VOLATILE_ATTRS)


class ExploreError(ValueError):
    """The world to explore has not started: nothing recorded, nothing
    perturbable in the window."""

    #: how the flight that raises this ends: refused, not broken
    status = "preflight_failed"


def classify_event(event: Event) -> str:
    """What kind of world event a scheduler entry is.

    ``delivery``: an in-flight message arriving over a link;
    ``timer``: a protocol timer firing; ``other``: infrastructure
    (workload writes, daemon starts) the explorer leaves alone.
    """
    owner = getattr(event.callback, "__self__", None)
    if isinstance(owner, Link):
        return "delivery"
    if isinstance(owner, Timer):
        return "timer"
    return "other"


def describe_event(event: Event) -> str:
    """A short human-readable label for one pending event."""
    owner = getattr(event.callback, "__self__", None)
    if isinstance(owner, Link):
        payload = event.args[0] if event.args else None
        detail = type(payload).__name__ if payload is not None else "?"
        return f"deliver[{owner.name}] {detail} @{event.time:.3f}"
    if isinstance(owner, Timer):
        return f"timer[{owner.name}] @{event.time:.3f}"
    name = getattr(event.callback, "__qualname__",
                   getattr(event.callback, "__name__", "event"))
    return f"{name} @{event.time:.3f}"


@dataclass(frozen=True)
class Perturbation:
    """One deviation from the baseline order: ``action`` at ``step``."""

    step: int
    action: str
    description: str

    def render(self) -> str:
        return f"{self.action} step {self.step} ({self.description})"


@dataclass
class ScheduleOutcome:
    """What one explored schedule did."""

    perturbations: Tuple[Perturbation, ...]
    codes: List[str]
    violation_count: int
    outcome_hash: str
    novel: bool          # first schedule reaching this outcome hash

    def render(self) -> str:
        plan = (", ".join(p.render() for p in self.perturbations)
                or "baseline")
        verdict = (",".join(self.codes) if self.codes else "conformant")
        return f"{plan} -> {verdict} ({self.violation_count} violations)"


@dataclass
class ExploreReport:
    """The result of one bounded delivery-order exploration."""

    protocol: str
    target: str
    depth: float
    window: float
    horizon: float
    seed: int
    schedules: int = 0
    distinct_outcomes: int = 0
    baseline_codes: List[str] = field(default_factory=list)
    findings: List[ScheduleOutcome] = field(default_factory=list)
    outcomes: List[ScheduleOutcome] = field(default_factory=list)
    #: scheduler events dispatched across all executed schedules
    simulated_events: int = 0
    #: nested checkpoints captured along explored branches
    nested_captures: int = 0
    #: schedules forked from a nested ancestor instead of the root
    ancestor_forks: int = 0
    #: the re-checkpoint interval this exploration ran with (0: flat)
    recheckpoint_every: int = 0
    #: ``(run, existed)`` per plan size -- singles, then pairs -- so a
    #: budget that never reached a pair plan is visible
    plans: List[Tuple[int, int]] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"explore {self.protocol}/{self.target}: "
                 f"{self.schedules} schedules in window "
                 f"[{self.depth:g}, {self.depth + self.window:g}], "
                 f"{self.distinct_outcomes} distinct outcomes, "
                 f"findings {len(self.findings)}"]
        lines.append(f"  simulated {self.simulated_events} events"
                     + (f" ({self.ancestor_forks} ancestor forks, "
                        f"{self.nested_captures} nested checkpoints)"
                        if self.recheckpoint_every else ""))
        if self.plans:
            lines.append(f"  {plans_line(self.plans)}")
        if self.baseline_codes:
            lines.append(f"  baseline already violates: "
                         f"{','.join(self.baseline_codes)}")
        for finding in self.findings:
            lines.append(f"  {finding.render()}")
        return "\n".join(lines)


#: the script-free prefix builder an exploration warms up, per protocol
_PREFIXES = {"tcp": _tcp_prefix, "gmp": _gmp_prefix}


def _prefix_checkpoint(protocol: str, target: str, depth: float,
                       seed: int) -> Checkpoint:
    """Capture the script-free prefix the exploration forks from."""
    env = make_env(seed=seed)
    roots = _PREFIXES[protocol](
        env, {"protocol": protocol, "target": target}, depth)
    return Checkpoint.capture(
        env, roots, label=f"explore/{protocol}/{target}@{depth:g}")


class _TraceDigest:
    """A running sha256 over a trace's canonical JSON lines.

    After absorbing entries ``[0, n)`` it holds exactly
    ``sha256(dump_trace(entries[:n], exclude_attrs=VOLATILE_ATTRS))``,
    and a :meth:`copy` continues from there independently -- which is
    what lets every fork of a checkpoint start from the prefix's digest
    instead of serialising the shared prefix again.
    """

    __slots__ = ("_sha", "position")

    def __init__(self, sha=None, position: int = 0):
        self._sha = hashlib.sha256() if sha is None else sha
        #: trace entries absorbed so far
        self.position = position

    def copy(self) -> "_TraceDigest":
        return _TraceDigest(self._sha.copy(), self.position)

    def absorb(self, trace: TraceRecorder) -> None:
        """Serialise and hash the rows of ``trace`` past ``position``."""
        position = self.position
        if position >= len(trace):
            return
        text = render_rows(trace.rows(position), _VOLATILE)
        if position:
            text = "\n" + text
        self._sha.update(text.encode())
        self.position = len(trace)

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


@dataclass
class _Node:
    """One forkable moment of an exploration: the root or a snapshot."""

    checkpoint: Checkpoint
    #: baseline-window iterations the captured branch had run
    step: int
    #: the perturbations that branch had actually applied
    applied: Tuple[Perturbation, ...]
    #: digest of trace entries ``[0, checkpoint.position)``, the prefix
    #: every fork of ``checkpoint`` shares
    digest: _TraceDigest

    @property
    def position(self) -> int:
        """Retained trace entries (what ``CheckpointPool.entries`` sums)."""
        return self.checkpoint.position


class _Tree:
    """The nested-checkpoint tree one exploration grows and reforks from.

    Nodes are keyed ``(applied_pairs, step)``: the world after ``step``
    baseline-window iterations with exactly the perturbations in
    ``applied_pairs`` applied.  Keys record what a branch *actually*
    did, not what its plan asked for, and a plan only ever forks a node
    whose pairs equal its own entries below that step.

    The tree is plan-aware.  ``plans`` is the exploration's whole
    future, so each plan is counted, up front, against the one node it
    will fork: the last ``every``-step mark at or below its final
    perturbation, on the branch that applied the rest of it
    (:meth:`_wanted`).  A running branch is snapshotted at a mark only
    while some not-yet-run plan is counted against that key, the count
    is retired as each plan starts, and the node leaves the pool when
    its last consumer has forked it.  Each node carries the digest of
    the trace prefix its forks share.
    """

    def __init__(self, root: Checkpoint, root_digest: _TraceDigest,
                 plans: List[Dict[int, str]], *, every: int,
                 journal: Union[Journal, NullJournal] = NULL_JOURNAL):
        self.root = _Node(root, 0, (), root_digest)
        self.every = every
        self.pool = CheckpointPool()
        self.journal = journal
        self.captures = 0
        self.ancestor_forks = 0
        self.simulated_events = 0
        #: node key -> indices of the not-yet-run plans that will fork
        #: it, soonest last (so ``[-1]`` is the next use, ``pop()``
        #: retires it)
        self._uses: Dict[Any, List[int]] = {}
        #: keys of marks a branch never reached -> the key their plans
        #: were re-counted against (see :meth:`window_closed`)
        self._moved: Dict[Any, Any] = {}
        for index in reversed(range(len(plans))):
            key = self._wanted(plans[index])
            if key is not None:
                self._uses.setdefault(key, []).append(index)

    def _wanted(self, plan: Dict[int, str]) -> Optional[Any]:
        """The key of the deepest node ``plan`` can fork (None: root).

        A mark past the plan's last perturbation is no use -- only the
        plan's own run reaches it with exactly these pairs applied.
        """
        if not plan or self.every <= 0:
            return None
        mark = max(plan) // self.every * self.every
        if mark == 0:
            return None
        return (tuple(sorted(pair for pair in plan.items()
                             if pair[0] < mark)), mark)

    def start_for(self, plan: Dict[int, str]) -> _Node:
        """The nearest live ancestor to fork for ``plan``, retiring the
        plan's claim on the node it was counted against.

        That node is normally there; when the cap evicted it, or the
        branch it was due on ended early, shallower marks are tried
        before the root.
        """
        wanted = self._wanted(plan)
        if wanted is None:
            return self.root
        wanted = self._moved.get(wanted, wanted)
        start = self.root
        pairs, deepest = wanted
        for mark in range(deepest, 0, -self.every):
            node = self.pool.get(
                (tuple(pair for pair in pairs if pair[0] < mark), mark))
            if node is not None:
                start = node
                break
        uses = self._uses[wanted]
        uses.pop()
        if not uses:
            del self._uses[wanted]
            self.pool.discard(wanted)
        return start

    def window_closed(self, step: int,
                      applied: List[Perturbation]) -> None:
        """The running branch's window ended after ``step`` steps.

        A perturbation can empty the window early, and plans counted
        against marks the branch never reached would find nothing and
        fall back to the root.  They are re-counted against the
        branch's last snapshot instead, which so outlives its own
        consumers until they too have forked it.
        """
        pairs = tuple((p.step, p.action) for p in applied)
        stranded = [key for key in self._uses
                    if key[0] == pairs and key[1] > step]
        if not stranded:
            return
        last = (pairs, step // self.every * self.every)
        if last not in self.pool:
            return
        for key in stranded:
            self._moved[key] = last
            self._uses[last] = sorted(self._uses[last] + self._uses.pop(key),
                                      reverse=True)

    def maybe_capture(self, forked, step: int, applied: List[Perturbation],
                      digest: _TraceDigest) -> None:
        """Snapshot a running branch where a later plan will fork it.

        Only ``every``-step marks are ever counted against, so any
        other step falls through the demand lookup.  At the cap the
        nodes used soonest in plan order stay: the one needed last is
        evicted, or this capture is skipped when that is the new node.
        """
        key = (tuple((p.step, p.action) for p in applied), step)
        uses = self._uses.get(key)
        if not uses or key in self.pool:
            return
        if len(self.pool) >= _TREE_ITEMS:
            last = max(self.pool.keys(), key=lambda k: self._uses[k][-1])
            if self._uses[last][-1] < uses[-1]:
                return
            self.pool.discard(last)
        checkpoint = Checkpoint.capture(
            forked, label=f"{self.root.checkpoint.label}"
                          f"+{len(applied)}p@{step}",
            audit=False)
        digest.absorb(forked.env.trace)
        self.pool.put(key, _Node(checkpoint, step, tuple(applied),
                                 digest.copy()))
        self.captures += 1
        self.journal.record(
            K.CAMPAIGN_CHECKPOINT_CAPTURE, nested=True, step=step,
            prefix_perturbations=len(applied),
            label=checkpoint.label, identity=checkpoint.identity,
            parent=checkpoint.parent.identity, **checkpoint.plan_stats)


def _run_schedule(tree: _Tree, plan: Dict[int, str], *, window: float,
                  horizon: float, defer_delta: float, oracle
                  ) -> Tuple[Tuple[Perturbation, ...], List, str]:
    """Execute one schedule; returns (applied plan, violations, hash).

    The schedule starts from its nearest ancestor checkpoint (skipping
    every event that ancestor already simulated) and leaves a nested
    checkpoint where a later plan will fork its branch; the result is
    byte-identical to a flat root fork, only the number of re-simulated
    events (``tree.simulated_events``) and of re-serialised trace
    entries changes.
    """
    start = tree.start_for(plan)
    forked = start.checkpoint.fork()
    digest = start.digest.copy()
    env = forked.env
    scheduler = env.scheduler
    dispatched_before = scheduler.dispatched_count
    end = tree.root.checkpoint.time + window
    step = start.step
    applied: List[Perturbation] = list(start.applied)
    while True:
        event = scheduler.peek_entry()
        if event is None or event.time > end:
            break
        action = plan.get(step, "fire")
        if action != "fire" and classify_event(event) in ACTIONS:
            applied.append(Perturbation(step, action,
                                        describe_event(event)))
            event.cancel()
            if action == "defer":
                scheduler.schedule_at(event.time + defer_delta,
                                      event.callback, *event.args)
        else:
            scheduler.step()
        step += 1
        tree.maybe_capture(forked, step, applied, digest)
    tree.window_closed(step, applied)
    env.run_until(horizon)
    tree.simulated_events += scheduler.dispatched_count - dispatched_before
    if start is not tree.root:
        tree.ancestor_forks += 1
    from repro.oracle import evaluate
    violations = evaluate(env.trace, oracle()).violations
    digest.absorb(env.trace)
    return tuple(applied), violations, digest.hexdigest()[:16]


def _survey(checkpoint: Checkpoint, *, window: float
            ) -> Tuple[List[Tuple[str, str]], _TraceDigest]:
    """The baseline event order inside the window: (class, label) per
    step, observed by single-stepping a throwaway fork -- plus the
    digest of the trace prefix that fork (like every other) starts
    with."""
    forked = checkpoint.fork()
    digest = _TraceDigest()
    digest.absorb(forked.env.trace)
    scheduler = forked.env.scheduler
    end = checkpoint.time + window
    steps: List[Tuple[str, str]] = []
    while True:
        event = scheduler.peek_entry()
        if event is None or event.time > end:
            break
        steps.append((classify_event(event), describe_event(event)))
        scheduler.step()
    return steps, digest


def _plans(steps: List[Tuple[str, str]], *, max_perturbations: int,
           max_schedules: int) -> List[Dict[int, str]]:
    """Bounded perturbation plans over the surveyed baseline order.

    Baseline first, then every single perturbation in step order, then
    pairs, up to ``max_schedules`` plans total.
    """
    singles: List[Tuple[int, str]] = []
    for index, (kind, _label) in enumerate(steps):
        for action in ACTIONS.get(kind, ()):
            singles.append((index, action))
    plans: List[Dict[int, str]] = [{}]
    for index, action in singles:
        if len(plans) >= max_schedules:
            return plans
        plans.append({index: action})
    if max_perturbations >= 2:
        for i, (index_a, action_a) in enumerate(singles):
            for index_b, action_b in singles[i + 1:]:
                if index_a == index_b:
                    continue
                if len(plans) >= max_schedules:
                    return plans
                plans.append({index_a: action_a, index_b: action_b})
    return plans


def _plan_census(steps: List[Tuple[str, str]], *, max_perturbations: int,
                 executed: int) -> List[Tuple[int, int]]:
    """``(run, existed)`` per plan size -- singles, then pairs.

    Arithmetic over the survey, not a count of :func:`_plans` (which
    stops at the budget): two actions on one step never pair up, the
    baseline schedule is no perturbation plan, and plans run in size
    order.
    """
    per_step = [len(ACTIONS.get(kind, ())) for kind, _label in steps]
    existed = [sum(per_step)]
    if max_perturbations >= 2:
        existed.append(comb(existed[0], 2)
                       - sum(comb(count, 2) for count in per_step))
    census = []
    left = max(0, executed - 1)
    for total in existed:
        census.append((min(left, total), total))
        left -= census[-1][0]
    return census


def explore(protocol: str = "gmp", target: str = "self_death", *,
            seed: int = 0, depth: Optional[float] = None,
            window: float = 1.5, horizon: Optional[float] = None,
            max_schedules: int = 64, max_perturbations: int = 1,
            defer_delta: float = 4.0, recheckpoint_every: int = 8,
            progress: Optional[Callable[[str], None]] = None,
            journal=None) -> ExploreReport:
    """Explore bounded delivery-order schedules of one protocol target.

    The world is warmed to ``depth`` (default: the protocol's stock
    filter-install time) and checkpointed once; every schedule forks
    it.  Pending events inside ``[depth, depth + window]`` may be
    dropped or deferred by ``defer_delta`` seconds; the run then
    continues undisturbed to ``horizon`` and the protocol's oracle pack
    judges the trace.  Deterministic in all arguments: the same call
    always explores the same schedules.  A world that has recorded
    nothing and holds no delivery or timer in the window (TCP at its
    default depth 0: the rig is built, no traffic has started) raises
    :class:`ExploreError` before the first schedule instead of
    reporting one vacuous baseline.  An unknown target, a depth outside
    ``[0, horizon)`` or a window that is empty or runs past the horizon
    raises :class:`ValueError` (:func:`~repro.oracle.fuzz
    .check_placement`) before anything is built.

    ``recheckpoint_every`` (default 8, ``0`` disables) grows a
    checkpoint *tree*: an executing schedule re-checkpoints its branch
    at every that-many-th step a later plan will fork from, and later
    schedules refork from the nearest matching ancestor instead of the
    root -- same outcomes (the reported hashes are byte-identical to
    the flat path's), strictly fewer re-simulated events
    (``ExploreReport.simulated_events``).

    ``journal`` (a :class:`~repro.obs.journal.Journal` or a path)
    attaches the campaign flight recorder: preflight, the prefix
    capture (root and nested), one ``campaign.run_end`` per executed
    schedule (verdict codes, outcome hash, novelty), and the closing
    summary are appended crash-safe, so an interrupted exploration
    still reports its partial outcome census.
    """
    depth = DEFAULT_DEPTHS.get(protocol) if depth is None else float(depth)
    horizon = HORIZONS.get(protocol) if horizon is None else float(horizon)
    check_placement(protocol, [target], depth, window=window,
                    horizon=horizon)
    if max_perturbations > 2:
        raise ValueError(
            f"max_perturbations > 2 is not implemented (got "
            f"{max_perturbations}): plans stop at pairs, so a larger bound "
            f"would explore nothing a bound of 2 does not")
    report = ExploreReport(protocol=protocol, target=target, depth=depth,
                           window=window, horizon=horizon, seed=seed,
                           recheckpoint_every=max(0, recheckpoint_every))
    with Flight(journal, "explore",
                {"protocol": protocol, "target": target, "seed": seed,
                 "depth": depth, "window": window, "horizon": horizon,
                 "max_schedules": max_schedules,
                 "max_perturbations": max_perturbations,
                 "defer_delta": defer_delta},
                progress=progress, label=f"explore {protocol}/{target}",
                unit="schedules") as flight:
        journal = flight.journal
        # the prefix builder is about to be simulated to ``depth`` and
        # checkpointed; a determinism hazard in it (closure callback,
        # wall-clock read) would only surface at capture time, after
        # the warm-up is paid for -- the gate's SC1xx precheck moves
        # that failure to t=0 with a source position attached
        flight.gate(Campaign(_PREFIXES[protocol], seed=seed).preflight, ())
        with journal.phase("capture"):
            checkpoint = _prefix_checkpoint(protocol, target, depth, seed)
        journal.record(K.CAMPAIGN_CHECKPOINT_CAPTURE, target=target,
                       depth=depth, label=checkpoint.label,
                       identity=checkpoint.identity,
                       **checkpoint.plan_stats)
        oracle = pack_for(protocol)
        steps, root_digest = _survey(checkpoint, window=window)
        if checkpoint.position == 0 and not any(
                kind in ACTIONS for kind, _label in steps):
            raise ExploreError(
                f"explore {protocol}/{target}: the world at depth "
                f"{depth:g} has recorded nothing and holds no delivery or "
                f"timer in the window [{depth:g}, {depth + window:g}] -- "
                f"the rig is built but no traffic has started, so there "
                f"is nothing to perturb; pass --depth (depth=) to warm it "
                f"into traffic first")
        plans = _plans(steps, max_perturbations=max_perturbations,
                       max_schedules=max_schedules)
        tree = _Tree(checkpoint, root_digest, plans,
                     every=recheckpoint_every, journal=journal)
        seen_hashes: Dict[str, int] = {}
        seen_findings: set = set()

        def census() -> Dict[str, Any]:
            """The exploration's totals so far -- what the report closes
            with, and what ``campaign.end`` carries however it ends."""
            return {"distinct_outcomes": len(seen_hashes),
                    "simulated_events": tree.simulated_events,
                    "ancestor_forks": tree.ancestor_forks,
                    "nested_captures": tree.captures,
                    "plans": _plan_census(
                        steps, max_perturbations=max_perturbations,
                        executed=report.schedules)}

        flight.counters = lambda: {"executed": report.schedules,
                                   "findings": len(report.findings),
                                   **census()}
        for plan in plans:
            applied, violations, outcome_hash = _run_schedule(
                tree, plan, window=window, horizon=horizon,
                defer_delta=defer_delta, oracle=oracle)
            codes = sorted({v.code for v in violations})
            novel = outcome_hash not in seen_hashes
            seen_hashes.setdefault(outcome_hash, report.schedules)
            outcome = ScheduleOutcome(perturbations=applied, codes=codes,
                                      violation_count=len(violations),
                                      outcome_hash=outcome_hash,
                                      novel=novel)
            journal.record(
                K.CAMPAIGN_RUN_END, index=report.schedules,
                label=(", ".join(p.render() for p in applied)
                       or "baseline"),
                target=target, ok=not codes, codes=codes,
                violations=len(violations), outcome=outcome_hash,
                new_coverage=int(novel), coverage_total=len(seen_hashes))
            report.schedules += 1
            report.outcomes.append(outcome)
            if not applied:
                report.baseline_codes = codes
            if codes and novel and tuple(codes) not in seen_findings:
                seen_findings.add(tuple(codes))
                report.findings.append(outcome)
                flight.progress.emit(f"[explore] {outcome.render()}")
            if report.schedules % 16 == 0:
                flight.progress.update(report.schedules,
                                       distinct_outcomes=len(seen_hashes),
                                       findings=len(report.findings))
        vars(report).update(census())
    return report
