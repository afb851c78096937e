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
Each schedule is a config of :data:`schedule_body` (the fuzz body's
warm prefix, then :func:`_run_plan`), run by the campaign's shard
executor like any sweep, which forks the prefix the survey simulated
and captured: exploring N schedules costs one prefix and N
continuations, not N runs.

Schedules are applied best-effort: a perturbation is addressed by step
index into the *baseline* event order, and an earlier perturbation may
shift what later indices refer to.  That is standard for bounded
schedule fuzzing -- every executed schedule is still a real, legal
event order, which is all the oracle verdict needs.

The outcome hash is **prefix-shared**: a fork's trace below the
checkpoint is the same rows in every fork, so the survey (one cold run
of the prefix) leaves a running digest of that prefix and each
schedule copies it and hashes only the rows past it (read with
``TraceRecorder.rows``).  Schedules mostly replay the same rows past
it too, so every copy shares the survey digest's memo of rendered
lines, keyed by :func:`~repro.analysis.export.line_key`: a row an
earlier schedule rendered is looked up, not encoded again, and the
memo is dropped with the ``explore()`` call.  The per-schedule event counts are tracked
(``ExploreReport.simulated_events``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import combinations, islice
from math import comb
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis.export import VOLATILE_ATTRS, line_key, render_rows
from repro.core.checkpoint import CheckpointPool
from repro.core.fabric.spec import SweepSpec
from repro.core.orchestrator import (Campaign, PrefixedBody, ShardRow,
                                     make_env, pool_prefix)
from repro.netsim import kinds as K
from repro.netsim.link import Link
from repro.netsim.scheduler import Event
from repro.netsim.timer import Timer
from repro.netsim.trace import TraceRecorder
from repro.obs.campaign_report import plans_line
from repro.obs.journal import Flight
from repro.oracle.fuzz import (DEFAULT_DEPTHS, HORIZONS, check_placement,
                               journaled_shard, pack_for, prefixed_fuzz_body)

#: perturbation actions by event class; "fire" (run as scheduled) is
#: always legal and never counts as a perturbation
ACTIONS = {"delivery": ("drop", "defer"), "timer": ("drop", "defer")}

_VOLATILE = frozenset(VOLATILE_ATTRS)


class ExploreError(ValueError):
    """An exploration refused before its first schedule: a bound it does
    not implement, or a world that has not started (nothing recorded,
    nothing perturbable in the window)."""

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

    @property
    def label(self) -> str:
        """The applied plan, or ``baseline``."""
        return ", ".join(p.render() for p in self.perturbations) or "baseline"

    def render(self) -> str:
        verdict = (",".join(self.codes) if self.codes else "conformant")
        return f"{self.label} -> {verdict} ({self.violation_count} violations)"


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
    #: always 0: every schedule forks the root (the e2e bench reads it)
    ancestor_forks: int = 0
    #: ``(run, existed)`` per plan size -- singles, then pairs -- so a
    #: budget that never reached a pair plan is visible
    plans: List[Tuple[int, int]] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"explore {self.protocol}/{self.target}: "
                 f"{self.schedules} schedules in window "
                 f"[{self.depth:g}, {self.depth + self.window:g}], "
                 f"{self.distinct_outcomes} distinct outcomes, "
                 f"findings {len(self.findings)}"]
        lines.append(f"  simulated {self.simulated_events} events")
        if self.plans:
            lines.append(f"  {plans_line(self.plans)}")
        if self.baseline_codes:
            lines.append(f"  baseline already violates: "
                         f"{','.join(self.baseline_codes)}")
        for finding in self.findings:
            lines.append(f"  {finding.render()}")
        return "\n".join(lines)


class _TraceDigest:
    """A running sha256 over a trace's canonical JSON lines.

    After absorbing entries ``[0, n)`` it holds exactly
    ``sha256(dump_trace(entries[:n], exclude_attrs=VOLATILE_ATTRS))``,
    and a :meth:`copy` continues from there independently -- which is
    what lets every fork of a checkpoint start from the prefix's digest
    instead of serialising the shared prefix again.  The copies share
    one memo of rendered lines (:func:`~repro.analysis.export.line_key`
    -> line), so a row every schedule replays is rendered once.
    """

    __slots__ = ("_sha", "position", "_lines")

    def __init__(self, sha=None, position: int = 0, lines=None):
        self._sha = hashlib.sha256() if sha is None else sha
        #: trace entries absorbed so far
        self.position = position
        self._lines: Dict[tuple, str] = {} if lines is None else lines

    def copy(self) -> "_TraceDigest":
        return _TraceDigest(self._sha.copy(), self.position, self._lines)

    def absorb(self, trace: TraceRecorder) -> None:
        """Serialise and hash the rows of ``trace`` past ``position``: a
        row the memo holds is looked up, the rest are rendered together
        (one line each, and JSON escapes every newline inside one)."""
        position = self.position
        if position >= len(trace):
            return
        memo = self._lines
        rows = list(trace.rows(position))
        keys = [line_key(*row, _VOLATILE) for row in rows]
        # no line is stored under None, so an unkeyed row misses
        lines = list(map(memo.get, keys))
        missed = [index for index, line in enumerate(lines) if line is None]
        rendered = render_rows([rows[index] for index in missed], _VOLATILE)
        for index, line in zip(missed, rendered.split("\n")):
            lines[index] = line
            if keys[index] is not None:
                memo[keys[index]] = line
        text = "\n".join(lines)
        if position:
            text = "\n" + text
        self._sha.update(text.encode())
        self.position = len(trace)

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def _window(scheduler, window: float) -> Iterator[Event]:
    """The pending events inside the next ``window`` seconds, in
    dispatch order; the caller steps or cancels each before the next."""
    end = scheduler.now + window
    while True:
        event = scheduler.peek_entry()
        if event is None or event.time > end:
            return
        yield event


def _run_plan(env, state, config):
    """One schedule past the prefix: drop or defer the window's events
    that ``config["plan"]`` names by step, fire the rest, then run
    undisturbed to the horizon.  Returns the applied perturbations and
    the events dispatched past the prefix."""
    scheduler = env.scheduler
    dispatched_before = scheduler.dispatched_count
    plan = config["plan"]
    applied: List[Perturbation] = []
    for step, event in enumerate(_window(scheduler, config["window"])):
        action = plan.get(step, "fire")
        if action != "fire" and classify_event(event) in ACTIONS:
            applied.append(Perturbation(step, action,
                                        describe_event(event)))
            event.cancel()
            if action == "defer":
                scheduler.schedule_at(event.time + config["defer_delta"],
                                      event.callback, *event.args)
        else:
            scheduler.step()
    env.run_until(config["horizon"])
    return tuple(applied), scheduler.dispatched_count - dispatched_before


#: One schedule as a split body: the fuzz body's script-free prefix (and
#: its key, so the prefix is captured once and forked per schedule),
#: then :func:`_run_plan`.  Module-level and picklable.
schedule_body = PrefixedBody(prefixed_fuzz_body.prefix, _run_plan,
                             key=prefixed_fuzz_body.key)


def _survey(config: Dict[str, Any], seed: int, pool: CheckpointPool
            ) -> Tuple[List[Tuple[str, str]], _TraceDigest,
                       Optional[Dict[str, Any]]]:
    """The baseline event order inside the window: (class, label) per
    step, observed by single-stepping one cold run of the prefix --
    plus the digest of the trace prefix every schedule starts with, and
    the payload of the prefix's capture into ``pool``
    (:func:`~repro.core.orchestrator.pool_prefix`): the schedules fork
    this run's prefix, which is simulated once per exploration, and the
    survey steps on through a fork of it too."""
    env = make_env(seed=seed)
    state = schedule_body.prefix(env, config)
    capture, env = pool_prefix(pool, schedule_body, env, state, config)
    digest = _TraceDigest()
    digest.absorb(env.trace)
    steps: List[Tuple[str, str]] = []
    for event in _window(env.scheduler, config["window"]):
        steps.append((classify_event(event), describe_event(event)))
        env.scheduler.step()
    return steps, digest, capture


def _plans(steps: List[Tuple[str, str]], *, max_perturbations: int,
           max_schedules: int) -> List[Dict[int, str]]:
    """Bounded perturbation plans over the surveyed baseline order.

    Baseline first, then every single perturbation in step order, then
    pairs, up to ``max_schedules`` plans total.
    """
    singles = [(index, action) for index, (kind, _label) in enumerate(steps)
               for action in ACTIONS.get(kind, ())]

    def every() -> Iterator[Dict[int, str]]:
        yield {}
        for index, action in singles:
            yield {index: action}
        if max_perturbations >= 2:
            for (index_a, action_a), (index_b, action_b) in combinations(
                    singles, 2):
                if index_a != index_b:
                    yield {index_a: action_a, index_b: action_b}

    return list(islice(every(), max(1, max_schedules)))


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
            defer_delta: float = 4.0,
            progress: Optional[Callable[[str], None]] = None,
            journal=None) -> ExploreReport:
    """Explore bounded delivery-order schedules of one protocol target.

    The world is warmed to ``depth`` (default: the protocol's stock
    filter-install time) once, cold, captured there, and run on to
    survey the window.  Each schedule is then one config of
    :data:`schedule_body`, and the configs run through the campaign's
    shard executor (:func:`~repro.core.orchestrator.execute_shard`)
    with that capture pooled, which forks it per schedule.  Pending
    events inside ``[depth, depth + window]`` may be
    dropped or deferred by ``defer_delta`` seconds; the run then
    continues undisturbed to ``horizon`` and the protocol's oracle pack
    judges the trace.  Deterministic in all arguments: the same call
    always explores the same schedules.  A world that has recorded
    nothing and holds no delivery or timer in the window (TCP at its
    default depth 0: the rig is built, no traffic has started) raises
    :class:`ExploreError` before the first schedule instead of
    reporting one vacuous baseline.  An unknown target, a depth outside
    ``[0, horizon)`` or a window that is empty or runs past the horizon
    raises :class:`~repro.oracle.fuzz.PlacementError` (:func:`~repro
    .oracle.fuzz.check_placement`), and ``max_perturbations`` outside
    ``[1, 2]`` :class:`ExploreError`, before anything is built.

    ``journal`` (a :class:`~repro.obs.journal.Journal` or a path)
    attaches the campaign flight recorder: preflight, the prefix
    capture (``campaign.checkpoint_capture`` with ``target`` and
    ``depth``, as a fuzz batch writes it), one ``campaign.run_end`` per executed
    schedule (verdict codes, outcome hash, novelty), and the closing
    summary are appended crash-safe, so an interrupted exploration
    still reports its partial outcome census.
    """
    depth = DEFAULT_DEPTHS.get(protocol) if depth is None else float(depth)
    horizon = HORIZONS.get(protocol) if horizon is None else float(horizon)
    check_placement(protocol, [target], depth, window=window,
                    horizon=horizon)
    if max_perturbations > 2:
        raise ExploreError(
            f"max_perturbations > 2 is not implemented (got "
            f"{max_perturbations}): plans stop at pairs, so a larger bound "
            f"would explore nothing a bound of 2 does not")
    if max_perturbations < 1:
        raise ExploreError(
            f"max_perturbations < 1 is refused (got {max_perturbations}): "
            f"every plan past the baseline perturbs at least one event")
    report = ExploreReport(protocol=protocol, target=target, depth=depth,
                           window=window, horizon=horizon, seed=seed)
    with Flight(journal, "explore",
                {"protocol": protocol, "target": target, "seed": seed,
                 "depth": depth, "window": window, "horizon": horizon,
                 "max_schedules": max_schedules,
                 "max_perturbations": max_perturbations,
                 "defer_delta": defer_delta},
                progress=progress, label=f"explore {protocol}/{target}",
                unit="schedules") as flight:
        # the prefix builder is about to be simulated to ``depth``; a
        # determinism hazard in it (closure callback, wall-clock read)
        # would only surface at capture time, after the warm-up is paid
        # for -- the gate's SC1xx precheck moves that failure to t=0
        # with a source position attached
        flight.gate(Campaign(schedule_body, seed=seed).preflight, ())
        base = {"protocol": protocol, "target": target, "install_at": depth,
                "window": window, "horizon": horizon,
                "defer_delta": defer_delta}
        pool = CheckpointPool()
        steps, root_digest, capture = _survey(base, seed, pool)
        if root_digest.position == 0 and not any(
                kind in ACTIONS for kind, _label in steps):
            raise ExploreError(
                f"explore {protocol}/{target}: the world at depth "
                f"{depth:g} has recorded nothing and holds no delivery or "
                f"timer in the window [{depth:g}, {depth + window:g}] -- "
                f"the rig is built but no traffic has started, so there "
                f"is nothing to perturb; pass --depth (depth=) to warm it "
                f"into traffic first")
        spec = SweepSpec(
            body=schedule_body, seed=seed, telemetry=False,
            oracle=pack_for(protocol),
            configs=[dict(base, plan=plan) for plan in _plans(
                steps, max_perturbations=max_perturbations,
                max_schedules=max_schedules)])
        seen_hashes: Dict[str, int] = {}
        seen_findings: set = set()

        def census() -> Dict[str, Any]:
            """The exploration's totals so far -- what the report closes
            with, and what ``campaign.end`` carries however it ends."""
            return {"distinct_outcomes": len(seen_hashes),
                    "simulated_events": report.simulated_events,
                    "plans": _plan_census(
                        steps, max_perturbations=max_perturbations,
                        executed=report.schedules)}

        flight.counters = lambda: {"executed": report.schedules,
                                   "findings": len(report.findings),
                                   **census()}
        if capture is not None:
            flight.journal.record(K.CAMPAIGN_CHECKPOINT_CAPTURE,
                                  target=target, depth=depth,
                                  configs=len(spec.configs), **capture)
        for event in journaled_shard(spec, range(len(spec.configs)), pool,
                                     journal=flight.journal):
            if type(event) is not ShardRow:
                continue
            run = event.result
            (applied, events), violations = run.result, run.violations
            digest = root_digest.copy()
            digest.absorb(run.trace)
            outcome_hash = digest.hexdigest()[:16]
            report.simulated_events += events
            codes = sorted({v.code for v in violations})
            novel = outcome_hash not in seen_hashes
            seen_hashes.setdefault(outcome_hash, report.schedules)
            outcome = ScheduleOutcome(perturbations=applied, codes=codes,
                                      violation_count=len(violations),
                                      outcome_hash=outcome_hash,
                                      novel=novel)
            flight.journal.record(
                K.CAMPAIGN_RUN_END, index=report.schedules,
                label=outcome.label, target=target, ok=not codes,
                codes=codes, violations=len(violations),
                outcome=outcome_hash, new_coverage=int(novel),
                coverage_total=len(seen_hashes), prefix=str(event.prefix),
                forked=event.forked)
            # the forked world dies here, before the next schedule runs
            del event, run
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
