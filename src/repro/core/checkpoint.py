"""Checkpoint/fork: snapshot a warmed-up testbed, continue it N ways.

Every fuzz trial, ddmin probe and campaign run used to replay its whole
testbed from t=0 even though most trials share a long prefix (handshake,
view formation, steady state).  This module turns that prefix into a
reusable artifact: :meth:`Checkpoint.capture` freezes a live
:class:`~repro.core.orchestrator.ExperimentEnv` -- scheduler heap with
its bound-state callbacks, protocol sessions hanging off the scheduled
events (TCP connections, GMP daemons/views/timers), installed filter
scripts with their tclish interpreter state, PFI hold queues, the trace
position and the seeded RNG streams -- and every :meth:`Checkpoint.fork`
yields an independent continuation of that exact moment.

The mechanics are a deep copy of the *world graph* rooted at the
environment, made by a :class:`~repro.core.cloneplan.ClonePlan`: the
graph is walked once per checkpoint, in ``copy.deepcopy``'s own order,
and compiled into a flat recipe (one slot per object: pre-filled
container templates, ``cls.__new__`` shells, ``(key -> slot)`` patches,
rebuilt tuples and bound methods) that every fork replays -- no
``__reduce_ex__``, type dispatch or memo lookup per object per fork.
``capture`` adopts the live world as its pristine snapshot and
compiles it once, for the forks; the captured world is not run again
(its scheduler refuses).  On the stock
fuzz prefixes a fork costs about a tenth of what ``deepcopy`` cost
(GMP: 281 objects, 2.6 -> 0.24 ms; TCP: 62 objects, 0.35 -> 0.04 ms;
``docs/performance.md``); an object the compiler does not positively
recognise (a ``__deepcopy__``, ``__setstate__`` or custom ``__reduce__``
hook) is a *fallback*, copied per fork by ``copy.deepcopy`` with a memo
that holds every planned clone -- correct, but paid per fork: with nine
``Link`` and three ``DistributionSet`` objects behind hooks the GMP
figure was x3-4.5, not x11.  :attr:`Checkpoint.plan_stats` says which
classes fell back.

The copy is only sound because the simulator schedules **bound methods
and callable-class instances, never closures**: functions are atomic
values to the plan exactly as they are to ``deepcopy``, so a lambda
stored in a heap entry would keep pointing into the original world and
the fork would silently cross-talk with it.  The capture-time audit
(:func:`repro.staticcheck.audit_pending`) enforces that rule by walking
the pending heap and rejecting any callback whose identity cannot
survive the copy.

Two further pieces make forks cheap and correct:

- the trace prefix is **shared, not copied**: the recorder's slot in
  the plan is :meth:`TraceRecorder.fork`, which reuses the write-once
  entry objects of the prefix, so a million-entry warmup is one list
  slice per fork instead of a copy of every entry;
- forks can be **re-seeded** to a different run seed
  (``fork(seed=...)``), re-deriving the network link streams and every
  ``env.dist(...)`` stream exactly as a cold run under that seed would
  have.  This is valid only while the prefix consumed zero RNG draws --
  the stock rigs satisfy that (links carry no jitter/loss, filter
  scripts are not yet installed) and the draw counters prove it; a
  prefix that did draw raises :class:`CheckpointError` instead of
  diverging silently.

Invalidation rules (also in ``docs/checkpointing.md``): a checkpoint is
tied to the exact prefix code, seed-portable only under the zero-draw
condition above, process-local (never pickled), and its ``identity``
digest is what consumers mix into store keys (see
:meth:`repro.core.orchestrator.ResultStore.key`) so results computed from
different prefixes can never alias.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional

from repro.core.cloneplan import ClonePlan
from repro.core.orchestrator import ExperimentEnv
from repro.netsim.scheduler import SchedulerClock


class CheckpointError(RuntimeError):
    """A world cannot be captured, forked, or re-seeded soundly."""


@dataclass
class Forked:
    """One independent continuation of a checkpoint."""

    env: ExperimentEnv
    roots: Dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        """Convenience access to a named root (``fork["cluster"]``)."""
        return self.roots[key]


class Checkpoint:
    """A frozen moment of one simulation, forkable any number of times.

    ``capture`` adopts the live world as its pristine snapshot and
    compiles it into a clone plan; each ``fork`` replays the plan.  ``roots``
    carries the rig objects a continuation needs back out of the copy
    -- a testbed, a cluster, a client connection -- anything reachable
    from them is copied consistently with the environment because it is
    all one graph under one plan.
    """

    def __init__(self, plan: ClonePlan, *, label: str,
                 identity: str, time: float, position: int):
        self._plan = plan
        self.label = label
        self.identity = identity
        #: virtual time at capture
        self.time = time
        #: trace length at capture
        self.position = position
        #: how many forks this checkpoint has produced
        self.forks = 0

    @property
    def plan_stats(self) -> Dict[str, Any]:
        """What a fork is made of: ``objects`` created per fork and the
        class name of every ``fallback`` object (copied by
        ``copy.deepcopy`` per fork instead of replayed; empty on the
        stock rigs, and where to look when a fork is slow)."""
        return {"objects": self._plan.objects,
                "fallback": list(self._plan.fallback)}

    @classmethod
    def capture(cls, env: ExperimentEnv,
                roots: Optional[Dict[str, Any]] = None, *,
                label: str = "") -> "Checkpoint":
        """Snapshot ``env`` (plus named rig ``roots``) as of right now.

        The world is adopted, not copied: it becomes the snapshot, is
        compiled into the clone plan once, and from here on only its
        forks run -- a run call on its scheduler raises
        :class:`~repro.netsim.scheduler.CapturedWorldError`.  A caller
        that wants to keep going from this moment runs a fork.

        The scheduler heap is compacted first so cancelled tombstones
        are not copied into every fork, and every pending callback is
        vetted by :func:`repro.staticcheck.audit_pending`, which pins
        each finding to the offending function's source line.
        """
        from repro.staticcheck import audit_pending
        static = audit_pending(env.scheduler)
        if static:
            raise CheckpointError(
                "world is not checkpoint-safe (static audit):\n  "
                + "\n  ".join(diag.format(path) for path, diag in static))
        env.scheduler.compact()
        world = {"env": env, "roots": dict(roots or {})}
        # every reference to the recorder lands on a shallow
        # TraceRecorder.fork sharing the prefix's write-once rows; it
        # has no clock, which Checkpoint.fork binds to the copy's
        # scheduler
        checkpoint = cls(ClonePlan(world, {id(env.trace): env.trace.fork}),
                         label=label or f"t={env.scheduler.now:g}",
                         identity=_identity(env, world["roots"], label),
                         time=env.scheduler.now,
                         position=env.trace.position)
        # marked after compiling: the plan's copy of the scheduler, and
        # so every fork, is unmarked
        env.scheduler.captured = checkpoint.label
        return checkpoint

    def fork(self, *, seed: Optional[int] = None) -> Forked:
        """An independent continuation; optionally re-seeded.

        With ``seed`` given (and different from the captured seed), the
        fork's RNG streams are re-derived as a cold run under that seed
        would have derived them -- sound only for zero-draw prefixes,
        enforced by the stream draw counters.
        """
        world = self._plan.clone()
        env: ExperimentEnv = world["env"]
        # the recorder's clone is TraceRecorder.fork(), which has no clock
        env.trace.bind_clock(SchedulerClock(env.scheduler))
        if seed is not None and seed != env.seed:
            try:
                env.reseed(seed)
            except RuntimeError as err:
                raise CheckpointError(
                    f"checkpoint {self.label!r} cannot be re-seeded: "
                    f"{err}") from err
        self.forks += 1
        return Forked(env=env, roots=world["roots"])

    def teardown(self) -> None:
        """End the snapshot world (:meth:`ExperimentEnv.teardown`), so it
        dies by reference counting once the checkpoint is dropped.  Call
        it when no further fork will be made: a torn-down snapshot forks
        torn-down worlds."""
        self._plan.root["env"].teardown()

    def __repr__(self) -> str:
        plan = self._plan
        fallback = (f", fallback={_tally(plan.fallback)}"
                    if plan.fallback else "")
        return (f"Checkpoint({self.label}, t={self.time:g}, "
                f"entries={self.position}, forks={self.forks}, "
                f"objects={plan.objects}{fallback})")


class CheckpointPool:
    """Live checkpoints by key, held as long as the pool is.

    A pool is how a caller shares prefixes across :func:`~repro.core
    .orchestrator.execute_shard` calls: the fuzz loop and the shrinker
    keep one per session, which is what makes a group of one worth
    capturing there.  Such a pool needs no bound: its keys are one per
    (protocol, target, depth), a handful per session.

    ``get`` counts a hit or a miss.
    """

    def __init__(self):
        self._items: Dict[Hashable, Checkpoint] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def entries(self) -> int:
        """Total retained trace entries across pooled snapshots."""
        return sum(cp.position for cp in self._items.values())

    def get(self, key: Hashable) -> Optional[Checkpoint]:
        """The pooled checkpoint under ``key``, or ``None`` (a miss)."""
        checkpoint = self._items.get(key)
        if checkpoint is None:
            self.misses += 1
            return None
        self.hits += 1
        return checkpoint

    def put(self, key: Hashable, checkpoint: Checkpoint) -> Checkpoint:
        """Pool ``checkpoint`` under ``key``."""
        self._items[key] = checkpoint
        return checkpoint

    def clear(self) -> None:
        """Drop every pooled snapshot (the counters are kept)."""
        self._items.clear()

    def stats(self) -> Dict[str, int]:
        """Reuse counters for reports: hits/misses/size."""
        return {"hits": self.hits, "misses": self.misses,
                "items": len(self._items), "entries": self.entries}

    def __repr__(self) -> str:
        return (f"CheckpointPool(items={len(self._items)}, "
                f"entries={self.entries}, hits={self.hits}, "
                f"misses={self.misses})")


def _tally(names: List[str]) -> str:
    """``["Link", "Link", "Timer"]`` -> ``"Link×2 Timer×1"``."""
    counts = Counter(names)
    return " ".join(f"{name}×{counts[name]}" for name in sorted(counts))


def _identity(env: ExperimentEnv, roots: Dict[str, Any],
              label: str) -> str:
    """A content digest naming what this checkpoint is a snapshot *of*.

    Mixes the capture label, seed, scheduler progress and the trace's
    per-kind histogram: two checkpoints built by different prefix code,
    depths or seeds get different identities, which is what cache keys
    need (full byte-level state hashing would cost more than the fork
    it protects).
    """
    digest = hashlib.sha256()
    digest.update(label.encode())
    digest.update(str(env.seed).encode())
    digest.update(f"{env.scheduler.now!r}".encode())
    digest.update(str(env.scheduler.dispatched_count).encode())
    digest.update(str(env.trace.position).encode())
    for kind, count in sorted(env.trace.count_by_kind().items()):
        digest.update(f"{kind}={count};".encode())
    digest.update(",".join(sorted(roots)).encode())
    return digest.hexdigest()[:16]
