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
``capture`` makes its pristine snapshot by compiling and cloning the
live world, then compiles the snapshot for the forks.  On the stock
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
the fork would silently cross-talk with it.  :func:`audit_scheduler`
enforces that rule at capture time by walking the pending heap and
rejecting any callback whose identity cannot survive the copy.

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

Checkpoints form **trees**: ``capture`` also accepts a :class:`Forked`
continuation, snapshotting the branch mid-flight with the originating
checkpoint recorded as ``parent`` and its digest chained into the
child's ``identity`` -- so two branches that diverged from the same
root but applied different perturbations can never alias either.  Deep
trees are kept affordable by :class:`CheckpointPool`, an LRU store
bounded by snapshot count and retained trace entries (the live-memory
proxy for a snapshot, since worlds are never pickled).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Union

from repro.core.cloneplan import ClonePlan
from repro.core.orchestrator import ExperimentEnv
from repro.netsim.scheduler import Scheduler, SchedulerClock

#: default-argument types a plain scheduled function may carry without
#: smuggling world state past the copy
_ATOMIC_DEFAULTS = (int, float, str, bytes, bool, frozenset, type(None))


class CheckpointError(RuntimeError):
    """A world cannot be captured, forked, or re-seeded soundly."""


def _callable_issue(fn: Any, where: str) -> Optional[str]:
    """Why ``fn`` would not survive a world copy, or None if it would.

    Bound methods and callable-class instances are rebuilt around the
    fork's own objects; plain functions are atomic, which is fine only when
    they are genuinely stateless (no closure cells, no mutable/world
    defaults).
    """
    if isinstance(fn, functools.partial):
        return _callable_issue(fn.func, where)
    if inspect.ismethod(fn):
        return None  # bound method: rebuilt around the copy of __self__
    if inspect.isfunction(fn):
        if fn.__closure__:
            return (f"{where}: closure {fn.__qualname__} would keep "
                    f"referencing the original world after a fork")
        for default in (fn.__defaults__ or ()):
            if not isinstance(default, _ATOMIC_DEFAULTS):
                return (f"{where}: function {fn.__qualname__} smuggles a "
                        f"{type(default).__name__} through a default "
                        f"argument; pass it via scheduler args instead")
        return None
    if callable(fn):
        return None  # callable instance: copied like any world object
    return f"{where}: {fn!r} is not callable"


def audit_scheduler(scheduler: Scheduler) -> List[str]:
    """Deepcopy-safety issues among the scheduler's pending callbacks.

    Returns human-readable findings (empty means the heap is clean).
    :meth:`Checkpoint.capture` runs this by default and refuses to
    snapshot a world that would fork unsoundly.
    """
    issues = []
    for event in scheduler.pending_events():
        issue = _callable_issue(
            event.callback, f"event@t={event.time:.6f}")
        if issue is not None:
            issues.append(issue)
    return issues


@dataclass
class Forked:
    """One independent continuation of a checkpoint."""

    env: ExperimentEnv
    roots: Dict[str, Any]
    checkpoint: "Checkpoint"

    def __getitem__(self, key: str) -> Any:
        """Convenience access to a named root (``fork["cluster"]``)."""
        return self.roots[key]


class Checkpoint:
    """A frozen moment of one simulation, forkable any number of times.

    ``capture`` copies the live world once into a pristine snapshot (so
    the caller may keep running the original) and compiles the snapshot
    into a clone plan; each ``fork`` replays the plan.  ``roots``
    carries the rig objects a continuation needs back out of the copy
    -- a testbed, a cluster, a client connection -- anything reachable
    from them is copied consistently with the environment because it is
    all one graph under one plan.
    """

    def __init__(self, plan: ClonePlan, *, label: str,
                 identity: str, time: float, position: int,
                 parent: Optional["Checkpoint"] = None):
        self._plan = plan
        self.label = label
        self.identity = identity
        #: virtual time at capture
        self.time = time
        #: trace length at capture
        self.position = position
        #: how many forks this checkpoint has produced
        self.forks = 0
        #: the checkpoint this one's branch was forked from (None: root)
        self.parent = parent

    @property
    def plan_stats(self) -> Dict[str, Any]:
        """What a fork is made of: ``objects`` created per fork and the
        class name of every ``fallback`` object (copied by
        ``copy.deepcopy`` per fork instead of replayed; empty on the
        stock rigs, and where to look when a fork is slow)."""
        return {"objects": self._plan.objects,
                "fallback": list(self._plan.fallback)}

    @property
    def depth(self) -> int:
        """Distance from the tree root (0 for a root checkpoint)."""
        depth = 0
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    @classmethod
    def capture(cls, env: Union[ExperimentEnv, "Forked"],
                roots: Optional[Dict[str, Any]] = None, *,
                label: str = "", audit: bool = True) -> "Checkpoint":
        """Snapshot ``env`` (plus named rig ``roots``) as of right now.

        ``env`` may also be a :class:`Forked` continuation, in which
        case the branch is captured mid-flight as a *nested* checkpoint:
        its ``roots`` default to the fork's roots, its ``parent`` is the
        checkpoint the branch came from, and the parent's digest is
        chained into the child's ``identity`` so siblings that diverged
        differently from the same root never alias.  The fork keeps
        running after the capture, exactly like a root env does.

        The scheduler heap is compacted first so cancelled tombstones
        are not copied into every fork, and (unless ``audit=False``)
        every pending callback is vetted twice: first by the *static*
        audit (:func:`repro.staticcheck.audit_pending`), which pins
        each finding to the offending function's source line, then by
        the runtime :func:`audit_scheduler` for anything the static
        pass cannot see.
        """
        parent: Optional[Checkpoint] = None
        if isinstance(env, Forked):
            forked = env
            env = forked.env
            parent = forked.checkpoint
            if roots is None:
                roots = forked.roots
        if audit:
            from repro.staticcheck import audit_pending
            static = audit_pending(env.scheduler,
                                   atomic=_ATOMIC_DEFAULTS)
            if static:
                raise CheckpointError(
                    "world is not checkpoint-safe (static audit):\n  "
                    + "\n  ".join(diag.format(path)
                                  for path, diag in static))
            issues = audit_scheduler(env.scheduler)
            if issues:
                raise CheckpointError(
                    "world is not checkpoint-safe:\n  "
                    + "\n  ".join(issues))
        env.scheduler.compact()
        world = {"env": env, "roots": dict(roots or {})}
        snapshot = _world_plan(world).clone()
        identity = _identity(env, world["roots"], label, parent=parent)
        return cls(_world_plan(snapshot),
                   label=label or f"t={env.scheduler.now:g}",
                   identity=identity, time=env.scheduler.now,
                   position=env.trace.position, parent=parent)

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
        return Forked(env=env, roots=world["roots"], checkpoint=self)

    def __repr__(self) -> str:
        lineage = f", depth={self.depth}" if self.parent is not None else ""
        plan = self._plan
        fallback = (f", fallback={_tally(plan.fallback)}"
                    if plan.fallback else "")
        return (f"Checkpoint({self.label}, t={self.time:g}, "
                f"entries={self.position}, forks={self.forks}{lineage}, "
                f"objects={plan.objects}{fallback})")


class CheckpointPool:
    """LRU store of live checkpoints, optionally bounded by count.

    Each snapshot retains a full world graph, so ``max_items`` caps how
    many a pool keeps alive: ``put`` evicts the least-recently-used
    snapshot past it (``execute_shard`` keeps one, ``repro fuzz`` eight).
    An unbounded pool (the default) is for a holder that releases what
    it is done with: the explorer, which knows its future, ``discard``\\s
    each branch checkpoint once no later schedule forks it.

    ``get`` refreshes recency and counts a hit; a miss (including a
    previously evicted key) counts against ``misses``.  A pool is also
    how a caller shares prefixes across :func:`~repro.core.orchestrator
    .execute_shard` calls: the fuzz loop and the shrinker keep one per
    session, which is what makes a group of one worth capturing there.
    """

    def __init__(self, max_items: Optional[int] = None):
        self._items: "OrderedDict[Hashable, Checkpoint]" = OrderedDict()
        self.max_items = max_items
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._items

    @property
    def entries(self) -> int:
        """Total retained trace entries across pooled snapshots."""
        return sum(cp.position for cp in self._items.values())

    def keys(self) -> List[Hashable]:
        """Live keys, LRU-first (for ancestor search over a tree)."""
        return list(self._items.keys())

    def get(self, key: Hashable) -> Optional[Checkpoint]:
        """The pooled checkpoint under ``key``, refreshed as most recent."""
        checkpoint = self._items.get(key)
        if checkpoint is None:
            self.misses += 1
            return None
        self._items.move_to_end(key)
        self.hits += 1
        return checkpoint

    def put(self, key: Hashable, checkpoint: Checkpoint) -> Checkpoint:
        """Pool ``checkpoint`` under ``key``, evicting LRU past
        ``max_items``."""
        self._items[key] = checkpoint
        self._items.move_to_end(key)
        while (self.max_items is not None
               and len(self._items) > self.max_items):
            self._items.popitem(last=False)
            self.evictions += 1
        return checkpoint

    def discard(self, key: Hashable) -> None:
        """Release ``key``'s snapshot if pooled (not an eviction: the
        holder is done with it)."""
        self._items.pop(key, None)

    def clear(self) -> None:
        """Drop every pooled snapshot (the counters are kept)."""
        self._items.clear()

    def stats(self) -> Dict[str, int]:
        """Reuse counters for reports: hits/misses/evictions/size."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "items": len(self._items),
                "entries": self.entries}

    def __repr__(self) -> str:
        return (f"CheckpointPool(items={len(self._items)}, "
                f"entries={self.entries}, hits={self.hits}, "
                f"misses={self.misses}, evictions={self.evictions})")


def _world_plan(world: Dict[str, Any]) -> ClonePlan:
    """Compile a world graph, sharing the trace prefix.

    Every reference to the environment's recorder lands on a shallow
    :meth:`TraceRecorder.fork` that reuses the prefix's write-once entry
    objects.  The fork has no clock; :meth:`Checkpoint.fork` binds the
    copy's scheduler (a snapshot is never run, so it needs none).
    """
    trace = world["env"].trace
    return ClonePlan(world, {id(trace): trace.fork})


def _tally(names: List[str]) -> str:
    """``["Link", "Link", "Timer"]`` -> ``"Link×2 Timer×1"``."""
    counts = Counter(names)
    return " ".join(f"{name}×{counts[name]}" for name in sorted(counts))


def _identity(env: ExperimentEnv, roots: Dict[str, Any],
              label: str, *, parent: Optional[Checkpoint] = None) -> str:
    """A content digest naming what this checkpoint is a snapshot *of*.

    Mixes the capture label, seed, scheduler progress and the trace's
    per-kind histogram: two checkpoints built by different prefix code,
    depths or seeds get different identities, which is what cache keys
    need (full byte-level state hashing would cost more than the fork
    it protects).  A nested checkpoint additionally chains its parent's
    digest, so the identity names the whole branch path from the root,
    not just the local scheduler position.
    """
    digest = hashlib.sha256()
    if parent is not None:
        digest.update(b"parent:")
        digest.update(parent.identity.encode())
    digest.update(label.encode())
    digest.update(str(env.seed).encode())
    digest.update(f"{env.scheduler.now!r}".encode())
    digest.update(str(env.scheduler.dispatched_count).encode())
    digest.update(str(env.trace.position).encode())
    for kind, count in sorted(env.trace.count_by_kind().items()):
        digest.update(f"{kind}={count};".encode())
    digest.update(",".join(sorted(roots)).encode())
    return digest.hexdigest()[:16]
