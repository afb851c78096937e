"""Experiment orchestration.

An :class:`ExperimentEnv` bundles the shared infrastructure every
experiment needs -- one scheduler, one network, one trace, one sync object,
seeded distributions -- so experiment modules read as: build env, attach
protocol machinery, install filter scripts, run, query the trace.

:class:`Campaign` runs the same experiment body across a parameter sweep
(e.g. the four TCP vendor profiles) and collects per-configuration
results -- the engine under ``repro sweep``, the fuzzer's batches and the
shrinker's probes.  (The paper-table modules in :mod:`repro.experiments`
do not go through it: they loop over ``VENDORS`` themselves.)

Every sweep, on every backend, is one lifecycle, :func:`run_sweep`,
inside one :class:`~repro.obs.journal.Flight`: ``campaign.start`` ->
journaled preflight -> plan -> rows from a transport -> result slots
and progress -> ``campaign.end``.
``Campaign.run`` only folds its arguments into the
:class:`~repro.core.fabric.spec.SweepSpec` that function takes; ``repro
sweep`` and the chaos rig hand it the spec they already hold.  Three
steps do the work:

**plan** -- the spec (in memory; pickled only when a ``fabric_dir`` is
given) derives what the sweep is addressed by: store keys, prefix keys,
digest.  A store probe (:meth:`ShardSink.plan`) splits the
configurations into rows already held and the *todo*.

**execute** -- :func:`execute_shard` is the only loop that runs
configurations: group a shard's indices by prefix key, capture a group's
warm prefix once when two or more members need it (one, when the caller
keeps the pool), fork it per member, fall back cold on
``CheckpointError`` -- on top of :func:`run_one`, the
only place a run seed is derived and the place a world is built, run,
judged and torn down.  It yields events and knows nothing of
stores, journals or sockets.

**sink** -- :class:`ShardSink` publishes each row in crash-safe order,
``store.put`` -> journal ``run_end`` -> tally, so a row the journal claims
is a row the store holds and prefix-sharing statistics mean one thing.
It encodes the row's trace first, so the rows a sweep returns hold
pickles, not live recorders.

A *transport* only decides where :func:`execute_shard` runs and how its
rows reach the lifecycle.  In-process (serial is "one shard, here"): the
todo is drained through the sink on the spot.  Process pool: workers
return their chunk's events, the parent drains them through the same
sink.  Sockets fabric (:mod:`repro.core.fabric`): each worker sinks its
lease into the shared store and its own shard journal and heartbeats
after every row; the coordinator loads a completed shard's rows back
from the store and only tallies them.  Pool chunks and fabric leases are
cut by the one partitioner, :func:`_prefix_chunks`.

The pool is persistent (one per process, grown on demand, torn down at
interpreter exit), so a large sweep pays worker startup once and pickles
one task per chunk.  ``workers`` means one thing on every transport
(:func:`_resolve_workers`): a process count, or ``"auto"``.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field as dataclass_field, replace
from pathlib import Path
from time import perf_counter
from types import CodeType
from typing import (Any, Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple, Union)

from repro.core.distributions import DistributionSet, derive_seed
from repro.core.envelope import seal, unseal
from repro.core.script import ScriptFault
from repro.core.sync import ScriptSync
from repro.netsim import kinds as K
from repro.netsim.network import Network
from repro.netsim.scheduler import Scheduler, SchedulerClock, SchedulerError
from repro.netsim.trace import TraceRecorder
from repro.obs.journal import NULL_JOURNAL, Flight, Journal, NullJournal
from repro.obs.telemetry import RunTelemetry, _config_label

#: sweeps smaller than this get one process under ``workers="auto"`` (this
#: one, or one fabric worker); worker startup + pickling dominates below it
_AUTO_SERIAL_THRESHOLD = 4

#: transports ``Campaign.run(backend=...)`` can execute a sweep on
BACKENDS = ("local", "sockets")

#: the prefix-sharing counters of a ``campaign.end`` payload
PREFIX_STATS = ("prefix_captures", "prefix_forks", "prefix_fallbacks")

#: shards (pool chunks, fabric leases) cut per worker -- small enough to
#: amortize dispatch, large enough that one slow shard cannot serialize
#: the whole sweep
_CHUNKS_PER_WORKER = 4


@dataclass
class ExperimentEnv:
    """Shared infrastructure for one experiment run."""

    scheduler: Scheduler
    network: Network
    trace: TraceRecorder
    sync: ScriptSync
    seed: int
    #: every stream handed out by :meth:`dist`, so a checkpoint fork can
    #: re-derive all of them under a new run seed (see :meth:`reseed`)
    dists: List[DistributionSet] = dataclass_field(default_factory=list)

    def dist(self, *labels) -> DistributionSet:
        """A deterministic distribution stream derived from the run seed."""
        stream = DistributionSet(derive_seed(self.seed, *labels),
                                 labels=labels)
        self.dists.append(stream)
        return stream

    def reseed(self, seed: int) -> None:
        """Re-target this environment (a checkpoint fork) to a new seed.

        Re-derives the network's link streams and every
        :meth:`dist`-issued stream exactly as a cold run under ``seed``
        would have, which is only sound while none of them has been
        drawn from yet -- a stream consumed during the checkpointed
        prefix would make the fork diverge from the cold run, so that
        case raises instead (the checkpoint layer surfaces it as a
        ``CheckpointError``).
        """
        consumed = [d for d in self.dists if d.draws]
        if consumed:
            raise RuntimeError(
                f"{len(consumed)} distribution stream(s) drew from their "
                f"RNG before the reseed (labels "
                f"{[d.labels for d in consumed]}); checkpoint is not "
                f"seed-portable")
        self.network.reseed(seed)
        self.seed = seed
        for stream in self.dists:
            if stream.labels is not None:
                stream.reseed(derive_seed(seed, *stream.labels))

    def teardown(self) -> None:
        """End this world, so it dies by reference counting.

        A world is a web of reference cycles: a queued event reaches a
        timer that reaches its owner, a layer holds its neighbours both
        ways, a node holds its network.  This empties the scheduler's
        queue, detaches the trace from the clock (the trace outlives the
        world as rows) and takes every node off the network, which
        dismantles its stack (:meth:`~repro.netsim.node.Node.teardown`).
        It is called where a world ends: by :func:`run_one` once the run
        is judged (a world is built, run, judged and torn down there),
        and by :meth:`Checkpoint.teardown` once no further fork of a
        captured world will be made.
        """
        self.scheduler.clear()
        self.trace.bind_clock(None)
        self.network.teardown()

    def run_until(self, deadline: float, max_events: int = 2_000_000) -> int:
        """Advance virtual time to ``deadline``."""
        return self.scheduler.run_until(deadline, max_events=max_events)

    def run_until_quiet(self, max_time: float = 1e9,
                        max_events: int = 2_000_000) -> float:
        """Run until no events remain (or max_time); returns final time."""
        try:
            self.scheduler.run_until_quiet(max_time, max_events=max_events)
        except SchedulerError as err:
            raise RuntimeError("experiment did not quiesce") from err
        return self.scheduler.now


def make_env(seed: int = 0, *, default_latency: float = 0.001) -> ExperimentEnv:
    """Construct a fresh environment with everything wired together."""
    scheduler = Scheduler()
    trace = TraceRecorder(clock=SchedulerClock(scheduler))
    network = Network(scheduler, default_latency=default_latency,
                      seed=seed, trace=trace)
    return ExperimentEnv(scheduler=scheduler, network=network, trace=trace,
                         sync=ScriptSync(), seed=seed)


@dataclass
class RunResult:
    """The outcome of one experiment configuration.

    ``telemetry`` carries per-run timing and volume figures
    (:class:`~repro.obs.telemetry.RunTelemetry`); it is ``None`` when the
    campaign ran with ``telemetry=False``.  ``violations`` holds the
    :class:`~repro.oracle.Violation` list from the campaign's conformance
    oracle (``Campaign.run(..., oracle=...)``); it is ``None`` when no
    oracle ran, and ``[]`` when one ran and found the trace clean.

    A row carries its trace as a nested pickle (``bytes``,
    :func:`_encode_trace`) once :class:`ShardSink` has published it, or
    once it was pickled: every row a sweep returns, whichever transport
    ran it or whether the store held it, therefore holds the trace
    encoded until ``trace`` is first read, which decodes it once
    (through the recorder's own shape check) and keeps the recorder.  A
    sweep that only scores its rows never decodes one, and a row pickled
    again before its trace is read passes the same bytes on untouched.
    A row straight from :func:`run_one` (the explorer's and the fuzz
    loop's, which read every trace at once) and one whose trace does not
    pickle hold it live.  ``"trace" in vars(row)`` tells the two apart.
    """

    config: Dict[str, Any]
    result: Any
    trace: TraceRecorder
    telemetry: Optional[RunTelemetry] = None
    violations: Optional[List[Any]] = None
    #: ``{"command", "line", "message"}`` when the run's filter script
    #: failed, which ended the run there (its violations then carry a
    #: ``PFI-SCRIPT-ERROR``, oracle or not); ``None`` otherwise.  Set on
    #: the instance only when it is not ``None``, so a clean row pickles
    #: exactly as it did before the field existed.
    script_error = None   # not a dataclass field: see above

    def ok(self) -> bool:
        """True when the run's oracle (if any) reported no violations."""
        return not self.violations

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        _encode_trace(state)
        return state

    def __getattr__(self, name: str) -> Any:
        # reached only for a name the instance dict lacks: for ``trace``,
        # a row whose trace is still the pickle it arrived as
        state = self.__dict__
        if name == "trace" and _ENCODED_TRACE in state:
            self.trace = trace = pickle.loads(state[_ENCODED_TRACE])
            del state[_ENCODED_TRACE]
            return trace
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")


#: where a :class:`RunResult` keeps its trace while it is still encoded
_ENCODED_TRACE = "_trace_pickle"


def _encode_trace(state: Dict[str, Any]) -> None:
    """Swap the live trace in a row's ``state`` for its pickle.

    The one encoder: :meth:`RunResult.__getstate__` runs it on a copy
    of the instance dict, :meth:`ShardSink._publish` on the row itself.
    A state whose trace is encoded already is left as it is.  Raises
    what ``pickle.dumps`` raises, with ``state`` untouched.
    """
    if "trace" in state:
        encoded = pickle.dumps(state["trace"])
        del state["trace"]
        state[_ENCODED_TRACE] = encoded


def _hash_code(digest, code) -> None:
    """Mix a code object into ``digest``, process-stably.

    Nested code objects (inner functions, comprehensions) are hashed
    structurally -- name, bytecode, then their own consts -- instead of
    through ``repr``, whose ``<code object ... at 0x...>`` form embeds a
    memory address and would therefore derive a different key in every
    process.  The fabric's shared result store depends on this: workers
    and the coordinator must address the same row by the same key.
    """
    digest.update(code.co_name.encode())
    digest.update(code.co_code)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            _hash_code(digest, const)
        else:
            digest.update(repr(const).encode())


def _hash_callable(digest, fn, *, code: bool = True) -> None:
    """Mix a callable's identity into ``digest``: module, qualname and,
    with ``code``, its compiled bytecode (:func:`_hash_code`).

    The one hasher behind store keys, prefix digests and spec digests,
    so all three name a body the same way.  Oracles are hashed by name
    only (``code=False``).
    """
    digest.update(getattr(fn, "__module__", "").encode())
    digest.update(getattr(fn, "__qualname__", repr(fn)).encode())
    fn_code = getattr(fn, "__code__", None) if code else None
    if fn_code is not None:
        _hash_code(digest, fn_code)


def _sweep_digest(body: Callable, seed: int, telemetry: bool):
    """The hasher over the part of a store key every row of a sweep
    shares: the body parts, the seed and the telemetry flag."""
    digest = hashlib.sha256()
    # split bodies (PrefixedBody) expose their parts so the key covers
    # the prefix *and* continuation bytecode, not the wrapper instance
    # whose repr would churn per process
    parts = getattr(body, "cache_parts", None)
    for fn in (parts() if callable(parts) else (body,)):
        _hash_callable(digest, fn)
    digest.update(str(seed).encode())
    digest.update(b"telemetry" if telemetry else b"bare")
    return digest


class ResultStore:
    """Content-addressed, multi-writer store of pickled :class:`RunResult`.

    The ``store/`` of a campaign directory (``fabric_dir``), which fabric
    workers, the coordinator and in-process sweeps read and write
    concurrently; a sweep has a store only through such a directory
    (``RunCache`` is the same class under its older name).  The key
    hashes everything that determines a configuration's outcome: the
    body's module, qualname and compiled bytecode, the campaign seed,
    the configuration contents, and the telemetry flag.  Editing the
    body, changing the seed, or touching the config therefore all miss
    naturally -- there is no invalidation step; stale entries are simply
    never addressed again (delete the directory to reclaim the space).

    Because a key fully determines its value, two writers racing on one
    key write byte-identical pickles and either winner is correct;
    :meth:`put` only has to make each write atomic and collision-free
    (per-writer temp names, ``os.replace``).  Resume falls out for free:
    a completed row loads under its key, and anything else -- absent,
    truncated, corrupt, foreign, or written in another format -- is a
    counted miss that is re-executed and overwritten.  Every entry is
    sealed (:mod:`repro.core.envelope`: magic, format version, crc32 of
    the payload), and the seal is checked before anything is unpickled,
    so a row whose trace stays encoded still fails at probe time when
    its bytes are damaged.  :meth:`probe` is both the resume ledger and
    the loader, so "is it done?" and "give it to me" cannot disagree.

    Configuration values that cannot be pickled deterministically fall
    back to ``repr``; a repr that embeds an object id yields a fresh key
    every process -- a guaranteed miss, never a wrong hit.  The store is
    opt-in (a ``fabric_dir``) because a stored row skips the body
    entirely: a hit's wall-time telemetry is the original run's, and the
    body's side effects (prints, files) do not reoccur.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        #: ``root`` as a string ending in a separator: entry paths are
        #: built by string concatenation, not a pathlib join per key
        self._prefix = os.path.join(str(self.root), "")
        self.hits = 0
        self.misses = 0
        # distinct temp names per writer *and* per write: concurrent
        # workers (and a worker respawned with a recycled pid) can never
        # clobber each other's in-flight temp file
        self._tmp_seq = itertools.count()

    def key(self, body: Callable, seed: int, config: Dict[str, Any], *,
            telemetry: bool, oracle: Optional[Callable] = None,
            checkpoint: Optional[str] = None, _sweep=None) -> str:
        # ``_sweep``: the hasher :func:`_sweep_digest` built once for a
        # whole sweep (``SweepSpec.store_keys``); this row continues a copy
        digest = (_sweep_digest(body, seed, telemetry) if _sweep is None
                  else _sweep.copy())
        if checkpoint is not None:
            # results computed by continuing a checkpoint are only
            # interchangeable with runs from the *same* captured prefix:
            # mix the checkpoint identity in so a changed prefix (other
            # depth, other warmup code) can never address a stale entry
            digest.update(b"checkpoint:")
            digest.update(str(checkpoint).encode())
        if oracle is not None:
            _hash_callable(digest, oracle, code=False)
        for k in sorted(config):
            digest.update(k.encode())
            value = config[k]
            try:
                digest.update(pickle.dumps(value))
            except Exception:
                digest.update(repr(value).encode())
        return digest.hexdigest()

    def _file(self, key: str) -> str:
        return f"{self._prefix}{key[:2]}{os.sep}{key}.pkl"

    def _path(self, key: str) -> Path:
        return Path(self._file(key))

    def get(self, key: str) -> Optional[RunResult]:
        """The stored result, or ``None`` -- a counted miss -- for anything
        that is not an intact envelope (:mod:`repro.core.envelope`) around
        a pickled :class:`RunResult`.  The row comes back with its trace
        still encoded."""
        try:
            with open(self._file(key), "rb") as fh:
                result = unseal(fh.read())
        except Exception:
            result = None
        if not isinstance(result, RunResult):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: RunResult) -> bool:
        """Store one result atomically, sealed; False if it is not
        picklable."""
        try:
            blob = seal(result)
        except Exception:
            return False
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{next(self._tmp_seq)}.tmp")
        tmp.write_bytes(blob)
        os.replace(tmp, path)
        return True

    def probe(self, keys: Sequence[str]
              ) -> Tuple[List[Optional[RunResult]], List[int]]:
        """Load every key once: ``(results-or-None, indices of the Nones)``."""
        slots = [self.get(key) for key in keys]
        return slots, [index for index, result in enumerate(slots)
                       if result is None]

    def missing(self, keys: Sequence[str]) -> List[int]:
        """Indices of ``keys`` with no loadable result (the sweep's todo)."""
        return self.probe(keys)[1]

    def load_all(self, keys: Sequence[str]) -> List[RunResult]:
        """Every key's result, in order; raises if any is missing."""
        slots, todo = self.probe(keys)
        if todo:
            raise RuntimeError(
                f"result store {self.root} is missing row {todo[0]} "
                f"(key {keys[todo[0]][:12]}...)")
        return slots


#: the store's pre-fabric name (``benchmarks/e2e/tracing.py`` wraps it)
RunCache = ResultStore


class CampaignScriptError(ValueError):
    """One or more campaign configs carry scripts that fail lint.

    Raised before any configuration executes; ``reports`` holds one
    :class:`~repro.core.tclish.lint.LintReport` per broken script so the
    message lists every diagnostic of every config, not just the first.
    """

    def __init__(self, reports):
        from repro.core.tclish.lint.reporting import render_text
        self.reports = list(reports)
        text = "\n".join(render_text(report) for report in self.reports)
        super().__init__(
            f"campaign refused to start: {len(self.reports)} "
            f"source(s) failed the static check\n{text}")


# ----------------------------------------------------------------------
# persistent worker pool
# ----------------------------------------------------------------------

_pool: Optional[ProcessPoolExecutor] = None
_pool_size = 0


def _get_pool(size: int) -> ProcessPoolExecutor:
    """The process-wide campaign pool, grown (never shrunk) to ``size``.

    Keeping one pool alive across ``Campaign.run`` calls means a bench
    loop or notebook session pays worker startup once, not per sweep.
    """
    global _pool, _pool_size
    if _pool is not None and _pool_size >= size:
        return _pool
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
    _pool = ProcessPoolExecutor(max_workers=size)
    _pool_size = size
    return _pool


def _shutdown_pool() -> None:
    global _pool, _pool_size
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None
        _pool_size = 0


atexit.register(_shutdown_pool)


#: roots key a non-dict prefix state travels under through a checkpoint
_STATE_ROOT = "__prefix_state__"


class PrefixedBody:
    """A campaign body split at a shareable warm prefix.

    ``prefix(env, config)`` simulates the part many configurations have
    in common (handshake, view formation, steady state) and returns the
    rig state the rest of the run needs; ``continuation(env, state,
    config)`` runs the part that varies and returns the run's result.
    Called directly (``body(env, config)``) it executes prefix then
    continuation back to back -- that cold path is the byte-identity
    reference the grouped scheduler is checked against.

    ``key`` maps a configuration to its *prefix key*: configurations
    with equal keys promise byte-identical prefix behaviour (same
    simulated events, zero RNG draws -- the checkpoint reseed contract),
    so :meth:`Campaign.run` may capture the prefix once per group and
    fork it per configuration.  A key of ``None`` opts the configuration
    out of grouping (it always runs cold).

    Instances are SC101-clean callable objects; with module-level
    ``prefix``/``continuation``/``key`` functions they pickle, so a split
    body works under parallel campaigns unchanged.
    """

    def __init__(self, prefix: Callable[[ExperimentEnv, Dict[str, Any]], Any],
                 continuation: Callable[[ExperimentEnv, Any,
                                         Dict[str, Any]], Any],
                 key: Callable[[Dict[str, Any]], Optional[str]]):
        self.prefix = prefix
        self.continuation = continuation
        self.key = key
        self.__module__ = getattr(continuation, "__module__",
                                  type(self).__module__)
        self.__qualname__ = (
            f"PrefixedBody({getattr(prefix, '__qualname__', repr(prefix))}"
            f"+{getattr(continuation, '__qualname__', repr(continuation))})")

    def __call__(self, env: ExperimentEnv, config: Dict[str, Any]) -> Any:
        state = self.prefix(env, config)
        return self.continuation(env, state, config)

    def prefix_key(self, config: Dict[str, Any]) -> Optional[str]:
        """The grouping key for one configuration (None: never group)."""
        return self.key(config)

    def cache_parts(self) -> Tuple[Callable, ...]:
        """The callables whose code determines results (for cache keys)."""
        return (self.prefix, self.continuation)

    def __repr__(self) -> str:
        return f"<{self.__qualname__}>"


def _prefix_digest(body: PrefixedBody, key: Any) -> str:
    """A static digest naming one (prefix code, prefix key) pair.

    Deterministic *before* any capture happens -- unlike a captured
    checkpoint's ``identity`` -- so cache pre-passes can mix it into
    :meth:`ResultStore.key` and let fully-stored groups skip capture
    entirely, while a changed prefix function or key still misses.
    """
    digest = hashlib.sha256()
    _hash_callable(digest, body.prefix)
    digest.update(repr(key).encode())
    return digest.hexdigest()[:16]


def _prefix_groups(todo: Iterable[int], keys: Sequence[Optional[Any]]
                   ) -> List[Tuple[Optional[Any], List[int]]]:
    """Group sweep indices by prefix key, in first-appearance order.

    ``None``-keyed configurations stay singleton groups (they always run
    cold); every other key collects all its indices into one group even
    when they are scattered through the input, which is what lets one
    capture serve the whole group.  ``keys`` lists the prefix key of
    every configuration of the sweep, by index.
    """
    groups: List[Tuple[Optional[Any], List[int]]] = []
    by_key: Dict[Any, List[int]] = {}
    for index in todo:
        key = keys[index]
        if key is None:
            groups.append((None, [index]))
        elif key in by_key:
            by_key[key].append(index)
        else:
            members = [index]
            by_key[key] = members
            groups.append((key, members))
    return groups


def _prefix_chunks(todo: List[int], keys: List[Optional[Any]],
                   workers: int) -> List[List[int]]:
    """Cut the todo into shards -- pool chunks, fabric leases -- that
    keep prefix groups whole.

    Cutting the todo into equal contiguous slices can land one group's
    configurations in two workers' shards, paying the prefix capture
    twice.  This packs whole groups into shards instead, under two
    budgets: small groups pack up to the fine-grained load-balancing
    size (:data:`_CHUNKS_PER_WORKER` shards per worker -- losing a
    fabric worker strands at most that fraction of the sweep behind one
    lease), but a group is only *split* -- duplicating its capture --
    when it alone exceeds a worker's fair share of the sweep: one
    duplicate capture beats an idle core, on the fabric exactly as on
    the pool.  An unsplit body's keys are all ``None`` (singleton
    groups), for which this degenerates to exactly those equal
    contiguous slices.  Result assembly stays input-ordered regardless,
    because results land in slots by global index.
    """
    groups = _prefix_groups(todo, keys)
    target = max(1, min(len(todo), workers * _CHUNKS_PER_WORKER))
    pack_size = -(-len(todo) // target)  # ceil division
    split_size = -(-len(todo) // max(1, workers))
    chunks: List[List[int]] = []
    current: List[int] = []
    for _key, indices in groups:
        if len(indices) > split_size:
            if current:
                chunks.append(current)
                current = []
            chunks.extend(indices[start:start + split_size]
                          for start in range(0, len(indices), split_size))
            continue
        if current and len(current) + len(indices) > pack_size:
            chunks.append(current)
            current = []
        current.extend(indices)
    if current:
        chunks.append(current)
    return chunks


# ----------------------------------------------------------------------
# execute: one configuration, one shard
# ----------------------------------------------------------------------

def _oracle_violations(trace: TraceRecorder,
                       oracle: Optional[Callable]) -> Optional[List[Any]]:
    """Evaluate a fresh pack from ``oracle`` over ``trace`` (None: skip)."""
    if oracle is None:
        return None
    from repro.oracle import evaluate
    return evaluate(trace, oracle()).violations


def run_one(body: Callable[[ExperimentEnv, Dict[str, Any]], Any],
            seed: int, config: Dict[str, Any],
            checkpoint: Optional[Any] = None, *, telemetry: bool = True,
            oracle: Optional[Callable] = None) -> RunResult:
    """Run one configuration, cold or as a fork of its prefix checkpoint.

    The run seed derives from the campaign seed and the configuration
    repr -- here and nowhere else -- so adding a configuration never
    perturbs another, and a forked run (``checkpoint`` given, ``body`` a
    :class:`PrefixedBody`: the fork is re-seeded to that same run seed
    and only the continuation executes) is byte-identical to the cold
    one.  Telemetry's event and trace counts carry the prefix's share
    too (the forked scheduler and recorder resume from the captured
    counters, matching a cold run's totals); only ``wall_s`` reflects
    the saved simulation.  A filter script's fault
    (:class:`~repro.core.script.ScriptFault`) ends the run where it
    struck and is its verdict: ``script_error`` is set and the
    violations end with a ``PFI-SCRIPT-ERROR``.  Raises
    ``CheckpointError`` when the checkpoint cannot be re-seeded --
    callers fall back cold.  However the run ends, its world is torn
    down before this returns (:meth:`ExperimentEnv.teardown`): the row
    holds its trace, with no clock bound, and nothing of the world,
    which reference counting has freed.
    """
    run_seed = derive_seed(seed, repr(sorted(config.items())))
    if checkpoint is None:
        env = make_env(seed=run_seed)
        run, args = body, (env, dict(config))
    else:
        forked = checkpoint.fork(seed=run_seed)
        env = forked.env
        state = (forked.roots[_STATE_ROOT]
                 if set(forked.roots) == {_STATE_ROOT} else forked.roots)
        run, args = body.continuation, (env, state, dict(config))
    try:
        script_error = None
        start = perf_counter()
        try:
            result = run(*args)
        except ScriptFault as fault:
            result, script_error = None, fault.error
        wall_s = perf_counter() - start
        violations = _oracle_violations(env.trace, oracle)
        if script_error is not None:
            from repro.oracle.invariants import script_error_violations
            violations = [*(violations or ()),
                          *script_error_violations(env.trace)]
        row = RunResult(
            config=dict(config), result=result, trace=env.trace,
            telemetry=RunTelemetry(
                wall_s=wall_s, events=env.scheduler.dispatched_count,
                virtual_s=env.scheduler.now, trace_entries=len(env.trace))
            if telemetry else None,
            violations=violations)
        if script_error is not None:
            row.script_error = script_error
    finally:
        env.teardown()
    return row


def _capture(env: ExperimentEnv, state: Any, key: Any) -> Any:
    """Capture ``env``, warmed by a prefix that returned ``state``."""
    from repro.core.checkpoint import Checkpoint
    roots = state if isinstance(state, dict) else {_STATE_ROOT: state}
    return Checkpoint.capture(env, roots, label=f"campaign/{key}")


def _capture_prefix(body: PrefixedBody, config: Dict[str, Any],
                    key: Any) -> Any:
    """Simulate one group's warm prefix and capture it as a checkpoint.

    The capture env is built at seed 0; forks re-seed to each member's
    run seed, which the checkpoint layer only permits for zero-draw
    prefixes (the grouping contract).  The checkpoint adopts the warmed
    world as its snapshot (:meth:`Checkpoint.teardown` ends it).  Raises
    ``CheckpointError`` when the world cannot be captured soundly --
    callers fall back cold.
    """
    env = make_env(seed=0)
    try:
        return _capture(env, body.prefix(env, dict(config)), key)
    except BaseException:
        env.teardown()  # not adopted: the world ends here
        raise


def _capture_payload(checkpoint: Any, key: Any) -> Dict[str, Any]:
    """What a ``campaign.checkpoint_capture`` event says of a capture,
    less the count of configurations that fork it."""
    return {"prefix": str(key), "label": checkpoint.label,
            "identity": checkpoint.identity, "time": checkpoint.time,
            "entries": checkpoint.position, **checkpoint.plan_stats}


def pool_prefix(pool: Any, body: PrefixedBody, env: ExperimentEnv,
                state: Any, config: Dict[str, Any]
                ) -> Tuple[Optional[Dict[str, Any]], ExperimentEnv]:
    """Pool a warm prefix its caller simulated itself.

    ``state`` is what ``body.prefix(env, config)`` returned.  The world
    is captured into ``pool`` under the key :func:`execute_shard` looks
    it up by, so a shard handed the pool forks it and simulates no
    prefix of its own.  Returns the payload of the capture event
    (:class:`ShardCapture`, less its ``configs`` count) and the world
    the caller keeps running: a fork of the capture, which adopted
    ``env``.  When the world cannot be captured the payload is ``None``
    and the world is ``env`` (the shard then tries, and falls back
    cold).
    """
    from repro.core.checkpoint import CheckpointError
    key = body.prefix_key(config)
    try:
        checkpoint = _capture(env, state, key)
    except CheckpointError:
        return None, env
    pool.put(_prefix_digest(body, key), checkpoint)
    return _capture_payload(checkpoint, key), checkpoint.fork().env


class ShardStart(NamedTuple):
    """:func:`execute_shard` is about to run configuration ``index``."""
    index: int


class ShardCapture(NamedTuple):
    """A prefix group was captured (``campaign.checkpoint_capture``)."""
    payload: Dict[str, Any]


class ShardRow(NamedTuple):
    """One completed configuration: its prefix key (``None`` when it is
    not grouped) and whether a fork of the captured prefix served it."""
    index: int
    result: RunResult
    prefix: Optional[Any]
    forked: bool


def execute_shard(spec: Any, indices: Iterable[int],
                  pool: Optional[Any] = None
                  ) -> Iterator[Union[ShardStart, ShardCapture, ShardRow]]:
    """Run ``spec.configs[i]`` for every ``i`` in ``indices``; yield events.

    The one place the per-configuration decision lives.  For a split
    body (and ``spec.group``) the indices are regrouped by prefix key
    (:func:`_prefix_groups`: results are independent of execution
    order, so scattered members may run together); a group whose
    checkpoint is not in ``pool`` already is captured when the capture
    will be forked more than once -- at most once per call -- and every
    member then runs as a re-seeded fork.  A prefix that cannot be
    captured, or whose forks cannot be re-seeded (it drew from an RNG
    stream), sends its members down the cold path instead: results never
    depend on whether sharing worked, only speed does.

    ``pool`` (a :class:`~repro.core.checkpoint.CheckpointPool`) carries
    captures across calls.  A caller that keeps one is saying later
    calls will fork what this one captures -- the fuzz loop's batches,
    the shrinker's one-config probes -- so even a group of one is
    captured.  Without a pool each group's checkpoint lives only while
    that group runs (memory stays flat however long the shard is; every
    group's key is distinct, so nothing could be reused within the
    call) and a capture pays only for a group of two or more, and its
    snapshot world is torn down (:meth:`~repro.core.checkpoint
    .Checkpoint.teardown`) where the group ends.  A body exception
    propagates from the ``next()`` that ran it, after the
    :class:`ShardStart` naming its index.
    """
    from repro.core.checkpoint import CheckpointError
    body, configs = spec.body, spec.configs
    options = {"telemetry": spec.telemetry, "oracle": spec.oracle}
    worth_capturing = 2 if pool is None else 1
    for key, members in _prefix_groups(indices,
                                       spec.execution_prefix_keys()):
        checkpoint = captured = None
        if key is not None:
            if pool is not None:
                pool_key = _prefix_digest(body, key)
                checkpoint = pool.get(pool_key)
            if checkpoint is None and len(members) >= worth_capturing:
                try:
                    checkpoint = _capture_prefix(body, configs[members[0]],
                                                 key)
                except CheckpointError:
                    pass  # uncapturable world: the whole group runs cold
                else:
                    if pool is not None:
                        pool.put(pool_key, checkpoint)
                    else:
                        captured = checkpoint
                    yield ShardCapture(dict(_capture_payload(checkpoint,
                                                             key),
                                            configs=len(members)))
        for index in members:
            yield ShardStart(index)
            result = None
            if checkpoint is not None:
                try:
                    result = run_one(body, spec.seed, configs[index],
                                     checkpoint, **options)
                except CheckpointError:
                    # not seed-portable: this member and the rest of
                    # the group run cold
                    checkpoint = None
            forked = result is not None
            if not forked:
                result = run_one(body, spec.seed, configs[index], **options)
            yield ShardRow(index, result, key, forked)
        if captured is not None:
            captured.teardown()


# ----------------------------------------------------------------------
# sink: store.put -> journal -> tally
# ----------------------------------------------------------------------

def _pickle_error(value: Any) -> str:
    """Why ``value`` does not pickle (:meth:`ResultStore.put` only says
    that it does not)."""
    try:
        pickle.dumps(value)
    except Exception as err:
        return repr(err)
    return "no error on a second attempt"


def _run_end_payload(index: int, result: RunResult, *,
                     cached_hit: bool = False,
                     prefix: Optional[Any] = None,
                     forked: bool = False) -> Dict[str, Any]:
    """The ``campaign.run_end`` event payload for one result.

    Carries every deterministic scorecard input -- label, oracle verdict
    codes, telemetry -- so a journal replay can rebuild the exact
    scorecard the live sweep printed (or would have printed when it was
    killed first).  Grouped runs additionally carry their prefix key
    and whether they were served by a fork, so ``repro report
    --campaign`` can show amortization per prefix group.
    """
    payload: Dict[str, Any] = {
        "index": index,
        "label": _config_label(result.config),
        "cached": cached_hit,
        "ok": result.ok(),
    }
    if prefix is not None:
        payload["prefix"] = str(prefix)
        payload["forked"] = forked
    if result.violations is not None:
        payload["violations"] = len(result.violations)
        payload["codes"] = sorted({v.code for v in result.violations})
    if result.telemetry is not None:
        payload["telemetry"] = result.telemetry.as_dict()
    if result.script_error is not None:
        payload["script_error"] = result.script_error
    return payload


class ShardSink:
    """Where every transport publishes :func:`execute_shard`'s events.

    A completed row goes ``store.put`` -> journal ``run_end`` -> tally,
    in that order, the moment it arrives: a crash loses at most the
    configuration in flight, never a row the journal claims done, and a
    sweep that dies at configuration *k* leaves its first *k* rows
    resumable.  Before any of that the row's trace is encoded in place
    (:func:`_encode_trace`), and the store seals the bytes the row
    keeps.  ``store`` and ``journal`` are each optional (a bare
    ``Campaign.run`` has neither and only tallies).  ``carrier`` says
    the store is how a row reaches the sweep at all (the fabric worker):
    there a result the store refuses -- it does not pickle -- is an
    error, raised before the journal can claim the row; anywhere else
    it is merely a row nobody cached.

    The tally defines the prefix-sharing statistics once for every
    transport: a *capture* is a :class:`ShardCapture`, a *fork* is a
    keyed row served by a fork, a *fallback* is a keyed row that ran
    cold -- a singleton group outside a caller-kept pool, a group whose
    prefix could not be captured, or the tail of one whose fork could
    not be re-seeded.
    """

    def __init__(self, spec: Any, store: Optional[ResultStore] = None,
                 journal: Union[Journal, NullJournal] = NULL_JOURNAL, *,
                 keys: Optional[List[str]] = None, carrier: bool = False):
        self.spec = spec
        self.store = store
        self.journal = journal
        self.carrier = carrier
        #: content address per configuration (``None`` without a store)
        self.keys = (keys if keys is not None or store is None
                     else spec.store_keys(store))
        self.cached = self.executed = self.findings = 0
        self.captures = self.forks = self.fallbacks = 0

    def plan(self, indices: Iterable[int]
             ) -> Tuple[List[Tuple[int, RunResult]], List[int]]:
        """Split ``indices`` into rows the store holds and the todo.

        Held rows are journaled as cached ``run_end`` events, so every
        attempt's record is a full flight on its own; what is left is
        what must execute.  The probe *is* the load (see
        :meth:`ResultStore.probe`): an entry that does not load is todo.
        """
        indices = list(indices)
        if self.store is None:
            return [], indices
        found, missing = self.store.probe([self.keys[i] for i in indices])
        held = [(index, result) for index, result in zip(indices, found)
                if result is not None]
        for index, result in held:
            self.findings += not result.ok()
            self.journal.record(
                K.CAMPAIGN_RUN_END,
                **_run_end_payload(index, result, cached_hit=True))
        self.cached += len(held)
        return held, [indices[position] for position in missing]

    def drain(self, events: Iterable[Any]) -> Iterator[ShardRow]:
        """Publish ``events`` as they arrive; yield each row once it is
        durable, so the transport can add its own step (result slot and
        progress line, or lease heartbeat).  An error raised by the
        executor is journaled against the configuration in flight."""
        journal = self.journal
        index = None
        try:
            for event in events:
                kind = type(event)
                if kind is ShardRow:
                    self._publish(event)
                    yield event
                elif kind is ShardCapture:
                    self.captures += 1
                    journal.record(K.CAMPAIGN_CHECKPOINT_CAPTURE,
                                   **event.payload)
                else:
                    index = event.index
                    journal.record(
                        K.CAMPAIGN_RUN_START, index=index,
                        label=_config_label(self.spec.configs[index]))
        except Exception as err:
            journal.record(K.CAMPAIGN_WORKER_ERROR, index=index,
                           error=repr(err))
            raise

    def _publish(self, row: ShardRow) -> None:
        # the row keeps its trace encoded from here on, and the store
        # seals these same bytes: a trace is pickled once per row
        try:
            _encode_trace(vars(row.result))
        except Exception:
            pass  # the trace stays live; the store refuses the row too
        if (self.store is not None
                and not self.store.put(self.keys[row.index], row.result)
                and self.carrier):
            raise TypeError(
                f"campaign config [{row.index}]: the result does not "
                f"pickle, so the store cannot carry it: "
                f"{_pickle_error(row.result)}")
        self.journal.record(
            K.CAMPAIGN_RUN_END,
            **_run_end_payload(row.index, row.result,
                               prefix=row.prefix, forked=row.forked))
        self.tally(row)

    def tally(self, row: ShardRow) -> None:
        """Count one durable row: the last step of publishing it, and
        all that is left to do for a row some other sink published (the
        fabric coordinator, loading back what its workers put)."""
        self.executed += 1
        self.findings += not row.result.ok()
        if row.prefix is not None:
            if row.forked:
                self.forks += 1
            else:
                self.fallbacks += 1

    def prefix_stats(self) -> Dict[str, int]:
        """``prefix_*`` counters for ``campaign.end`` (and the fabric's
        ``done`` message); empty when no keyed configuration executed."""
        if not (self.forks or self.fallbacks):
            return {}
        return dict(zip(PREFIX_STATS,
                        (self.captures, self.forks, self.fallbacks)))


def _run_chunk(spec: Any, indices: List[int]) -> List[Any]:
    """Pool-worker transport: execute one chunk, return its events.

    ``spec`` carries only this chunk's configurations (the parent does
    not pickle the whole sweep per task); ``indices`` are their sweep
    positions, restored on the rows sent back.  A failure is annotated
    with the *global* sweep index before it propagates (exception notes
    survive pickling back to the parent), so a bare pool traceback still
    names which sweep point died.
    """
    events: List[Any] = []
    local = 0
    try:
        for event in execute_shard(spec, range(len(indices))):
            if type(event) is ShardStart:
                local = event.index
            elif type(event) is ShardRow:
                events.append(event._replace(index=indices[event.index]))
            else:
                events.append(event)
    except Exception as err:
        err.add_note(f"campaign config [{indices[local]}] failed: "
                     f"{spec.configs[local]!r}")
        raise
    return events


# ----------------------------------------------------------------------
# the lifecycle: Campaign -> run_sweep -> a transport's rows
# ----------------------------------------------------------------------

class Campaign:
    """Run an experiment body across a sweep of configurations.

    The body receives a fresh :class:`ExperimentEnv` plus the configuration
    dict and returns any result object.  Determinism note: each
    configuration derives its own seed from the campaign seed and the
    configuration repr, so adding a configuration does not perturb others.

    Because every configuration is an independent seeded simulation, the
    sweep is embarrassingly parallel: ``run(configs, workers=N)`` fans the
    configurations out over ``N`` worker processes (``workers="auto"``
    sizes the pool from the machine).  Every transport runs
    :func:`execute_shard`, so parallel results are identical to serial
    ones and are returned in input order.  Requirements for parallel runs:
    the body must be a module-level (picklable) callable, and its result
    values must be picklable too.  Each worker builds its own
    :class:`ExperimentEnv` -- in particular each process gets its own
    ``ScriptSync``, so cross-configuration coordination is impossible by
    construction (it would break determinism anyway).
    """

    def __init__(self, body: Callable[[ExperimentEnv, Dict[str, Any]], Any],
                 *, seed: int = 0, lint: str = "error"):
        if lint not in ("error", "off"):
            raise ValueError(f'Campaign lint mode must be "error" or '
                             f'"off", got {lint!r}')
        self._body = body
        self._seed = seed
        self._lint = lint

    def validate_scripts(self, configs: Iterable[Dict[str, Any]]):
        """Lint every config's tclish script.

        A config carries at most one: the string under ``"script"``, with
        its init script under ``"init_script"``.  Returns the list of
        failing :class:`~repro.core.tclish.lint.LintReport` objects
        (empty when everything is clean).  :meth:`preflight` raises
        :class:`CampaignScriptError` with *all* diagnostics, so one
        campaign launch surfaces every broken config at once instead of
        failing minutes in on the first.
        """
        from repro.core.tclish.lint import lint_source
        failing = []
        for index, config in enumerate(configs):
            source = config.get("script")
            if not isinstance(source, str):
                continue
            init = config.get("init_script", "")
            report = lint_source(
                source, init_script=init if isinstance(init, str) else "",
                source_name=f"config[{index}].script")
            if not report.ok():
                failing.append(report)
        return failing

    def precheck_body(self):
        """Statically vet the campaign body for determinism hazards.

        Runs the SC1xx pass (:func:`repro.staticcheck.precheck_body`)
        over the functions reachable from the body in its own module --
        closures scheduled as callbacks, wall-clock time, unseeded
        randomness -- and returns the failing
        :class:`~repro.core.tclish.lint.LintReport` objects (empty when
        clean, and for bodies whose source cannot be retrieved).  A
        :class:`PrefixedBody` is vetted part by part (prefix and
        continuation), since the wrapper instance itself carries no
        retrievable source.
        """
        from repro.staticcheck import precheck_body
        parts = (self._body.cache_parts()
                 if isinstance(self._body, PrefixedBody) else (self._body,))
        failing = []
        for part in parts:
            report = precheck_body(part)
            if not report.ok():
                failing.append(report)
        return failing

    def preflight(self, configs: Iterable[Dict[str, Any]],
                  journal: Union[Journal, NullJournal] = NULL_JOURNAL, *,
                  body: bool = True) -> None:
        """The one gate every engine passes before anything executes.

        :meth:`precheck_body` (skipped with ``body=False``, for callers
        that vet one body across many batches) plus
        :meth:`validate_scripts`; any failing report raises
        :class:`CampaignScriptError`, so a body that would poison
        determinism or checkpoint capture, or a script that cannot parse,
        is refused before any worker starts.  ``Campaign(...,
        lint="off")`` turns the gate off.  The verdict is journaled as
        ``campaign.preflight`` -- here and nowhere else, so every
        engine's verdict carries ``failing``; a ``body=False`` pass (a
        later batch of a flight whose verdict is already on record)
        journals only a refusal.
        """
        if self._lint == "off":
            journal.record(K.CAMPAIGN_PREFLIGHT, ok=True, skipped=True)
            return
        failing = self.precheck_body() if body else []
        failing += self.validate_scripts(configs)
        if body or failing:
            journal.record(K.CAMPAIGN_PREFLIGHT, ok=not failing,
                           failing=len(failing))
        if failing:
            raise CampaignScriptError(failing)

    def run(self, configs: Iterable[Dict[str, Any]], *,
            workers: Union[int, str] = 1, telemetry: bool = True,
            oracle: Optional[Callable[[], List[Any]]] = None,
            journal: Union[None, str, Path, Journal] = None,
            progress: Optional[Callable[[str], None]] = None,
            group: bool = True,
            backend: str = "local",
            fabric_dir: Union[None, str, Path] = None
            ) -> List[RunResult]:
        """Execute the body once per configuration; results in input order.

        Builds this campaign's :class:`~repro.core.fabric.spec.SweepSpec`
        over ``configs`` and hands it to :func:`run_sweep`, which
        documents the arguments that say how and where the sweep runs:
        ``workers``, ``journal``, ``progress``, ``backend`` and
        ``fabric_dir``.  A config's tclish script -- the string under
        ``"script"``, with ``"init_script"`` -- is statically analyzed
        first; any error-level diagnostic aborts the whole campaign
        before any configuration runs (``Campaign(..., lint="off")``
        skips this).
        The remaining arguments say what the sweep computes.

        ``telemetry`` (default on) records per-configuration wall time,
        dispatched-event count, final virtual time and trace volume onto
        ``RunResult.telemetry``; ``telemetry=False`` leaves it ``None``;
        :func:`repro.obs.telemetry.render_scorecard` turns the results
        into the campaign scorecard.

        ``oracle`` (default off) is an invariant-pack factory -- a
        zero-argument callable returning fresh
        :class:`~repro.oracle.Invariant` instances, e.g.
        :func:`repro.oracle.tcp_pack`.  When given, every configuration's
        trace is evaluated against a fresh pack *in the worker that ran
        it* (the trace is already hot there), and the resulting violation
        list lands on ``RunResult.violations``.  Parallel runs need the
        factory picklable, i.e. module-level -- the same rule as the body.

        ``group`` (default on) enables **prefix-grouped scheduling**
        when the body is a :class:`PrefixedBody`: configurations
        sharing a prefix key have their warm prefix simulated once per
        shard (a :class:`~repro.core.checkpoint.Checkpoint` capture)
        and are each run as a re-seeded fork of it -- byte-identical to
        the cold path, just without re-simulating the shared prefix per
        configuration.  ``group=False`` forces every configuration cold
        (the reference path benches and byte-identity tests compare
        against).  Captures live for one ``run`` call; a caller that
        forks one prefix across many calls (the fuzz loop, the
        shrinker) keeps a :class:`~repro.core.checkpoint.CheckpointPool`
        and hands it to :func:`execute_shard` directly.
        """
        from repro.core.fabric.spec import SweepSpec
        spec = SweepSpec(body=self._body, seed=self._seed, configs=configs,
                         telemetry=telemetry, oracle=oracle,
                         lint=self._lint, group=group)
        return run_sweep(spec, workers=workers, journal=journal,
                         progress=progress, backend=backend,
                         fabric_dir=fabric_dir)


def _resolve_workers(workers: Union[int, str], jobs: int) -> int:
    """The process count ``workers`` asks for, on every transport.

    An int must be at least 1.  ``"auto"`` is ``os.cpu_count()`` capped
    at ``jobs`` (the sweep's configurations), and 1 -- in this process,
    or one fabric worker -- on a single CPU or for a sweep smaller than
    :data:`_AUTO_SERIAL_THRESHOLD`.
    """
    if workers == "auto":
        cpus = os.cpu_count() or 1
        if cpus < 2 or jobs < _AUTO_SERIAL_THRESHOLD:
            return 1
        return min(cpus, jobs)
    if not isinstance(workers, int) or workers < 1:
        raise ValueError(f'workers must be an int >= 1 or "auto", '
                         f"got {workers!r}")
    return workers


def run_sweep(spec: Any, *, workers: Union[int, str] = 1,
              journal: Union[None, str, Path, Journal] = None,
              progress: Optional[Callable[[str], None]] = None,
              backend: str = "local",
              fabric_dir: Union[None, str, Path] = None,
              fabric_options: Optional[Dict[str, Any]] = None
              ) -> List[RunResult]:
    """Run (or resume) the sweep ``spec`` describes: the one lifecycle.

    Whatever the backend, an attempt is ``campaign.start`` -> journaled
    preflight -> :meth:`ShardSink.plan` -> rows from a transport ->
    result slots and progress lines -> ``campaign.end``, so every
    backend's flight record is written by the same code and reads the
    same.  Results come back in input order, each trace with no clock
    bound (:meth:`~repro.netsim.trace.TraceRecorder.bind_clock` one to
    record more), whichever transport ran it.  Every row keeps its
    trace encoded until ``result.trace`` is first read
    (:class:`RunResult`): one run here was encoded as the sink published
    it, one from the pool, a fabric worker or the store (every held row
    of a resume) arrived pickled.  A returned row therefore holds its
    trace's pickle, not a live recorder with an attrs dict per entry,
    and a sweep that is only scored never decodes a trace.  A trace
    that does not pickle stays live.

    ``workers`` (:func:`_resolve_workers`) and ``backend``
    (:data:`BACKENDS`) choose the transport, and nothing else.
    ``"local"`` -- the default -- runs in this process (``workers=1``)
    or chunked over a persistent process pool, byte-identical to serial.
    ``"sockets"`` runs a coordinator plus ``workers`` worker *processes*
    over the fabric protocol (:mod:`repro.core.fabric`); the coordinator
    forks them from this process, so they start with everything it has
    imported -- the calling script's ``__main__`` included -- and a body
    that raises in one ends the sweep with
    :class:`~repro.core.fabric.FabricError` (``status="worker_error"``).
    The preflight verdict is journaled before any worker is forked.
    ``fabric_options`` passes coordinator tuning through (``ttl``,
    ``poll``, ``spawn``, ``host``).

    ``fabric_dir`` is the campaign directory, and the only way a sweep
    gets a result store: it is pinned to ``spec`` (``spec.pkl``; a
    directory holding a different sweep is refused with
    ``spec_mismatch``), its ``store/`` takes every row the moment it
    completes, and ``journals/coordinator.jsonl`` is the journal unless
    the caller passed its own.  Re-running the same sweep against the
    same directory -- on either backend -- resumes it: only
    configurations the store does not hold yet execute.  The sockets
    backend requires it and refuses ``journal``: its workers write the
    directory's own store and shard journals.

    ``journal`` (default off) attaches the campaign flight recorder
    (:class:`repro.obs.journal.Journal`, or a path one is opened at):
    start, lint preflight, every configuration's ``run_end`` with
    telemetry and oracle verdicts, worker errors, dispatch/merge
    phases, end -- crash-safe JSONL the parent process owns, so a
    killed sweep still reproduces its partial scorecard via ``repro
    report --campaign``.  ``progress`` is a line sink (e.g. ``print``)
    fed by the shared renderer as configurations complete.
    """
    from repro.core.fabric.coordinator import (FabricCoordinator,
                                               persist_spec)
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown campaign backend {backend!r}; choose from "
            f"{', '.join(BACKENDS)}")
    total = len(spec.configs)
    workers = _resolve_workers(workers, total)
    coordinator = store = None
    if backend == "sockets":
        if fabric_dir is None:
            raise ValueError(
                'backend="sockets" needs fabric_dir= (the campaign '
                "directory shared by coordinator and workers)")
        if journal is not None:
            raise ValueError(
                'backend="sockets" workers can only write the campaign '
                "directory's own journals; pass fabric_dir= only")
        coordinator = FabricCoordinator(spec, fabric_dir, workers=workers,
                                        **(fabric_options or {}))
    if fabric_dir is not None:
        persist_spec(spec, fabric_dir)
        store = ResultStore(Path(fabric_dir) / "store")
        if journal is None:
            journal = Path(fabric_dir) / "journals" / "coordinator.jsonl"
    start = {"seed": spec.seed, "configs": total,
             "workers": str(workers), "telemetry": spec.telemetry,
             "lint": spec.lint,
             "oracle": getattr(spec.oracle, "__qualname__", None),
             "body": spec.body_label()}
    if coordinator is not None:
        start["backend"] = backend
    slots: List[Optional[RunResult]] = [None] * total
    with Flight(journal, "campaign", start, progress=progress, total=total,
                unit="configs") as flight:
        sink = ShardSink(spec, store, flight.journal)
        flight.counters = lambda: {
            "executed": sink.executed, "cached": sink.cached,
            "findings": sink.findings, **sink.prefix_stats(),
            **(coordinator.end_stats() if coordinator is not None else {})}
        flight.gate(Campaign(spec.body, seed=spec.seed,
                             lint=spec.lint).preflight, spec.configs)
        # the plan re-journals held rows, so this attempt's record
        # (the last campaign.start segment) is a full flight
        held, todo = sink.plan(range(total))
        for index, result in held:
            slots[index] = result
        if held:
            flight.progress.update(len(held), cached=len(held))
        if coordinator is not None:
            rows = coordinator.rows(todo, sink)
        elif workers <= 1 or len(todo) <= 1:
            rows = _inprocess_rows(spec, todo, sink)
        else:
            rows = _pool_rows(spec, todo, sink, workers)
        # closing: the transport's journal phase ends before
        # campaign.end even when this loop is what raises
        with closing(rows):
            for row in rows:
                slots[row.index] = row.result
                flight.progress.update(sink.cached + sink.executed,
                                       findings=sink.findings or None)
    return [result for result in slots if result is not None]


def _inprocess_rows(spec: Any, todo: List[int], sink: ShardSink
                    ) -> Iterator[ShardRow]:
    """In-process transport: the whole todo is one shard, run here."""
    if todo:
        with sink.journal.phase("dispatch"):
            yield from sink.drain(execute_shard(spec, todo))


def _pool_rows(spec: Any, todo: List[int], sink: ShardSink,
               pool_size: int) -> Iterator[ShardRow]:
    """Pool transport: one :func:`_run_chunk` task per chunk, drained
    through the parent's sink in submission order."""
    try:
        pickle.dumps((spec.body, spec.oracle))
    except Exception as err:
        raise TypeError(
            "Campaign.run(workers>1) needs a picklable "
            "(module-level) body and oracle, got "
            f"{spec.body!r} / {spec.oracle!r}: {err}") from err
    journal = sink.journal
    pool = _get_pool(min(pool_size, len(todo)))
    keys = spec.execution_prefix_keys()
    with journal.phase("dispatch"):
        futures = [
            (indices, pool.submit(
                _run_chunk,
                replace(spec, configs=[spec.configs[i] for i in indices]),
                indices))
            for indices in _prefix_chunks(todo, keys, pool_size)]
    with journal.phase("merge"):
        for indices, future in futures:
            try:
                events = future.result()
            except Exception as err:
                journal.record(K.CAMPAIGN_WORKER_ERROR,
                               indices=indices, error=repr(err))
                raise
            yield from sink.drain(events)
