"""Benchmark-side tracing: spans around the layers' public entry points.

Nothing under ``src/`` knows about this module.  :class:`Tracer` swaps
the entry points listed in :func:`_entry_points` for thin wrappers at
class/module level, records one in-memory span per call (name, start,
end, parent) on the main thread, and restores the originals afterwards,
so timed passes never run through a wrapper.  A layer's *self time* is
its spans' duration minus the part their child spans cover; time spent
under no wrapped entry stays in the caller's self time (GMP timer
callbacks, for instance, land in ``netsim.scheduler``), and whatever no
layer claims is the root span's self time, reported as
``bench.unattributed_s``.

Span names are ``<layer>:<entry>``; the layer part is a module path
under ``src/repro``.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT_SPAN = "bench:pass"

#: spans written to the Chrome trace; beyond this Perfetto gets sluggish
CHROME_SPAN_CAP = 250_000

#: the nine experiment modules behind ``repro all``
EXPERIMENT_MODULES = (
    "tcp_retransmission", "tcp_delayed_ack", "tcp_keepalive",
    "tcp_zero_window", "tcp_reordering", "gmp_packet_interruption",
    "gmp_partition", "gmp_proclaim", "gmp_timer")


# -- hooks run after a wrapped call returns (tracer, self/first arg, result)

def _add_fired(tracer: "Tracer", _first: Any, fired: Any) -> None:
    tracer.counts["scheduler.dispatched"] += int(fired)


def _note_pool_get(tracer: "Tracer", _first: Any, checkpoint: Any) -> None:
    tracer.counts["pool.gets"] += 1
    if checkpoint is not None:
        tracer.counts["pool.hits"] += 1


def _keep_filter(tracer: "Tracer", tclish_filter: Any, _result: Any) -> None:
    tracer.filters.append(tclish_filter)


def _entry_points() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, after-hook)`` per wrapped entry.

    ``owner`` is a class (the attribute is swapped on it) or a plain
    function (every ``repro`` module holding a reference to it is
    re-pointed, because experiment modules bind ``make_env`` and friends
    with ``from ... import``).
    """
    import importlib

    from repro.core import orchestrator
    from repro.core.checkpoint import Checkpoint, CheckpointPool
    from repro.core.fabric.merge import merge_campaign_dir
    from repro.core.fabric.store import ResultStore
    from repro.core.orchestrator import Campaign, RunCache
    from repro.core.pfi import PFILayer
    from repro.core.script import TclishFilter
    from repro.core.tclish.interp import Interp
    from repro.gmp.daemon import Daemon
    from repro.netsim.link import Link
    from repro.netsim.scheduler import Scheduler
    from repro.netsim.trace import TraceRecorder
    from repro.obs.campaign_report import render_text
    from repro.obs.journal import Journal
    from repro.oracle.explore import explore
    from repro.oracle.invariants import evaluate
    from repro.tcp.connection import TCPConnection
    from repro.tcp.protocol import TCPProtocol
    from repro.xkernel.message import Message
    from repro.xkernel.protocol import Protocol

    points: List[Tuple[Any, str, str, Optional[Callable]]] = [
        (Scheduler, "run", "netsim.scheduler:run", _add_fired),
        (Scheduler, "run_until", "netsim.scheduler:run_until", _add_fired),
        (Scheduler, "run_until_quiet", "netsim.scheduler:run_until_quiet",
         _add_fired),
        (Scheduler, "step", "netsim.scheduler:step", _add_fired),
        (TraceRecorder, "record", "netsim.trace:record", None),
        (Link, "send", "netsim.link:send", None),
        (Message, "copy", "xkernel.message:copy", None),
        (Protocol, "send_up", "xkernel.protocol:send_up", None),
        (Protocol, "send_down", "xkernel.protocol:send_down", None),
        (PFILayer, "push", "core.pfi:push", None),
        (PFILayer, "pop", "core.pfi:pop", None),
        (TclishFilter, "__init__", "core.script:build", _keep_filter),
        (TclishFilter, "run", "core.script:run", None),
        (Interp, "compile", "core.tclish:compile", None),
        (Daemon, "pop", "gmp.daemon:pop", None),
        (TCPProtocol, "pop", "tcp.protocol:pop", None),
        (TCPConnection, "on_segment", "tcp.protocol:on_segment", None),
        (Checkpoint, "capture", "core.checkpoint:capture", None),
        (Checkpoint, "fork", "core.checkpoint:fork", None),
        (CheckpointPool, "get", "core.checkpoint:pool_get", _note_pool_get),
        (orchestrator.make_env, "", "core.orchestrator:make_env", None),
        (Campaign, "validate_scripts", "core.orchestrator:validate_scripts",
         None),
        (Campaign, "precheck_body", "core.orchestrator:precheck_body", None),
        (Campaign, "run", "core.orchestrator:run", None),
        (evaluate, "", "oracle:evaluate", None),
        (explore, "", "oracle.explore:explore", None),
        (RunCache, "key", "core.fabric.store:key", None),
        (RunCache, "get", "core.fabric.store:get", None),
        (ResultStore, "put", "core.fabric.store:put", None),
        (ResultStore, "missing", "core.fabric.store:missing", None),
        (ResultStore, "load_all", "core.fabric.store:load_all", None),
        (Journal, "record", "obs.journal:record", None),
        (merge_campaign_dir, "", "core.fabric.merge:merge_campaign_dir", None),
        (render_text, "", "obs.campaign_report:render_text", None),
    ]
    for module in EXPERIMENT_MODULES:
        run_all = importlib.import_module(f"repro.experiments.{module}").run_all
        points.append((run_all, "", f"experiments.{module}:run_all", None))
    return points


class Tracer:
    """Install wrappers, collect spans for one pass, restore originals."""

    def __init__(self) -> None:
        self.names: List[str] = [ROOT_SPAN]
        #: ``(name id, start, end, parent index)``, in start order
        self.spans: List[Optional[Tuple[int, float, float, int]]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.filters: List[Any] = []
        self._stack: List[int] = []
        self._main = threading.get_ident()
        #: ``(namespace, attribute, original, wrapper)`` per patched slot
        self._slots: Optional[List[Tuple[Any, str, Any, Any]]] = None
        self._table: Optional[Dict[str, Dict[str, Any]]] = None

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn: Callable,
              after: Optional[Callable]) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, main = self.spans, self._stack, self._main
        ident, clock = threading.get_ident, perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if ident() != main:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(self, args[0] if args else None, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__wrapped__ = fn
        return traced

    def _plan(self) -> List[Tuple[Any, str, Any, Any]]:
        slots: List[Tuple[Any, str, Any, Any]] = []
        for owner, attribute, name, after in _entry_points():
            if isinstance(owner, type):
                raw = owner.__dict__[attribute]
                if isinstance(raw, classmethod):
                    wrapper: Any = classmethod(
                        self._wrap(name, raw.__func__, after))
                else:
                    wrapper = self._wrap(name, raw, after)
                slots.append((owner, attribute, raw, wrapper))
                continue
            wrapper = self._wrap(name, owner, after)
            for module_name, module in list(sys.modules.items()):
                if module is None or not module_name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is owner:
                        slots.append((module, key, owner, wrapper))
        return slots

    def install(self) -> None:
        if self._slots is None:
            self._slots = self._plan()
        for namespace, attribute, _original, wrapper in self._slots:
            setattr(namespace, attribute, wrapper)

    def uninstall(self) -> None:
        for namespace, attribute, original, _wrapper in self._slots or ():
            setattr(namespace, attribute, original)

    # -- one traced pass -------------------------------------------------

    def traced_pass(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` under a root span with every wrapper installed."""
        del self.spans[:]
        del self._stack[:]
        del self.filters[:]
        self.counts.clear()
        self._table = None
        self.install()
        try:
            self.spans.append(None)
            self._stack.append(0)
            start = perf_counter()
            try:
                return fn()
            finally:
                self.spans[0] = (0, start, perf_counter(), -1)
                self._stack.pop()
        finally:
            self.uninstall()

    @property
    def pass_s(self) -> float:
        _name, start, end, _parent = self.spans[0]
        return end - start

    def aggregate(self) -> Dict[str, Dict[str, Any]]:
        """Per span name: calls, inclusive seconds, self seconds, and the
        individual durations (for percentiles).  Computed once per pass."""
        if self._table is not None:
            return self._table
        spans = self.spans
        covered = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        table: Dict[str, Dict[str, Any]] = {}
        for index, (name_id, start, end, _parent) in enumerate(spans):
            row = table.setdefault(self.names[name_id], {
                "calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            duration = end - start
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered[index]
            row["durations"].append(duration)
        self._table = table
        return table

    def interp_stats(self) -> Dict[str, int]:
        """``Interp.stats()`` summed over every filter built in the pass."""
        totals = {"cache_hits": 0, "cache_misses": 0}
        for tclish_filter in self.filters:
            stats = tclish_filter.interp.stats()
            for key in totals:
                totals[key] += stats[key]
        return totals

    def write_chrome_trace(self, path: str, *, label: str) -> int:
        """Dump the pass as Chrome-trace JSON (Perfetto, chrome://tracing)."""
        origin = self.spans[0][1]
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": label}}]
        for name_id, start, end, _parent in self.spans[:CHROME_SPAN_CAP]:
            name = self.names[name_id]
            events.append({"name": name, "cat": name.split(":")[0],
                           "ph": "X", "pid": 1, "tid": 1,
                           "ts": round((start - origin) * 1e6, 3),
                           "dur": round((end - start) * 1e6, 3)})
        with open(path, "w") as fp:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"spans_total": len(self.spans),
                                     "spans_written": len(events) - 1}}, fp)
        return len(events) - 1


def _p50(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics a traced in-process pass can see.

    Names ending ``.self_s`` are self times; every other ``*_s`` is the
    inclusive time of the named entry point(s).  Metrics that need
    artefacts from outside the process (worker busy time, store size,
    exact oracle counts) default to 0 here and are filled by the
    workload.
    """
    table = tracer.aggregate()

    def field(key: str, *names: str) -> float:
        return sum(table[name][key] for name in names if name in table)

    scheduler = ("netsim.scheduler:run", "netsim.scheduler:run_until",
                 "netsim.scheduler:run_until_quiet", "netsim.scheduler:step")
    hops = ("xkernel.protocol:send_up", "xkernel.protocol:send_down")
    pfi = ("core.pfi:push", "core.pfi:pop")
    tcp = ("tcp.protocol:pop", "tcp.protocol:on_segment")
    preflight = ("core.orchestrator:validate_scripts",
                 "core.orchestrator:precheck_body")
    dispatched = tracer.counts["scheduler.dispatched"]
    scheduler_self = field("self_s", *scheduler)
    pfi_msgs = field("calls", *pfi)
    filter_runs = field("calls", "core.script:run")
    interp = tracer.interp_stats()
    lookups = interp["cache_hits"] + interp["cache_misses"]
    gets = tracer.counts["pool.gets"]
    forks = table.get("core.checkpoint:fork", {}).get("durations", [])
    metrics = {
        "netsim.scheduler.events": dispatched,
        "netsim.scheduler.dispatched": dispatched,
        "netsim.scheduler.self_s": scheduler_self,
        "netsim.scheduler.us_per_event":
            scheduler_self * 1e6 / dispatched if dispatched else 0.0,
        "netsim.trace.record_calls": field("calls", "netsim.trace:record"),
        "netsim.trace.record_s": field("total_s", "netsim.trace:record"),
        "netsim.link.send_calls": field("calls", "netsim.link:send"),
        "netsim.link.self_s": field("self_s", "netsim.link:send"),
        "xkernel.message.copy_calls": field("calls", "xkernel.message:copy"),
        "xkernel.message.copy_s": field("total_s", "xkernel.message:copy"),
        "xkernel.protocol.hops": field("calls", *hops),
        "xkernel.protocol.self_s": field("self_s", *hops),
        "gmp.daemon.pop_calls": field("calls", "gmp.daemon:pop"),
        "gmp.daemon.self_s": field("self_s", "gmp.daemon:pop"),
        "tcp.protocol.segments": field("calls", "tcp.protocol:pop"),
        "tcp.protocol.self_s": field("self_s", *tcp),
        "core.pfi.msgs": pfi_msgs,
        "core.pfi.self_s": field("self_s", *pfi),
        "core.pfi.us_per_msg":
            field("self_s", *pfi) * 1e6 / pfi_msgs if pfi_msgs else 0.0,
        "core.script.filter_runs": filter_runs,
        "core.script.filter_s": field("total_s", "core.script:run"),
        "core.script.us_per_filter_run":
            field("total_s", "core.script:run") * 1e6 / filter_runs
            if filter_runs else 0.0,
        "core.script.filters_built": field("calls", "core.script:build"),
        "core.script.build_s": field("total_s", "core.script:build"),
        "core.tclish.compile_calls": field("calls", "core.tclish:compile"),
        "core.tclish.compile_s": field("total_s", "core.tclish:compile"),
        "core.tclish.cache_hit_ratio":
            interp["cache_hits"] / lookups if lookups else 0.0,
        "core.checkpoint.captures": field("calls", "core.checkpoint:capture"),
        "core.checkpoint.capture_s":
            field("total_s", "core.checkpoint:capture"),
        "core.checkpoint.forks": len(forks),
        "core.checkpoint.fork_s": sum(forks),
        "core.checkpoint.fork_ms_p50": _p50(forks) * 1e3,
        "core.checkpoint.pool_hit_ratio":
            tracer.counts["pool.hits"] / gets if gets else 0.0,
        "core.orchestrator.make_env_calls":
            field("calls", "core.orchestrator:make_env"),
        "core.orchestrator.make_env_s":
            field("total_s", "core.orchestrator:make_env"),
        "core.orchestrator.preflight_s": field("total_s", *preflight),
        "core.orchestrator.run_self_s":
            field("self_s", "core.orchestrator:run"),
        "core.orchestrator.result_pickle_bytes": 0,
        "core.orchestrator.pool_busy_s": 0.0,
        "core.orchestrator.pool_efficiency": 0.0,
        "oracle.evaluate_calls": field("calls", "oracle:evaluate"),
        "oracle.evaluate_s": field("total_s", "oracle:evaluate"),
        "oracle.violations": 0,
        "oracle.explore.schedules": 0,
        "oracle.explore.schedules_to_first_finding": 0,
        "oracle.explore.ancestor_forks": 0,
        "oracle.explore.simulated_events": 0,
        "oracle.explore.first_finding_s": 0.0,
        "oracle.explore.self_s": field("self_s", "oracle.explore:explore"),
        "core.fabric.store.put_calls":
            field("calls", "core.fabric.store:put"),
        "core.fabric.store.put_s": field("total_s", "core.fabric.store:put"),
        "core.fabric.store.probe_s":
            field("total_s", "core.fabric.store:key",
                  "core.fabric.store:missing"),
        "core.fabric.store.load_s": field("total_s", "core.fabric.store:get"),
        "core.fabric.store.bytes": 0,
        "obs.journal.record_calls": field("calls", "obs.journal:record"),
        "obs.journal.record_s": field("total_s", "obs.journal:record"),
        "obs.journal.bytes": 0,
        "core.fabric.coordinator.spawn_to_first_run_s": 0.0,
        "core.fabric.coordinator.leases": 0,
        "core.fabric.coordinator.lease_gap_ms_p50": 0.0,
        "core.fabric.coordinator.cpu_s": 0.0,
        "core.fabric.coordinator.worker_busy_s": 0.0,
        "core.fabric.coordinator.efficiency": 0.0,
        "core.fabric.merge.merge_s":
            field("total_s", "core.fabric.merge:merge_campaign_dir"),
        "obs.campaign_report.render_s":
            field("total_s", "obs.campaign_report:render_text"),
        "bench.pass_s": tracer.pass_s,
        "bench.unattributed_s": table[ROOT_SPAN]["self_s"],
    }
    for module in EXPERIMENT_MODULES:
        metrics[f"experiments.{module}.s"] = field(
            "total_s", f"experiments.{module}:run_all")
    return metrics


def span_table(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """calls / inclusive / self seconds per span name (for the results
    JSON; self times sum to the pass wall by construction)."""
    return {name: {"calls": row["calls"],
                   "total_s": round(row["total_s"], 6),
                   "self_s": round(row["self_s"], 6)}
            for name, row in sorted(tracer.aggregate().items())}
