"""Measure one workload: set-up, timed passes, traced passes, statistics.

End-to-end numbers come from passes that run with no wrapper installed;
per-layer numbers come from separate traced passes (``tracing.py``) and
are never mixed into them.  All clocks are read here, around the
workload's ``run_pass``; preparing a pass (fresh campaign directory),
checking its output and cleaning up after it are outside the timed
region.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import traceback
from dataclasses import dataclass
from heapq import heappop, heappush
from time import perf_counter, process_time, time
from typing import Any, Callable, Dict, List, Optional, Tuple

from tracing import Tracer, layer_metrics, span_table

#: fewer timed passes than this and a median means little
MIN_TIMED_PASSES = 5

#: full set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3

_TICK = os.sysconf("SC_CLK_TCK")
_KIB_PER_MIB = 1024.0


# ----------------------------------------------------------------------
# machine-speed calibration
# ----------------------------------------------------------------------

#: seconds :func:`calibrate` takes on the reference box when nothing
#: else runs (its floor over ten minutes at the seed commit)
NOMINAL_CALIBRATION_S = 0.047


class _Cell:
    __slots__ = ("count", "payload")

    def __init__(self, count: int, payload: Dict[str, Any]):
        self.count = count
        self.payload = payload

    def bump(self) -> int:
        self.count += 1
        return self.count


def calibrate() -> float:
    """Seconds this box needs, right now, for a fixed slice of
    interpreter work: integer arithmetic, then the allocation / heap /
    dict / method-call mix a simulation pass is made of."""
    start = perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i
    heap: List[Any] = []
    table: Dict[int, _Cell] = {}
    for i in range(10_000):
        cell = _Cell(i, {"k": i, "s": str(i)})
        heappush(heap, ((i * 7) % 101, i, cell))
        table[i & 1023] = cell
        if i & 1:
            total += heappop(heap)[2].bump()
    return perf_counter() - start


def machine_speed(before_s: float, after_s: float) -> float:
    """Speed of the box between two calibrations, 1.0 = the reference
    box undisturbed.  Times multiplied by it read as they would there."""
    return NOMINAL_CALIBRATION_S / ((before_s + after_s) / 2)


# ----------------------------------------------------------------------
# process-tree accounting
# ----------------------------------------------------------------------

def _live_children() -> List[int]:
    """Pids whose parent is this process (pool workers stay alive across
    passes, so ``os.times()`` -- reaped children only -- misses them)."""
    me = str(os.getpid())
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fp:
                fields = fp.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[1] == me:
            children.append(int(entry))
    return children


def _child_cpu_s(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as fp:
            fields = fp.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def _child_peak_kib(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def tree_cpu_s() -> Tuple[float, float]:
    """``(whole tree, this process only)`` user+sys CPU seconds so far:
    this process, its reaped children, and its live children."""
    times = os.times()
    own = process_time()  # finer than the clock ticks os.times() counts in
    reaped = times.children_user + times.children_system
    live = sum(_child_cpu_s(pid) for pid in _live_children())
    return own + reaped + live, own


def tree_peak_rss_mib() -> float:
    """Largest peak RSS of any single process in the tree, MiB."""
    peaks = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
    peaks.extend(_child_peak_kib(pid) for pid in _live_children())
    return max(peaks) / _KIB_PER_MIB


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def summarize(values: List[float]) -> Dict[str, Any]:
    """n / median / quartiles / extremes of one metric's per-pass samples."""
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------

@dataclass
class PassRecord:
    """One executed pass: its output and what the clocks said."""

    out: Any
    wall_s: float
    #: user+sys CPU of the whole process tree / of this process alone
    cpu_s: float
    own_cpu_s: float
    #: ``time.time()`` when the pass began (to place journal mtimes)
    wall_start: float
    #: :func:`machine_speed` bracketing the pass
    speed: float


def run_one_pass(workload: Any,
                 runner: Optional[Callable[[Callable[[], Any]], Any]] = None
                 ) -> PassRecord:
    """Prepare, time and return one pass (``runner`` wraps the timed call
    for traced passes).  The caller checks and releases the output."""
    workload.prepare_pass()
    gc.collect()
    before_s = calibrate()
    cpu0, own0 = tree_cpu_s()
    wall_start = time()
    start = perf_counter()
    out = workload.run_pass() if runner is None else runner(workload.run_pass)
    wall_s = perf_counter() - start
    cpu1, own1 = tree_cpu_s()
    return PassRecord(out, wall_s, cpu1 - cpu0, own1 - own0, wall_start,
                      machine_speed(before_s, calibrate()))


class Measurement:
    """Everything one invocation of the benchmark learned."""

    def __init__(self, workload: Any):
        self.workload = workload
        self.errors: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.setup_samples: List[float] = []
        self.raw_setup_samples: List[float] = []
        self.timed: List[PassRecord] = []
        self.end_to_end: Dict[str, float] = {}
        self.end_to_end_stats: Dict[str, Dict[str, Any]] = {}
        self.layers: Dict[str, float] = {}
        self.layer_stats: Dict[str, Dict[str, Any]] = {}
        self.spans: Dict[str, Dict[str, float]] = {}
        self.exact: Dict[str, Any] = {}

    @property
    def correct(self) -> bool:
        return not self.errors

    # -- set-up ----------------------------------------------------------

    def setup(self, repeats: int, import_s: float) -> None:
        """Set up ``repeats`` times; the last one's state is kept."""
        for _ in range(repeats):
            before_s = calibrate()
            start = perf_counter()
            self.workload.setup()
            elapsed = import_s + perf_counter() - start
            self.raw_setup_samples.append(elapsed)
            self.setup_samples.append(
                elapsed * machine_speed(before_s, calibrate()))
        gc.collect()
        gc.freeze()

    def _checked_pass(self, runner=None) -> Optional[PassRecord]:
        ops = self.workload.ops
        self.attempted += ops
        try:
            record = run_one_pass(self.workload, runner)
        except Exception:
            self.failed += ops
            self.errors.append("pass raised:\n" + traceback.format_exc())
            self.workload.release()
            return None
        problems = self.workload.check(record.out)
        if problems:
            self.failed += ops
            self.errors.extend(problems)
        return record

    # -- end-to-end ------------------------------------------------------

    def measure_end_to_end(self, seconds: float, min_passes: int) -> None:
        """Timed passes for about ``seconds``, never fewer than
        ``min_passes``; stops where the total lands closest to it.  A
        pass that raises ends the measurement (its ops count as failed).
        """
        begin = perf_counter()
        while True:
            record = self._checked_pass()
            if record is None:
                break
            self.workload.note_untraced(record.out)
            self.workload.release()
            record.out = None
            self.timed.append(record)
            elapsed = perf_counter() - begin
            if (len(self.timed) >= min_passes
                    and elapsed + elapsed / len(self.timed) / 2 >= seconds):
                break
        if not self.timed:
            return
        ops = self.workload.ops
        # The box's speed drifts by +-15 % in phases that outlast a pass
        # (README.md, "Noise"), so each timing is scaled by the speed a
        # calibration loop saw around it; the raw readings stay in stats.
        samples = {
            "ops_per_s": [ops / (r.wall_s * r.speed) for r in self.timed],
            "cpu_ms_per_op": [r.cpu_s * r.speed * 1e3 / ops
                              for r in self.timed],
            "setup_s": self.setup_samples,
            "raw_setup_s": self.raw_setup_samples,
            "raw_pass_s": [r.wall_s for r in self.timed],
            "raw_cpu_s": [r.cpu_s for r in self.timed],
            "machine_speed": [r.speed for r in self.timed],
        }
        samples.update(self.workload.samples)
        self.end_to_end_stats = {name: summarize(values)
                                 for name, values in samples.items()}
        self.end_to_end = {
            name: self.end_to_end_stats[name]["median"]
            for name in ("ops_per_s", "cpu_ms_per_op", "setup_s")}
        self.end_to_end["peak_rss_mb"] = tree_peak_rss_mib()

    # -- per-layer -------------------------------------------------------

    def measure_layers(self, seconds: float, trace_path: Optional[str]
                       ) -> None:
        """Alternate untraced and traced passes for about ``seconds``.

        Reports the traced pass with the median wall time whole, so its
        self times add up to its own wall; exact counts must agree
        across all traced passes.  ``trace_path`` gets the last traced
        pass as Chrome-trace JSON.
        """
        tracer = Tracer()
        untraced: List[PassRecord] = []
        traced: List[Tuple[float, Dict[str, float], Dict[str, Any]]] = []
        begin = perf_counter()
        while True:
            plain = self._checked_pass()
            if plain is None:
                break
            self.workload.note_untraced(plain.out)
            self.workload.release()
            plain.out = None
            record = self._checked_pass(tracer.traced_pass)
            if record is None:
                break
            untraced.append(plain)
            record.wall_s = tracer.pass_s
            metrics = layer_metrics(tracer)
            metrics.update(self.workload.layer_extras(record))
            traced.append((record.wall_s, metrics, span_table(tracer)))
            self.workload.release()
            elapsed = perf_counter() - begin
            if elapsed + elapsed / len(traced) / 2 >= seconds:
                break
        if not traced:
            return
        if trace_path is not None:
            tracer.write_chrome_trace(trace_path, label=self.workload.name)
        exact = self.workload.exact_layer_names()
        for name in exact:
            seen = {metrics[name] for _wall, metrics, _spans in traced}
            if len(seen) > 1:
                self.errors.append(
                    f"exact count {name} differs across traced passes: "
                    f"{sorted(seen)}")
        traced.sort(key=lambda item: item[0])
        wall_s, metrics, spans = traced[(len(traced) - 1) // 2]
        plain_s = statistics.median(r.wall_s for r in untraced)
        metrics["bench.trace_overhead_pct"] = (wall_s / plain_s - 1.0) * 100.0
        for name, values in self.workload.samples.items():
            metrics[name] = statistics.median(values)
        attributed = sum(row["self_s"] for row in spans.values())
        if abs(attributed - wall_s) > 0.02 * wall_s:
            self.errors.append(
                f"span self times sum to {attributed:.4f}s, traced pass "
                f"took {wall_s:.4f}s (more than 2 % apart)")
        self.layers = metrics
        self.spans = spans
        self.exact = {name: metrics[name] for name in exact}
        self.layer_stats = {
            "traced_pass_s": summarize([wall for wall, _m, _s in traced]),
            "untraced_pass_s": summarize([r.wall_s for r in untraced])}
