"""The seven workloads: what one pass runs, and how its output is checked.

Every workload is a closed loop with one client: the next pass starts
when the previous one has returned.  ``run_pass`` is the timed region
and contains nothing but calls into the program; ``prepare_pass`` /
``check`` / ``release`` run outside it.  Sizes are per pass and were
chosen so that at least five passes fit the run length the benchmark is
driven with (see README.md); ``quick`` shrinks each to about a quarter.
"""

from __future__ import annotations

import hashlib
import pickle
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import inputs
import shapes

WORKERS = 2


def import_program() -> None:
    """Import everything any workload calls, so set-up time carries the
    import cost instead of the first pass."""
    import repro.core.checkpoint
    import repro.core.fabric
    import repro.core.fabric.coordinator
    import repro.core.tclish.lint
    import repro.obs.campaign_report
    import repro.oracle.explore
    import repro.oracle.fuzz
    import repro.staticcheck
    shapes.paper_calls(quick=False)


class Workload:
    """Base: a named op count, a set-up, a timed pass, and its checks."""

    #: as declared in BENCHMARK.json, which also says why it is there
    name = ""

    def __init__(self, seed: int, quick: bool, scratch: Path):
        self.seed = seed
        self.quick = quick
        self.scratch = scratch
        self.ops = 0
        #: per-pass side measurements of *untraced* passes, keyed by the
        #: per-layer metric they feed
        self.samples: Dict[str, List[float]] = {}
        self._pass_dirs: List[Path] = []
        self._dirs_made = 0

    def setup(self) -> None:
        """Generate and validate inputs, run the warm-up pass."""
        raise NotImplementedError

    def prepare_pass(self) -> None:
        """Untimed work a pass needs done first (a fresh directory)."""

    def run_pass(self) -> Any:
        raise NotImplementedError

    def check(self, out: Any) -> List[str]:
        """Problems with one pass's output (empty: correct)."""
        raise NotImplementedError

    def note_untraced(self, out: Any) -> None:
        """Harvest :attr:`samples` from an untraced pass."""

    def layer_extras(self, record: Any) -> Dict[str, float]:
        """Per-layer metrics only artefacts outside the tracer can give."""
        return {}

    def exact_layer_names(self) -> Sequence[str]:
        """Per-layer metrics that must repeat bit-for-bit."""
        return ("netsim.scheduler.events", "netsim.scheduler.dispatched",
                "netsim.trace.record_calls", "xkernel.message.copy_calls",
                "oracle.evaluate_calls", "oracle.violations")

    def release(self) -> None:
        """Drop whatever passes left on disk."""
        while self._pass_dirs:
            shutil.rmtree(self._pass_dirs.pop(), ignore_errors=True)

    def describe(self) -> Dict[str, Any]:
        """Input sizes for the results JSON."""
        return {"ops_per_pass": self.ops}

    def _fresh_dir(self, label: str) -> Path:
        self._dirs_made += 1
        path = self.scratch / f"{label}-{self._dirs_made}"
        self._pass_dirs.append(path)
        return path


# ----------------------------------------------------------------------
# 1. paper_tables
# ----------------------------------------------------------------------

class PaperTables(Workload):
    """The ``run_all`` calls behind ``repro all``; op = one call."""

    name = "paper_tables"

    def setup(self) -> None:
        self.calls = shapes.paper_calls(quick=self.quick)
        self.ops = len(self.calls)
        self.reference = self._digests(self.run_pass())

    def run_pass(self) -> List[Any]:
        return [getattr(module, "run_all")(*args)
                for _label, module, args in self.calls]

    @staticmethod
    def _digests(tables: List[Any]) -> List[str]:
        return [hashlib.sha256(repr(table).encode()).hexdigest()
                for table in tables]

    def check(self, out: List[Any]) -> List[str]:
        problems = []
        for (label, _module, _args), digest, reference in zip(
                self.calls, self._digests(out), self.reference):
            if digest != reference:
                problems.append(f"{label}: rows differ from the warm-up pass")
        problems.extend(shapes.shape_problems(self.calls, out))
        return problems

    def describe(self) -> Dict[str, Any]:
        return {"ops_per_pass": self.ops,
                "calls": [label for label, _module, _args in self.calls]}


# ----------------------------------------------------------------------
# 2-6. sweeps over a generated fault-script battery
# ----------------------------------------------------------------------

def scorecard(results: List[Any]) -> str:
    """``render_stable`` over rows built the way ``campaign.run_end``
    journal events build them, so a journal-free sweep and a merged
    campaign directory compare as text."""
    from repro.obs.campaign_report import (CampaignSummary, RunRow,
                                           render_stable)
    from repro.obs.telemetry import _config_label
    rows = [RunRow(index=index, label=_config_label(result.config), t=0.0,
                   codes=sorted({v.code for v in result.violations}),
                   violations=len(result.violations), ok=result.ok())
            for index, result in enumerate(results)]
    return render_stable(CampaignSummary(path=None, runs=rows))


class Sweep(Workload):
    """``Campaign(prefixed_fuzz_body).run(battery, oracle=pack)``."""

    protocol = "gmp"
    per_target = 10
    #: extra ``Campaign.run`` arguments (the backend under test)
    run_kwargs: Dict[str, Any] = {}

    def setup(self) -> None:
        from repro.core.orchestrator import Campaign
        from repro.oracle.fuzz import pack_for, prefixed_fuzz_body
        per_target = max(2, self.per_target // 4) if self.quick \
            else self.per_target
        self.battery = inputs.draw_battery(self.protocol, per_target,
                                           self.seed)
        self.configs = self.battery.configs
        self.ops = len(self.configs)
        self.campaign = Campaign(prefixed_fuzz_body,
                                 seed=inputs.CAMPAIGN_SEED)
        self.oracle = pack_for(self.protocol)
        self.reference_card = scorecard(self.battery.reference)
        self.reference_events = self.battery.events
        self.warm_up()

    def warm_up(self) -> None:
        self.prepare_pass()
        try:
            out = self.run_pass()
            problems = self.check(out)
        finally:
            self.release()
        if problems:
            raise RuntimeError(f"{self.name}: warm-up pass is wrong: "
                               + "; ".join(problems))

    def run_pass(self) -> List[Any]:
        return self.campaign.run(self.configs, oracle=self.oracle,
                                 **self.run_kwargs)

    def results_of(self, out: Any) -> List[Any]:
        return out

    def check(self, out: Any) -> List[str]:
        results = self.results_of(out)
        problems = []
        if len(results) != len(self.configs):
            return [f"{len(results)} results for {len(self.configs)} configs"]
        if scorecard(results) != self.reference_card:
            problems.append("stable scorecard differs from the cold "
                            "single-config reference")
        events = sum(result.telemetry.events for result in results)
        if events != self.reference_events:
            problems.append(f"{events} simulated events, reference has "
                            f"{self.reference_events}")
        return problems

    def layer_extras(self, record: Any) -> Dict[str, float]:
        results = self.results_of(record.out)
        return {
            "netsim.scheduler.events":
                sum(result.telemetry.events for result in results),
            "oracle.violations":
                sum(len(result.violations) for result in results),
        }

    def describe(self) -> Dict[str, Any]:
        card = hashlib.sha256(self.reference_card.encode()).hexdigest()
        return dict(self.battery.describe(), ops_per_pass=self.ops,
                    targets=list(inputs.targets_for(self.protocol)),
                    scorecard_sha256=card)


class GmpSweep(Sweep):
    """The reference sweep: 4 GMP targets x 10 scripts, serial."""

    name = "gmp_sweep"


class TcpSweep(Sweep):
    """Short runs, many configs: 4 vendor profiles x 75 scripts."""

    name = "tcp_sweep"
    protocol = "tcp"
    per_target = 75


class GmpSweepPool2(Sweep):
    """The GMP battery on the persistent 2-worker process pool."""

    name = "gmp_sweep_pool2"

    run_kwargs = {"workers": WORKERS}

    def layer_extras(self, record: Any) -> Dict[str, float]:
        extras = super().layer_extras(record)
        busy = sum(result.telemetry.wall_s for result in record.out)
        extras.update({
            "core.orchestrator.result_pickle_bytes":
                sum(len(pickle.dumps(result)) for result in record.out),
            "core.orchestrator.pool_busy_s": busy,
            "core.orchestrator.pool_efficiency":
                busy / (WORKERS * record.wall_s),
        })
        return extras


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _journal_lines(path: Path) -> int:
    total = 0
    for journal in path.glob("*.jsonl"):
        with open(journal, "rb") as fp:
            total += sum(1 for _line in fp)
    return total


class FabricSweep(Sweep):
    """A sweep against a campaign directory (store + journals)."""

    #: (store files, journal bytes, journal lines) in ``fabric_dir``
    #: before the pass
    before = (0, 0, 0)

    def layer_extras(self, record: Any) -> Dict[str, float]:
        """Adds the store and journal volume the pass left in
        ``fabric_dir`` (workers' writes included)."""
        puts, journal_bytes, journal_lines = self.before
        store = self.fabric_dir / "store"
        journals = self.fabric_dir / "journals"
        files = sum(1 for p in store.rglob("*") if p.is_file())
        extras = super().layer_extras(record)
        extras.update({
            "core.fabric.store.put_calls": files - puts,
            "core.fabric.store.bytes": _tree_bytes(store),
            "obs.journal.record_calls": _journal_lines(journals)
            - journal_lines,
            "obs.journal.bytes": _tree_bytes(journals) - journal_bytes,
        })
        return extras


class GmpSweepSockets2(FabricSweep):
    """The GMP battery through the sockets fabric, 2 spawned workers."""

    name = "gmp_sweep_sockets2"

    def prepare_pass(self) -> None:
        self.fabric_dir = self._fresh_dir("sockets")

    def run_pass(self) -> List[Any]:
        # worker spawn is inside the pass: every real sweep pays it
        return self.campaign.run(self.configs, oracle=self.oracle,
                                 backend="sockets", workers=WORKERS,
                                 fabric_dir=self.fabric_dir)

    def check(self, out: Any) -> List[str]:
        from repro.core.fabric import merge
        from repro.obs.campaign_report import render_stable
        problems = super().check(out)
        summary = merge.merge_campaign_dir(self.fabric_dir)
        if render_stable(summary) != self.reference_card:
            problems.append("merged shard journals give a different "
                            "stable scorecard")
        return problems

    def layer_extras(self, record: Any) -> Dict[str, float]:
        extras = super().layer_extras(record)
        # each lease writes its own journal: mtime is its last event,
        # the last event's t its length, so start = mtime - t
        leases: Dict[str, List[Tuple[float, float]]] = {}
        from repro.obs.journal import replay_journal
        for journal in sorted((self.fabric_dir / "journals")
                              .glob("shard-*.jsonl")):
            events = replay_journal(journal).events
            if not events:
                continue
            end = journal.stat().st_mtime
            worker = journal.stem.rsplit("-", 1)[1]
            leases.setdefault(worker, []).append((end - events[-1].t, end))
        spans = [span for held in leases.values() for span in held]
        busy = sum(end - start for start, end in spans)
        gaps = [later[0] - earlier[1]
                for held in leases.values()
                for earlier, later in zip(sorted(held), sorted(held)[1:])]
        extras.update({
            "core.fabric.coordinator.spawn_to_first_run_s":
                min(start for start, _end in spans) - record.wall_start,
            "core.fabric.coordinator.leases": len(spans),
            "core.fabric.coordinator.lease_gap_ms_p50":
                statistics.median(gaps) * 1e3 if gaps else 0.0,
            "core.fabric.coordinator.cpu_s": record.own_cpu_s,
            "core.fabric.coordinator.worker_busy_s": busy,
            "core.fabric.coordinator.efficiency":
                busy / (WORKERS * record.wall_s),
        })
        return extras

    def exact_layer_names(self) -> Sequence[str]:
        return ("netsim.scheduler.events", "oracle.violations",
                "core.fabric.store.put_calls")


class SweepResume(FabricSweep):
    """Resume a complete campaign directory, merge it, render it."""

    name = "sweep_resume"

    def setup(self) -> None:
        self.filled = self.scratch / "filled"
        shutil.rmtree(self.filled, ignore_errors=True)
        super().setup()

    def warm_up(self) -> None:
        # fill the directory once (a resume appends to its journals, so
        # every pass works on a fresh copy), then warm the resume path
        self.campaign.run(self.configs, oracle=self.oracle,
                          fabric_dir=self.filled)
        self.before = (
            sum(1 for p in (self.filled / "store").rglob("*")
                if p.is_file()),
            _tree_bytes(self.filled / "journals"),
            _journal_lines(self.filled / "journals"))
        super().warm_up()

    def prepare_pass(self) -> None:
        self.fabric_dir = self._fresh_dir("resume")
        shutil.copytree(self.filled, self.fabric_dir)

    def run_pass(self) -> Tuple[List[Any], Any, str]:
        from repro.core.fabric import merge
        from repro.obs import campaign_report
        results = self.campaign.run(self.configs, oracle=self.oracle,
                                    fabric_dir=self.fabric_dir)
        summary = merge.merge_campaign_dir(self.fabric_dir)
        return results, summary, campaign_report.render_text(summary)

    def results_of(self, out: Any) -> List[Any]:
        return out[0]

    def check(self, out: Any) -> List[str]:
        from repro.obs.campaign_report import render_stable
        _results, summary, text = out
        problems = super().check(out)
        if render_stable(summary) != self.reference_card:
            problems.append("merged journals give a different stable "
                            "scorecard")
        end = summary.end or {}
        if end.get("executed") != 0 or end.get("cached") != self.ops:
            problems.append(f"resume re-executed work: campaign.end says "
                            f"{end}")
        if not text.startswith("campaign flight record"):
            problems.append("render_text produced no flight record")
        return problems

    def exact_layer_names(self) -> Sequence[str]:
        return ("netsim.scheduler.events", "oracle.violations",
                "core.fabric.store.put_calls", "obs.journal.record_calls")


# ----------------------------------------------------------------------
# 7. explore_gmp
# ----------------------------------------------------------------------

class ExploreGmp(Workload):
    """Schedule exploration of gmp/self_death; op = one schedule."""

    name = "explore_gmp"
    max_schedules = 48

    def setup(self) -> None:
        self.ops = self.max_schedules // 4 if self.quick \
            else self.max_schedules
        self.reference = self._identity(self.run_pass()[0])

    def run_pass(self) -> Tuple[Any, Optional[float]]:
        from repro.oracle import explore as explore_module
        first: List[float] = []
        start = time.perf_counter()

        def sink(line: str) -> None:
            if not first and line.startswith("[explore] "):
                first.append(time.perf_counter() - start)

        report = explore_module.explore(
            "gmp", "self_death", max_schedules=self.ops,
            max_perturbations=2, progress=sink)
        return report, (first[0] if first else None)

    @staticmethod
    def _identity(report: Any) -> Tuple:
        return (report.schedules, report.distinct_outcomes,
                tuple(tuple(f.codes) for f in report.findings),
                tuple(o.outcome_hash for o in report.outcomes))

    def check(self, out: Any) -> List[str]:
        report, first_finding_s = out
        problems = []
        if self._identity(report) != self.reference:
            problems.append("schedules / outcomes / finding codes differ "
                            "from the warm-up pass")
        if report.schedules != self.ops:
            problems.append(f"{report.schedules} schedules run, "
                            f"{self.ops} asked for")
        if first_finding_s is None:
            problems.append("no finding reached the progress sink")
        return problems

    def note_untraced(self, out: Any) -> None:
        if out[1] is not None:
            self.samples.setdefault("oracle.explore.first_finding_s",
                                    []).append(out[1])

    def layer_extras(self, record: Any) -> Dict[str, float]:
        report, _first = record.out
        first = report.findings[0] if report.findings else None
        return {
            "oracle.explore.schedules": report.schedules,
            "oracle.explore.schedules_to_first_finding":
                report.outcomes.index(first) + 1 if first else 0,
            "oracle.explore.ancestor_forks": report.ancestor_forks,
            "oracle.explore.simulated_events": report.simulated_events,
            "oracle.violations":
                sum(o.violation_count for o in report.outcomes),
        }

    def exact_layer_names(self) -> Sequence[str]:
        return tuple(super().exact_layer_names()) + (
            "oracle.explore.schedules",
            "oracle.explore.schedules_to_first_finding",
            "oracle.explore.ancestor_forks",
            "oracle.explore.simulated_events",
            "core.checkpoint.captures", "core.checkpoint.forks")


WORKLOADS = {cls.name: cls for cls in (
    PaperTables, GmpSweep, TcpSweep, GmpSweepPool2, GmpSweepSockets2,
    SweepResume, ExploreGmp)}
