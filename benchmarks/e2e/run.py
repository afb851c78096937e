#!/usr/bin/env python3
"""End-to-end + per-layer benchmark for tables, sweeps, fabric, explorer.

One workload, as the benchmark driver calls it (last stdout line is the
result object; ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
the per-layer ones)::

    python3 benchmarks/e2e/run.py --workload gmp_sweep --seed 3 \\
        --seconds 8 --trace 0

The whole suite, each workload in a fresh subprocess, with a results
JSON and the traced passes' Chrome traces written to ``--out``::

    python3 benchmarks/e2e/run.py [--seed N] [--quick] [--aa] [--out DIR]

Names, units, directions and regression bounds live in ``BENCHMARK.json``
at the repository root; this program refuses to report a metric set
that differs from the one declared there.  See README.md beside this
file for what every workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

SCHEMA_VERSION = 1
QUICK_SECONDS = 0.0

#: the four workloads that run one battery and must agree on its results
SAME_BATTERY = ("gmp_sweep", "gmp_sweep_pool2", "gmp_sweep_sockets2",
                "sweep_resume")


def declared() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fp:
        return json.load(fp)


def _units(spec: Dict[str, Any], section: str) -> Dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in spec[section]}


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------

def run_workload(args: argparse.Namespace) -> int:
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; BENCHMARK.json "
              f"declares {', '.join(names)}", file=sys.stderr)
        return 2
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".bench_scratch" / f"e2e-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    # sockets workers inherit sys.path; anything that asks for a temp
    # file gets one inside the checkout
    os.environ["TMPDIR"] = str(scratch)
    try:
        return _measure(args, spec, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(args: argparse.Namespace, spec: Dict[str, Any],
             scratch: Path) -> int:
    start = perf_counter()
    import harness
    import workloads
    workloads.import_program()
    import_s = perf_counter() - start

    workload = workloads.WORKLOADS[args.workload](
        seed=args.seed, quick=args.quick, scratch=scratch)
    measurement = harness.Measurement(workload)
    seconds = QUICK_SECONDS if args.quick else args.seconds
    modes = {"0", "1"} if args.quick else {args.trace}
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    load_before = os.getloadavg()
    repeats = harness.SETUP_REPEATS if modes == {"0"} else 1
    measurement.setup(repeats, import_s)
    metrics: Dict[str, Dict[str, Any]] = {}
    if "0" in modes:
        measurement.measure_end_to_end(
            seconds, 1 if args.quick else harness.MIN_TIMED_PASSES)
        units = _units(spec, "end_to_end")
        _require_names(measurement.end_to_end, units, "end_to_end")
        metrics.update({name: {"value": measurement.end_to_end[name],
                               "unit": unit}
                        for name, unit in units.items()})
    if "1" in modes:
        trace_path = (str(out_dir / f"{workload.name}.trace.json")
                      if out_dir is not None else None)
        measurement.measure_layers(seconds, trace_path)
        units = _units(spec, "per_layer")
        _require_names(measurement.layers, units, "per_layer")
        metrics.update({name: {"value": measurement.layers[name],
                               "unit": unit}
                        for name, unit in units.items()})
    workload.release()

    for name, metric in metrics.items():
        print(f"{name:<48} {metric['value']:>16.6f} {metric['unit']}")
    for problem in measurement.errors:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    if not metrics:
        return 1
    if out_dir is not None:
        detail = {
            "workload": workload.name, "seed": args.seed,
            "quick": args.quick, "modes": sorted(modes),
            "seconds": seconds, "sizes": workload.describe(),
            "correct": measurement.correct,
            "attempted": measurement.attempted,
            "failed": measurement.failed, "errors": measurement.errors,
            "metrics": metrics, "stats": measurement.end_to_end_stats,
            "layer_stats": measurement.layer_stats,
            "exact": measurement.exact, "spans": measurement.spans,
            "load_avg": {"before": load_before, "after": os.getloadavg()},
        }
        tag = "quick" if args.quick else f"trace{args.trace}"
        with open(out_dir / f"{workload.name}.{tag}.json", "w") as fp:
            json.dump(detail, fp, indent=1, sort_keys=True)
    print(json.dumps({"correct": measurement.correct,
                      "attempted": measurement.attempted,
                      "failed": measurement.failed, "metrics": metrics}))
    return 0 if measurement.correct and not measurement.failed else 1


def _require_names(measured: Dict[str, Any], units: Dict[str, str],
                   section: str) -> None:
    if set(measured) != set(units):
        raise SystemExit(
            f"{section}: measured and declared metric names differ: "
            f"only measured {sorted(set(measured) - set(units))}, only "
            f"declared {sorted(set(units) - set(measured))}")


# ----------------------------------------------------------------------
# the suite: every workload in a fresh subprocess
# ----------------------------------------------------------------------

def _git_commit() -> Optional[str]:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _child(workload: str, args: argparse.Namespace, trace: str,
           out_dir: Path) -> Dict[str, Any]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", trace, "--out", str(out_dir)]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600)
    sys.stderr.write(done.stderr)
    tag = "quick" if args.quick else f"trace{trace}"
    detail_path = out_dir / f"{workload}.{tag}.json"
    if not detail_path.exists():
        return {"correct": False, "attempted": 0, "failed": 0,
                "errors": [f"exit {done.returncode}, no result: "
                           f"{done.stderr[-2000:]}"],
                "metrics": {}, "stats": {}, "exact": {}, "spans": {},
                "sizes": {}, "load_avg": {}}
    with open(detail_path) as fp:
        return json.load(fp)


def run_suite(args: argparse.Namespace, out_dir: Path) -> Dict[str, Any]:
    spec = declared()
    nproc = os.cpu_count() or 1
    load_before = os.getloadavg()
    if load_before[0] > nproc:
        print(f"WARNING: load average {load_before[0]:.2f} exceeds "
              f"nproc={nproc}; timings will be noisy", file=sys.stderr)
    end_to_end = _units(spec, "end_to_end")
    per_layer = _units(spec, "per_layer")
    report: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "provenance": {
            "git_commit": _git_commit(), "python": platform.python_version(),
            "platform": platform.platform(), "nproc": nproc,
            "seed": args.seed, "quick": args.quick,
            "seconds": QUICK_SECONDS if args.quick else args.seconds,
            "load_avg_before": load_before,
        },
        "workloads": {},
    }
    for declared_workload in spec["workloads"]:
        name = declared_workload["name"]
        runs = [_child(name, args, trace, out_dir)
                for trace in (("0",) if args.quick else ("0", "1"))]
        metrics: Dict[str, Any] = {}
        for run in runs:
            metrics.update(run["metrics"])
        attempted = runs[0]["attempted"]
        stats = runs[0]["stats"]
        first_finding = stats.get("oracle.explore.first_finding_s")
        entry = {
            "why": declared_workload["why"],
            "sizes": runs[0]["sizes"],
            "correct": all(run["correct"] for run in runs),
            "errors": [e for run in runs for e in run["errors"]],
            "attempted": attempted, "failed": runs[0]["failed"],
            "failed_ratio": (runs[0]["failed"] / attempted
                             if attempted else None),
            "first_finding_s": first_finding,
            "end_to_end": {
                metric: dict(stats.get(metric, {}),
                             value=metrics.get(metric, {}).get("value"),
                             unit=unit)
                for metric, unit in end_to_end.items()},
            "per_layer": {metric: metrics.get(metric, {}).get("value")
                          for metric in per_layer},
            "exact": runs[-1]["exact"], "spans": runs[-1]["spans"],
            "load_avg": runs[0]["load_avg"],
        }
        report["workloads"][name] = entry
        print(f"== {name}: {'ok' if entry['correct'] else 'INCORRECT'}, "
              f"failed {entry['failed']}/{attempted} ops")
        for metric, unit in end_to_end.items():
            value = entry["end_to_end"][metric]["value"]
            print(f"   {metric:<46} {_fmt(value):>16} {unit}")
        if first_finding:
            print(f"   {'first_finding_s':<46} "
                  f"{_fmt(first_finding['median']):>16} s")
        for metric, unit in per_layer.items():
            print(f"   {metric:<46} "
                  f"{_fmt(entry['per_layer'][metric]):>16} {unit}")
    report["errors"] = _cross_checks(report["workloads"])
    report["provenance"]["load_avg_after"] = os.getloadavg()
    if report["provenance"]["load_avg_after"][0] > nproc:
        print("WARNING: load average rose above nproc during the run",
              file=sys.stderr)
    return report


def _fmt(value: Any) -> str:
    return "null" if value is None else f"{value:.6f}"


def _cross_checks(entries: Dict[str, Any]) -> List[str]:
    """What only the suite can see: the four same-battery workloads
    agree on scorecard and simulated events; nothing else went wrong."""
    errors = [f"{name}: {error}" for name, entry in entries.items()
              for error in entry["errors"]]
    errors += [f"{name}: {entry['failed']} failed ops"
               for name, entry in entries.items() if entry["failed"]]
    for key in ("scorecard_sha256", "events"):
        seen = {name: entries[name]["sizes"].get(key)
                for name in SAME_BATTERY if name in entries}
        if len(set(seen.values())) > 1:
            errors.append(f"{key} differs across workloads: {seen}")
    return errors


def compare_aa(first: Dict[str, Any], second: Dict[str, Any]) -> List[str]:
    """Two runs of the same tree: each end-to-end metric within its bound,
    every exact count identical."""
    spec = declared()
    failures = []
    print(f"{'workload':<20} {'metric':<16} {'first':>14} {'second':>14} "
          f"{'worse by':>9} {'bound':>6}")
    for name, entry in first["workloads"].items():
        other = second["workloads"][name]
        for metric in spec["end_to_end"]:
            a = entry["end_to_end"][metric["name"]]["value"]
            b = other["end_to_end"][metric["name"]]["value"]
            if a is None or b is None:
                failures.append(f"{name}.{metric['name']}: not measured")
                continue
            worse = (a - b) / a if metric["better"] == "higher" \
                else (b - a) / a
            verdict = "" if abs(worse) <= metric["bound"] else "  <-- A/A"
            print(f"{name:<20} {metric['name']:<16} {a:>14.4f} {b:>14.4f} "
                  f"{worse:>+9.1%} {metric['bound']:>6.0%}{verdict}")
            if verdict:
                failures.append(f"{name}.{metric['name']}: {worse:+.1%} "
                                f"between two runs of the same tree")
        if entry["exact"] != other["exact"]:
            failures.append(f"{name}: exact counts differ between runs")
    return failures


def run_all(args: argparse.Namespace) -> int:
    out_dir = Path(args.out) if args.out \
        else ROOT / ".bench_scratch" / "e2e-results"
    out_dir.mkdir(parents=True, exist_ok=True)
    report = run_suite(args, out_dir)
    errors = list(report["errors"])
    if args.aa:
        second = run_suite(args, out_dir / "aa")
        errors += second["errors"] + compare_aa(report, second)
        report["aa"] = second
    results_path = out_dir / "results.json"
    with open(results_path, "w") as fp:
        json.dump(report, fp, indent=1, sort_keys=True)
    print(f"results: {results_path}")
    for error in errors:
        print(f"FAILED: {error}", file=sys.stderr)
    return 1 if errors else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="measure this workload in this "
                        "process (default: the whole suite)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", choices=("0", "1"), default="0",
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="quarter-size inputs, one timed and one traced "
                        "pass per workload")
    parser.add_argument("--aa", action="store_true",
                        help="run the suite twice and hold the two runs to "
                        "the regression bounds")
    parser.add_argument("--out", help="directory for the results JSON and "
                        "Chrome traces")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
