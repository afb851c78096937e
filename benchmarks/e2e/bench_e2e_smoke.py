"""Smoke test: ``run.py --quick`` emits exactly what BENCHMARK.json declares.

Collected by ``benchmarks/pytest.ini`` (``pytest benchmarks/e2e``); takes
about 20 s.  It checks the contract between the declaration and the
harness -- workload, end-to-end and per-layer names -- not any number.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_quick_suite_matches_declaration(tmp_path):
    with open(ROOT / "BENCHMARK.json") as fp:
        spec = json.load(fp)
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name in [*workloads, *end_to_end, *per_layer]:
        assert NAME.fullmatch(name), name
    assert len(set(workloads)) == len(workloads)
    assert not end_to_end & per_layer

    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]

    with open(tmp_path / "results.json") as fp:
        results = json.load(fp)
    assert sorted(results["workloads"]) == sorted(workloads)
    assert results["errors"] == []
    for name in workloads:
        with open(tmp_path / f"{name}.quick.json") as fp:
            emitted = json.load(fp)
        assert set(emitted["metrics"]) == end_to_end | per_layer, name
        assert emitted["correct"] and emitted["failed"] == 0, name
        assert emitted["attempted"] >= 1, name
        for metric in spec["end_to_end"]:
            value = emitted["metrics"][metric["name"]]
            assert value["unit"] == metric["unit"]
            assert value["value"] > 0, (name, metric["name"])
        assert (tmp_path / f"{name}.trace.json").exists(), name
