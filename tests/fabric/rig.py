"""The fabric chaos rig: a slow, deterministic sweep and kill helpers.

The chaos tests (``test_chaos.py``) need a sweep whose wall-clock
duration they control -- long enough that a SIGKILL lands *mid-sweep*
with configurations still pending -- while its results stay perfectly
deterministic on stable keys.  :func:`chaos_body` burns a configurable
amount of real time per configuration (invisible to stable keys, which
are wall-clock-free) around a tiny simulated workload.

``python -m tests.fabric.rig --dir D --count N --backend B ...`` runs
one sweep attempt over that body in a subprocess -- ``sockets``
(coordinator + workers, the default) or ``local`` (the in-process engine
writing through the same campaign directory) -- which is what makes the
coordinator, or the serial sweep itself, killable; rerunning the
identical command is a resume (the spec digest matches, the store
already holds the completed rows).  Exit status: 0 completed, 3 aborted
resumable (``workers_lost``), 1 anything else.

The helpers here are the rig's observation surface: ``state.json``
(written atomically by the coordinator) names the victims to SIGKILL,
and :func:`run_end_count` measures sweep progress by counting durable
``campaign.run_end`` journal records -- which is how kill offsets are
fuzzed without any timing assumptions.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.core.fabric import FabricError, SweepSpec, merge_campaign_dir
from repro.core.orchestrator import Campaign, run_sweep
from repro.netsim import kinds as K
from repro.obs.campaign_report import summarize_journal

REPO_ROOT = Path(__file__).resolve().parents[2]

DEFAULT_WORK_MS = 40.0
DEFAULT_SEED = 1995


def chaos_body(env, config):
    """Deterministic on stable keys; real-time cost set by ``RIG_WORK_MS``.

    The simulated part (a short tick chain) gives every row the same
    trace/telemetry shape a real experiment body has; the ``sleep``
    only stretches wall time so the chaos tests can land a SIGKILL
    mid-sweep.  The knob is an environment variable, *not* a config
    key: configs (and therefore row labels, store keys and the spec
    digest) must be identical between the slow chaos sweep and the
    fast serial oracle it is compared against.
    """
    time.sleep(float(os.environ.get("RIG_WORK_MS", "0")) / 1000.0)
    state = {"ticks": 0}

    def tick():
        state["ticks"] += 1
        if state["ticks"] < int(config.get("ticks", 3)):
            env.scheduler.schedule(1.0, tick)

    env.scheduler.schedule(1.0, tick)
    env.scheduler.run()
    return {"item": config["item"], "ticks": state["ticks"]}


def make_configs(count: int) -> List[Dict[str, Any]]:
    return [{"item": index, "ticks": 3} for index in range(count)]


def make_spec(count: int, *, seed: int = DEFAULT_SEED) -> SweepSpec:
    return SweepSpec(body=chaos_body, seed=seed,
                     configs=make_configs(count),
                     lint="off")


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------

def serial_stable_keys(count: int, tmp_path: Path, *,
                       seed: int = DEFAULT_SEED) -> List[tuple]:
    """The serial scorecard the fabric must reproduce exactly.

    Runs the identical sweep through the in-process engine with a
    journal, then summarizes.  ``RIG_WORK_MS`` is unset here, so the
    oracle runs at full speed -- stable keys are wall-clock-free, and
    the configs are byte-identical to the chaos sweep's.
    """
    journal = Path(tmp_path) / "serial.jsonl"
    campaign = Campaign(chaos_body, seed=seed, lint="off")
    campaign.run(make_configs(count), journal=journal)
    return [row.stable_key() for row in summarize_journal(journal).runs]


def merged_stable_keys(fabric_dir: Path) -> List[tuple]:
    return [row.stable_key()
            for row in merge_campaign_dir(fabric_dir).runs]


# ----------------------------------------------------------------------
# subprocess sweep control
# ----------------------------------------------------------------------

def rig_env(work_ms: Optional[float] = None) -> Dict[str, str]:
    env = dict(os.environ)
    entries = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    existing = env.get("PYTHONPATH")
    if existing:
        entries.append(existing)
    env["PYTHONPATH"] = os.pathsep.join(entries)
    env.pop("RIG_WORK_MS", None)
    if work_ms is not None:
        env["RIG_WORK_MS"] = str(work_ms)
    return env


def spawn_sweep(fabric_dir: Path, count: int, *, workers: int = 2,
                work_ms: float = DEFAULT_WORK_MS,
                ttl: Optional[float] = None,
                seed: int = DEFAULT_SEED,
                resume: bool = False,
                backend: str = "sockets") -> subprocess.Popen:
    """Launch one sweep attempt on ``backend`` as a subprocess
    (``sockets``: coordinator + workers; ``local``: one serial process).

    ``work_ms`` rides in the environment (``RIG_WORK_MS``), which the
    coordinator re-exports to its workers -- the sweep's configs stay
    identical to the serial oracle's no matter how slow it runs.
    """
    argv = [sys.executable, "-m", "tests.fabric.rig",
            "--dir", str(Path(fabric_dir).resolve()),
            "--count", str(count),
            "--workers", str(workers), "--seed", str(seed),
            "--backend", backend]
    if ttl is not None:
        argv += ["--ttl", str(ttl)]
    if resume:
        argv.append("--resume")
    return subprocess.Popen(argv, cwd=str(REPO_ROOT),
                            env=rig_env(work_ms),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def read_state(fabric_dir: Path) -> Optional[Dict[str, Any]]:
    try:
        return json.loads((Path(fabric_dir) / "state.json").read_text())
    except (OSError, ValueError):
        return None


def worker_pids(fabric_dir: Path) -> Dict[str, int]:
    state = read_state(fabric_dir)
    if not state:
        return {}
    return {name: int(pid)
            for name, pid in (state.get("workers") or {}).items()}


def run_end_count(fabric_dir: Path) -> int:
    """Durable ``campaign.run_end`` records across every journal.

    Reads raw text (journals are being appended to while we poll); a
    torn trailing line simply does not contain the full kind marker yet.
    """
    marker = f'"{K.CAMPAIGN_RUN_END}"'
    total = 0
    journals = Path(fabric_dir) / "journals"
    if not journals.is_dir():
        return 0
    for path in journals.glob("*.jsonl"):
        try:
            total += path.read_text(errors="replace").count(marker)
        except OSError:
            continue
    return total


def campaign_ends(fabric_dir: Path) -> List[Dict[str, Any]]:
    """Every ``campaign.end`` payload in the coordinator journal."""
    path = Path(fabric_dir) / "journals" / "coordinator.jsonl"
    ends = []
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return ends
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if record.get("kind") == K.CAMPAIGN_END:
            ends.append(record.get("data") or {})
    return ends


def wait_until(predicate: Callable[[], bool], *, timeout: float = 30.0,
               poll: float = 0.02, what: str = "condition") -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(poll)
    raise AssertionError(f"timed out after {timeout}s waiting for {what}")


def sigkill(pid: int) -> bool:
    try:
        os.kill(pid, signal.SIGKILL)
        return True
    except (ProcessLookupError, PermissionError):
        return False


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


# ----------------------------------------------------------------------
# the killable sweep entrypoint
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="tests.fabric.rig",
        description="one killable chaos-rig sweep attempt")
    parser.add_argument("--dir", required=True)
    parser.add_argument("--count", type=int, default=12)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--ttl", type=float, default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--backend", choices=["sockets", "local"],
                        default="sockets")
    parser.add_argument("--resume", action="store_true",
                        help="load the spec from --dir instead of "
                             "rebuilding it")
    args = parser.parse_args(argv)

    if args.resume:
        spec = SweepSpec.load(Path(args.dir) / "spec.pkl")
    else:
        spec = make_spec(args.count, seed=args.seed)
    try:
        # local is serial and in-process, same directory layout;
        # --workers and --ttl do not apply
        run_sweep(spec, backend=args.backend, fabric_dir=args.dir,
                  workers=args.workers if args.backend == "sockets" else 1,
                  fabric_options={} if args.ttl is None
                  else {"ttl": args.ttl})
    except FabricError as err:
        print(f"rig: {err}", file=sys.stderr)
        return 3 if err.status == "workers_lost" else 1
    return 0


if __name__ == "__main__":
    # under ``python -m`` this file runs as ``__main__``, which would
    # pickle the body with an unimportable module path; delegate to the
    # canonically imported module so workers can unpickle the spec
    from tests.fabric import rig as _rig
    sys.exit(_rig.main())
