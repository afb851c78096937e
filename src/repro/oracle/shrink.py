"""Shrinking violating fuzz cases into deterministic repro artifacts.

A finding from :func:`repro.oracle.fuzz.run_fuzz` is typically noisy:
several clauses, only one of which matters.  :func:`shrink_case` reduces
it while preserving the verdict:

1. **ddmin over clauses** -- classic delta debugging on the script's
   clause list; the result is always a *subsequence* of the original
   clauses (order preserved, nothing rewritten);
2. **seed minimization** -- the smallest small integer case seed that
   still violates replaces the derived 32-bit one.

The predicate throughout is "the run still reports the target violation
code", so shrinking can never trade one bug for another unnoticed.
Every probe is a one-configuration sweep through the campaign's shard
executor (:func:`repro.oracle.fuzz.execute_configs`) that forks the
case's pooled warm prefix -- byte-identical to the cold :func:`~repro
.oracle.fuzz.run_case` replay, so the predicate is the replayer's own.

The shrunk case is frozen into a JSON **reproduction artifact** carrying
the exact campaign configuration plus the expected violation
fingerprints.  Fingerprints deliberately exclude message uids (process-
global counters; see ``VOLATILE_ATTRS`` in :mod:`repro.analysis.export`)
so a replay in a fresh process compares byte-identically:
:func:`replay_artifact` re-runs the case and diffs codes, violation
count, and the stored fingerprint prefix against the recorded ones.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core.checkpoint import CheckpointPool
from repro.core.orchestrator import Campaign
from repro.netsim import kinds as K
from repro.obs.journal import Flight
from repro.oracle.fuzz import (Finding, FuzzCase, execute_configs,
                               prefixed_fuzz_body, run_case)
from repro.oracle.grammar import Clause

ARTIFACT_VERSION = 1

#: fingerprints stored per artifact; storms would otherwise bloat the
#: committed corpus, and a fixed prefix diffs just as decisively
MAX_FINGERPRINTS = 50

#: candidate replacement seeds, smallest first
SEED_CANDIDATES = (0, 1, 2)


@dataclass
class ShrinkStats:
    """How much work shrinking did, for reporting."""

    runs: int = 0
    clauses_before: int = 0
    clauses_after: int = 0
    seed_before: int = 0
    seed_after: int = 0


def ddmin(items: Sequence, test) -> List:
    """Minimal order-preserving subsequence of ``items`` passing ``test``.

    Standard delta debugging (Zeller's ddmin): repeatedly drop chunk
    complements at increasing granularity.  ``test`` receives a candidate
    subsequence and returns truth; ``test(items)`` is assumed true.
    """
    items = list(items)
    granularity = 2
    while len(items) >= 2:
        size = max(1, len(items) // granularity)
        reduced = False
        for start in range(0, len(items), size):
            candidate = items[:start] + items[start + size:]
            if candidate and test(candidate):
                items = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if granularity >= len(items):
                break
            granularity = min(len(items), granularity * 2)
    return items


def shrink_case(case: FuzzCase, code: str, *, campaign_seed: int = 0,
                pool: Optional[CheckpointPool] = None, journal=None
                ) -> "tuple[FuzzCase, ShrinkStats]":
    """Reduce ``case`` while it still reports ``code``.

    ``journal`` (a :class:`~repro.obs.journal.Journal` or a path)
    records one ``campaign.shrink_step`` per ddmin/seed probe -- clause
    count, whether the probe still violated -- so an interrupted shrink
    shows how far it got.  A path gets a flight of its own (start, gate,
    trail, end); pass the fuzz sweep's own open journal to append just
    the trail to that flight record.  ``pool`` (a shared
    :class:`~repro.core.checkpoint.CheckpointPool`) lets this shrink
    fork a prefix the fuzz sweep or a sibling shrink already captured;
    without one the first probe captures it for the rest.

    The case passes the campaign's gate first (``CampaignScriptError``
    for a script that does not lint); the probes, subsequences of a
    script that did, are not gated again.
    """
    stats = ShrinkStats(clauses_before=len(case.script.clauses),
                        seed_before=case.case_seed)
    if pool is None:
        pool = CheckpointPool()
    with Flight(journal, "shrink",
                {"code": code, "case": case.script.name,
                 "target": case.target, "campaign_seed": campaign_seed,
                 "clauses": len(case.script.clauses)},
                join=True) as flight:
        flight.counters = lambda: {
            "executed": stats.runs, "clauses_before": stats.clauses_before,
            "clauses_after": stats.clauses_after,
            "seed_after": stats.seed_after}
        flight.gate(Campaign(prefixed_fuzz_body, seed=campaign_seed).preflight,
                    [case.config()])

        def still_violates(candidate: FuzzCase) -> bool:
            stats.runs += 1
            [row], _captures = execute_configs(
                [candidate.config()], seed=campaign_seed, pool=pool,
                journal=flight.journal)
            verdict = code in {v.code for v in row.result.violations}
            flight.journal.record(
                K.CAMPAIGN_SHRINK_STEP, probe=stats.runs,
                case=candidate.script.name,
                clauses=len(candidate.script.clauses),
                case_seed=candidate.case_seed, code=code,
                still_violates=verdict)
            return verdict

        if not still_violates(case):
            raise ValueError(
                f"case {case.script.name} does not reproduce {code} under "
                f"campaign seed {campaign_seed}; nothing to shrink")

        def with_clauses(clauses: Sequence[Clause]) -> FuzzCase:
            return replace(case, script=case.script.with_clauses(
                clauses, name=f"{case.script.name}_min"))

        clauses = ddmin(case.script.clauses,
                        lambda cand: still_violates(with_clauses(cand)))
        shrunk = with_clauses(clauses)

        for seed in SEED_CANDIDATES:
            if seed == shrunk.case_seed:
                break
            candidate = replace(shrunk, case_seed=seed)
            if still_violates(candidate):
                shrunk = candidate
                break

        stats.clauses_after = len(shrunk.script.clauses)
        stats.seed_after = shrunk.case_seed
    return shrunk, stats


# ----------------------------------------------------------------------
# reproduction artifacts
# ----------------------------------------------------------------------

@dataclass
class ReproArtifact:
    """A self-contained, committable reproduction of one violation."""

    case: FuzzCase
    code: str
    campaign_seed: int
    codes: List[str]
    violation_count: int
    fingerprints: List[List]

    def to_dict(self) -> Dict[str, object]:
        return {"version": ARTIFACT_VERSION, "code": self.code,
                "campaign_seed": self.campaign_seed,
                "case": self.case.to_dict(), "codes": list(self.codes),
                "violation_count": self.violation_count,
                "fingerprints": [list(fp) for fp in self.fingerprints]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ReproArtifact":
        if data.get("version") != ARTIFACT_VERSION:
            raise ValueError(
                f"unsupported repro artifact version {data.get('version')!r}")
        return cls(case=FuzzCase.from_dict(data["case"]), code=data["code"],
                   campaign_seed=data["campaign_seed"],
                   codes=list(data["codes"]),
                   violation_count=data["violation_count"],
                   fingerprints=[list(fp) for fp in data["fingerprints"]])

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2,
                                   sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ReproArtifact":
        return cls.from_dict(json.loads(Path(path).read_text()))


def make_artifact(case: FuzzCase, code: str, *,
                  campaign_seed: int = 0) -> ReproArtifact:
    """Run ``case`` once more and freeze its verdict into an artifact."""
    result = run_case(case, campaign_seed=campaign_seed)
    violations = result.violations or []
    if code not in {v.code for v in violations}:
        raise ValueError(f"case does not reproduce {code}")
    return ReproArtifact(
        case=case, code=code, campaign_seed=campaign_seed,
        codes=sorted({v.code for v in violations}),
        violation_count=len(violations),
        fingerprints=[list(v.fingerprint())
                      for v in violations[:MAX_FINGERPRINTS]])


@dataclass
class ReplayResult:
    """Outcome of replaying one artifact."""

    artifact: ReproArtifact
    ok: bool
    mismatches: List[str] = field(default_factory=list)
    observed_codes: List[str] = field(default_factory=list)


def replay_artifact(artifact: Union[ReproArtifact, str, Path]
                    ) -> ReplayResult:
    """Re-run an artifact's case and compare against the frozen verdict."""
    if not isinstance(artifact, ReproArtifact):
        artifact = ReproArtifact.load(artifact)
    result = run_case(artifact.case, campaign_seed=artifact.campaign_seed)
    violations = result.violations or []
    observed_codes = sorted({v.code for v in violations})
    mismatches: List[str] = []
    if observed_codes != artifact.codes:
        mismatches.append(f"codes: expected {artifact.codes}, "
                          f"observed {observed_codes}")
    if len(violations) != artifact.violation_count:
        mismatches.append(f"violation count: expected "
                          f"{artifact.violation_count}, observed "
                          f"{len(violations)}")
    observed_fps = [list(v.fingerprint())
                    for v in violations[:MAX_FINGERPRINTS]]
    if observed_fps != artifact.fingerprints:
        mismatches.append("fingerprints diverged from the recorded run")
    return ReplayResult(artifact=artifact, ok=not mismatches,
                        mismatches=mismatches,
                        observed_codes=observed_codes)


def shrink_finding(finding: Finding, *, campaign_seed: int = 0,
                   pool: Optional[CheckpointPool] = None, journal=None
                   ) -> "tuple[ReproArtifact, ShrinkStats]":
    """Shrink one fuzz finding and freeze the result.

    Probes fork a pooled prefix (see :func:`shrink_case`); the final
    artifact is always frozen from a cold :func:`~repro.oracle.fuzz
    .run_case` replay, so a committed artifact never depends on the
    checkpoint layer to reproduce.  ``pool`` and ``journal`` are
    forwarded to :func:`shrink_case`.
    """
    code = finding.codes[0]
    shrunk, stats = shrink_case(finding.case, code,
                                campaign_seed=campaign_seed, pool=pool,
                                journal=journal)
    return make_artifact(shrunk, code, campaign_seed=campaign_seed), stats


def artifact_name(artifact: ReproArtifact) -> str:
    """The canonical corpus filename for one artifact.

    Content-addressed suffix: distinct shrunk scripts targeting the same
    (code, variant) pair get distinct, rerun-stable filenames; an install
    depth, when the case has one, is part of the content.
    """
    case = artifact.case
    content = (f"{case.script.source}\n{case.script.init}"
               f"\n{case.script.direction}\n{case.case_seed}")
    if case.install_at is not None:
        content += f"\n{case.install_at}"
    digest = hashlib.sha256(content.encode()).hexdigest()[:8]
    return (f"{case.protocol}_{artifact.code.lower()}_"
            f"{case.target}_{digest}.json")
