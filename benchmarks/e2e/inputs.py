"""Seeded input generator: fault-script batteries for the sweep workloads.

A battery is ``len(targets) * per_target`` campaign configs, every one
carrying its own grammar-generated fault script.  Scripts are drawn with
:func:`repro.oracle.grammar.generate_script` from one ``random.Random``
stream per ``(seed, protocol, target)``; a draw that trips the grammar's
own lint guard is redrawn.  Every candidate is then *validated*: run
once, cold and alone, through ``Campaign.run`` with lint on.  Candidates
that raise are dropped and counted per cause, so timed passes only ever
see runnable inputs.  The validation results double as the reference
every sweep workload's output is checked against (a cold single-config
run is the definition of a config's result).

Run cost is heavy-tailed in the script drawn (a script that starves a
GMP daemon of heartbeats triples the activity of its run), which at the
battery sizes the time cap allows would make ops/s swing by +-10 % from
seed to seed.  So each target draws a few spare candidates and
:func:`_balance` swaps spares in until the battery's total trace volume
(``RunTelemetry.trace_entries``, exact, and the best single predictor of
a run's cost: R^2 0.78 over 200 configs, events 0.69) sits at
``TRACE_ENTRIES_PER_CONFIG * size``: the stated input size is a config
count *and* an amount of simulated activity, whatever the seed.

The program under test receives the configs only, never the seed.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

#: ``Campaign(seed=...)`` of every sweep: fixed, part of the workload
CAMPAIGN_SEED = 0

GMP_TARGETS = ("self_death", "forward_param", "inverted_timer", "fixed")

#: spare candidates drawn per target, as a share of ``per_target``
SPARE_SHARE = 3

#: balance goal: mean trace entries per config over 600 grammar draws at
#: the seed commit.  TCP runs are short and uniform (per-config overhead
#: dominates) and its battery is large, so it is not balanced (0).
TRACE_ENTRIES_PER_CONFIG = {"gmp": 1065, "tcp": 0}

#: stop balancing once the total is within this share of the goal
BALANCE_TOLERANCE = 0.01


@dataclass
class Battery:
    """One workload's inputs plus what set-up learned about them."""

    protocol: str
    configs: List[Dict[str, Any]]
    #: the validation run of each config, index-aligned with ``configs``
    reference: List[Any]
    candidates: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)
    #: spares the event balancing swapped in
    swaps: int = 0

    @property
    def events(self) -> int:
        return sum(result.telemetry.events for result in self.reference)

    @property
    def trace_entries(self) -> int:
        return sum(result.telemetry.trace_entries
                   for result in self.reference)

    def describe(self) -> Dict[str, Any]:
        return {"protocol": self.protocol, "configs": len(self.configs),
                "events": self.events, "trace_entries": self.trace_entries,
                "candidates": self.candidates,
                "battery_rejected": dict(self.rejected),
                "balance_swaps": self.swaps}


def targets_for(protocol: str) -> Tuple[str, ...]:
    if protocol == "tcp":
        from repro.tcp import VENDORS
        return tuple(VENDORS)
    return GMP_TARGETS


def _validated(protocol: str, target: str, rng: random.Random, wanted: int,
               rejected: Counter) -> Tuple[List[Tuple[Dict[str, Any], Any]],
                                           int]:
    """Draw until ``wanted`` candidates for ``target`` have run cleanly."""
    from repro.core.orchestrator import Campaign
    from repro.oracle.fuzz import pack_for, prefixed_fuzz_body
    from repro.oracle.grammar import GrammarLintError, generate_script
    oracle = pack_for(protocol)
    accepted: List[Tuple[Dict[str, Any], Any]] = []
    drawn = 0
    while len(accepted) < wanted:
        drawn += 1
        if drawn > wanted * 20:
            raise RuntimeError(
                f"{protocol}/{target}: {drawn} draws gave only "
                f"{len(accepted)} runnable scripts ({dict(rejected)})")
        try:
            script = generate_script(rng, protocol, index=drawn)
        except GrammarLintError:
            rejected["GrammarLintError"] += 1
            continue
        config = {"protocol": protocol, "target": target,
                  "direction": script.direction, "script": script.source,
                  "init_script": script.init, "case_seed": drawn}
        try:
            result, = Campaign(prefixed_fuzz_body, seed=CAMPAIGN_SEED).run(
                [config], oracle=oracle, group=False)
        except Exception as err:  # any failure disqualifies the input
            rejected[type(err).__name__] += 1
            continue
        accepted.append((config, result))
    return accepted, drawn


def _balance(members: List[List[Tuple[Dict[str, Any], Any]]],
             spares: List[List[Tuple[Dict[str, Any], Any]]],
             goal: int) -> int:
    """Swap same-target spares in until total trace volume is ``goal``.

    Greedy: each round applies the single (member, spare) swap that
    brings the total closest to the goal, and stops when no swap helps
    or the total is within :data:`BALANCE_TOLERANCE`.  Returns the
    number of swaps made.
    """
    def volume(item: Tuple[Dict[str, Any], Any]) -> int:
        return item[1].telemetry.trace_entries

    total = sum(volume(item) for group in members for item in group)
    swaps = 0
    while abs(total - goal) > goal * BALANCE_TOLERANCE:
        best = None
        for group, pool in zip(members, spares):
            for i, member in enumerate(group):
                for j, spare in enumerate(pool):
                    after = total - volume(member) + volume(spare)
                    if best is None or abs(after - goal) < best[0]:
                        best = (abs(after - goal), after, group, i, pool, j)
        if best is None or best[0] >= abs(total - goal):
            break
        _gap, total, group, i, pool, j = best
        group[i], pool[j] = pool[j], group[i]
        swaps += 1
    return swaps


def draw_battery(protocol: str, per_target: int, seed: int) -> Battery:
    """The validated, volume-balanced battery for ``(protocol, seed)``."""
    targets: Sequence[str] = targets_for(protocol)
    goal = TRACE_ENTRIES_PER_CONFIG[protocol] * per_target * len(targets)
    spare_count = -(-per_target // SPARE_SHARE) if goal else 0
    rejected: Counter = Counter()
    members, spares, candidates = [], [], 0
    for target in targets:
        rng = random.Random(f"e2e/{seed}/{protocol}/{target}")
        accepted, drawn = _validated(protocol, target, rng,
                                     per_target + spare_count, rejected)
        candidates += drawn
        members.append(accepted[:per_target])
        spares.append(accepted[per_target:])
    swaps = _balance(members, spares, goal) if goal else 0
    flat = [item for group in members for item in group]
    return Battery(protocol=protocol,
                   configs=[config for config, _result in flat],
                   reference=[result for _config, result in flat],
                   candidates=candidates, rejected=dict(rejected),
                   swaps=swaps)
