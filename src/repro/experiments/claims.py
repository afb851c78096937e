"""The paper's claims, declared once.

Each :class:`Claim` is one row of EXPERIMENTS.md: the panel it belongs
to (a ``repro`` command of :data:`repro.cli.PANELS`), the quantity, the
paper's value, how to measure it from the experiments' results, how the
two must agree (:class:`Match`) and, where they need not agree exactly,
why.  Three places are built from :data:`LEDGER`:

- the tier-1 tests check every row (``tests/experiments``);
- ``benchmarks/bench_paper.py`` prints each panel as ``repro all`` does
  and checks that panel's rows;
- EXPERIMENTS.md's tables are :func:`table` renderings, and a tier-1
  test holds the committed document to them.  Run::

      python -m repro.experiments.claims

  to print them all.

A row measures through ``run(fn, *args, **kwargs)``, which returns
``fn(*args, **kwargs)``: :func:`call` runs the experiment, and
``functools.cache(call)`` runs each one once however many rows read it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

from repro.analysis.shape import is_exponential_backoff
from repro.experiments import (gmp_packet_interruption, gmp_partition,
                               gmp_proclaim, gmp_timer, tcp_delayed_ack,
                               tcp_keepalive, tcp_reordering,
                               tcp_retransmission, tcp_zero_window)
from repro.tcp import BSD_DERIVED, SOLARIS_23, SUNOS_413, VENDORS

#: ``run(fn, *args, **kwargs)``: one experiment's results
Run = Callable[..., Any]


def call(fn: Callable, *args, **kwargs) -> Any:
    """Run one experiment afresh (the uncached ``run``)."""
    return fn(*args, **kwargs)


class PerKey(dict):
    """One measured value per vendor or sub-experiment of a row."""


def show(value: Any) -> str:
    """A measured value as EXPERIMENTS.md prints it.

    Floats print to six significant digits, so a table pins each value
    at that precision; a :class:`PerKey` prints once when every key
    measured the same.
    """
    if isinstance(value, PerKey):
        shown = {key: show(each) for key, each in value.items()}
        if len(set(shown.values())) == 1:
            return next(iter(shown.values()))
        return "; ".join(f"{key}: {text}" for key, text in shown.items())
    if isinstance(value, dict):
        return ", ".join(f"{key}={show(each)}" for key, each in value.items())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(show, value)) + "]"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True)
class Match:
    """How a measured value must agree with the paper's.

    ``label`` is the match class -- ``exact``, ``ordering``, ``shape``
    or a ``±`` tolerance -- and ``holds`` the check, applied to each
    key's value of a :class:`PerKey`.
    """

    label: str
    holds: Callable[[Any], bool]


def exact(expected: Any) -> Match:
    """The measured value prints as ``expected`` does."""
    return Match("exact", lambda value: show(value) == show(expected))


def within(expected: float, tolerance: float) -> Match:
    """The measured seconds are within ``tolerance`` of ``expected``."""
    return Match(f"±{tolerance:g} s",
                 lambda value: abs(value - expected) <= tolerance)


@dataclass(frozen=True)
class Claim:
    """One row of EXPERIMENTS.md, and the check behind it."""

    panel: str
    quantity: str
    paper: str
    measure: Callable[[Run], Any]
    match: Match
    cause: str = ""     # why a match that is not exact is not
    unit: str = ""

    def measured(self, run: Run) -> str:
        return show(self.measure(run)) + self.unit

    def check(self, run: Run) -> str:
        """Empty when the row holds, else a message naming it."""
        value = self.measure(run)
        values = value.values() if isinstance(value, PerKey) else [value]
        if all(self.match.holds(each) for each in values):
            return ""
        return (f"{self.panel} / {self.quantity}: measured "
                f"{show(value)}{self.unit}, paper {self.paper} "
                f"({self.verdict})")

    @property
    def verdict(self) -> str:
        return f"{self.match.label}: {self.cause}" if self.cause \
            else self.match.label


def source(fn: Callable, *args, **kwargs) -> Callable[[Run], Any]:
    """One experiment's results, read through ``run``."""
    return lambda run: run(fn, *args, **kwargs)


def of(results: Callable[[Run], Any], keys, get) -> Callable[[Run], Any]:
    """Measure ``get`` (an attribute name, or a function of one result)
    on each of ``keys`` in ``results``, or on the one result when
    ``keys`` is None."""
    get = get if callable(get) else (lambda result, name=get:
                                     getattr(result, name))

    def measure(run: Run) -> Any:
        found = results(run)
        if keys is None:
            return get(found)
        return PerKey({key: get(found[key]) for key in keys})
    return measure


def named(*names: str) -> Callable[[Any], Dict[str, Any]]:
    """A result's fields ``names``, as a dict."""
    return lambda result: {name: getattr(result, name) for name in names}


def fields(panel: str, quantity: str, paper: str, results, keys,
           **expected) -> Claim:
    """A row whose fields print as ``expected`` on every key."""
    return Claim(panel, quantity, paper, of(results, keys, named(*expected)),
                 exact(expected))


def _falling_curves(run: Run) -> List[str]:
    """Figure 4's curves with no point, or with a point below the one
    before it (Solaris's first point may sit above the second: its
    post-timeout reset quirk)."""
    falling = []
    for panel, results in FIGURE4.items():
        for name, result in results(run).items():
            series = result.intervals
            if not VENDORS[name].uses_jacobson:
                series = series[1:]
            if not result.intervals or any(
                    cur < prev * 0.99 for prev, cur in zip(series, series[1:])):
                falling.append(f"{name} ({panel})")
    return falling


def _zero_window(run: Run) -> Dict[Any, Any]:
    """Table 4's runs, keyed by vendor and by whether probes are ACKed."""
    return {(name, variant): result for variant in ("acked", "unacked")
            for name, result in run(tcp_zero_window.run_all, variant).items()}


def _repeats(idle: float) -> Match:
    """Answered keep-alives keep coming, each within 1 % of ``idle``."""
    return Match("exact", lambda answered: answered["answered_still_open"]
                 and all(abs(gap - idle) <= 0.01 * idle
                         for gap in answered["answered_probe_intervals"]))


SOLARIS = ("Solaris 2.3",)
ALL = tuple(VENDORS)
T1 = source(tcp_retransmission.run_all)
T2 = source(tcp_delayed_ack.run_all, 3.0)
T2_8S = source(tcp_delayed_ack.run_all, 8.0)
T3 = source(tcp_keepalive.run_all)
E5 = source(tcp_reordering.run_all)
T5 = source(gmp_packet_interruption.run_all)
T6 = source(gmp_partition.run_all)
T7 = source(gmp_proclaim.run_all)
T8 = source(gmp_timer.run_all)
COUNTER = source(tcp_delayed_ack.run_global_counter_probe, SOLARIS_23)
FIGURE4 = {"no delay": T1, "3 s": T2, "8 s": T2_8S}

_SLOW_ADAPT = ("our Jacobson rttvar keeps more of the initial delay spike "
               "than the vendors' coarse-tick kernels did; the spread comes "
               "from the var_floor_frac profile knob")
_COUNTER = ("m1's retransmissions before its late ACK depend on link "
            "timing the paper's LAN set; the threshold total is exact")


def _both(names: Sequence[str]) -> List[tuple]:
    return [(name, variant) for name in names
            for variant in ("acked", "unacked")]


#: every claim, grouped by panel in EXPERIMENTS.md's order
LEDGER = (
    # Table 1: pass 30 packets, then drop everything inbound
    fields("table1", "SunOS/AIX/NeXT retransmissions before death", "12",
           T1, BSD_DERIVED, retransmissions=12),
    fields("table1", "SunOS/AIX/NeXT teardown", "TCP reset sent",
           T1, BSD_DERIVED, reset_sent=True),
    fields("table1", "SunOS/AIX/NeXT backoff", "exponential to a 64 s bound",
           T1, BSD_DERIVED, backoff_exponential=True, upper_bound=64.0),
    fields("table1", "Solaris retransmissions before death", "9",
           T1, SOLARIS, retransmissions=9),
    fields("table1", "Solaris teardown", "abrupt close, no reset",
           T1, SOLARIS, reset_sent=False),
    Claim("table1", "Solaris backoff floor", "~330 ms",
          of(T1, SOLARIS, lambda r: r.intervals[0]), exact(0.33), unit=" s"),
    fields("table1", "Solaris upper bound", "never reached",
           T1, SOLARIS, upper_bound=None, backoff_exponential=True),
    Claim("table1", "Solaris eighth and ninth intervals",
          "ninth retransmission ~48 s after the eighth",
          of(T1, SOLARIS, lambda r: r.intervals[-2:]),
          Match("shape", lambda pair: abs(pair[1] - 2 * pair[0]) < 0.01),
          "still doubling, no bound reached; ours doubles from the 0.33 s "
          "floor (0.33 s x 2^7), and the paper's ~48 s is not modelled",
          unit=" s"),
    fields("table1", "every connection's end", "killed by retransmission",
           T1, ALL, close_reason="retransmission_timeout"),
    Claim("table1", "packets the receive filter logged before the drops",
          "logged (no count given)", of(T1, ALL, "logged_packets"),
          Match("shape", lambda logged: logged > 0),
          "the paper logs the packets but prints no count"),

    # Table 2: delay 30 ACKs by 3 s (or 8 s), then drop everything
    *(Claim("table2", f"{name} first retransmit, 3 s delay", paper,
            of(T2, (name,), "first_retransmit_interval"),
            Match("shape", lambda first: first > 3.0),
            "adapted above the delay; " + _SLOW_ADAPT, unit=" s")
      for name, paper in (("SunOS 4.1.3", "~6.5 s"), ("AIX 3.2.3", "~8 s"),
                          ("NeXT Mach", "~5 s"))),
    Claim("table2", "SunOS/AIX/NeXT first-retransmit order, 3 s delay",
          "NeXT < SunOS < AIX",
          lambda run: " < ".join(sorted(
              BSD_DERIVED,
              key=lambda name: run(tcp_delayed_ack.run_all, 3.0)[name]
              .first_retransmit_interval)),
          Match("ordering", lambda order: order ==
                "NeXT Mach < SunOS 4.1.3 < AIX 3.2.3"),
          "the order is the paper's; the values are the shape rows above"),
    Claim("table2", "Solaris first retransmit, 3 s delay",
          "~2.4 s (below the delay)",
          of(T2, SOLARIS, "first_retransmit_interval"),
          Match("shape", lambda first: first < 3.0),
          "did not adapt; the value follows the naive estimator's smoothed "
          "RTT, which our link timing sets", unit=" s"),
    Claim("table2", "Solaris retransmissions before death, 3 s delay",
          "~7 (< 9: counter partly consumed)",
          of(T2, SOLARIS, "retransmissions"),
          Match("shape", lambda count: count < 9),
          "dies early on a partly consumed global counter; how much the "
          "delayed ACKs consumed depends on link timing"),
    Claim("table2", "SunOS/AIX/NeXT first retransmit, 8 s delay",
          "essentially the same (above the delay)",
          of(T2_8S, BSD_DERIVED, "first_retransmit_interval"),
          Match("shape", lambda first: first > 8.0), _SLOW_ADAPT, unit=" s"),
    Claim("table2", "Solaris first retransmit, 8 s delay",
          "essentially the same (below the delay)",
          of(T2_8S, SOLARIS, "first_retransmit_interval"),
          Match("shape", lambda first: first < 8.0),
          "did not adapt, as at 3 s", unit=" s"),
    Claim("table2", "probe: Solaris m1 retransmissions before its late ACK",
          "6", of(COUNTER, None, "m1_retransmissions"),
          Match("shape", lambda count: count >= 5), _COUNTER),
    Claim("table2", "probe: Solaris m2 retransmissions after it", "3",
          of(COUNTER, None, "m2_retransmissions"),
          Match("shape", lambda count: 1 <= count <= 4), _COUNTER),
    fields("table2", "probe: Solaris total = the threshold", "9",
           COUNTER, None, total=9, close_reason="retransmission_timeout"),
    fields("table2", "probe: SunOS m2 retransmissions (per-segment budget)",
           "12 (implied)",
           source(tcp_delayed_ack.run_global_counter_probe, SUNOS_413), None,
           m2_retransmissions=12),

    # Figure 4: the Table 1 / Table 2 runs' gaps before each retransmission
    Claim("figure4", "curves with no point or a falling one",
          "none: each rises to its cap", _falling_curves, exact([])),
    Claim("figure4", "SunOS/AIX/NeXT last gap, no delay", "64 s plateau",
          of(T1, BSD_DERIVED, lambda r: r.intervals[-1]), exact(64.0),
          unit=" s"),
    Claim("figure4", "SunOS/AIX/NeXT first gap: no delay, 3 s, 8 s",
          "delayed curves start higher",
          lambda run: PerKey({name: [results(run)[name].intervals[0]
                                     for results in FIGURE4.values()]
                              for name in BSD_DERIVED}),
          Match("ordering", lambda firsts: firsts == sorted(set(firsts))),
          "the paper's curves are read off a plot", unit=" s"),

    # Table 3: an idle connection with keep-alive on
    Claim("table3", "SunOS/AIX/NeXT first probe",
          "7202 s (SunOS), 7204 s (AIX): the 7200 s threshold",
          of(T3, BSD_DERIVED, "first_probe_at"), within(7200.0, 5.0),
          "the probe fires on the 7200 s threshold; the paper's 2-4 s "
          "past it are its links and timer ticks", unit=" s"),
    Claim("table3", "Solaris first probe", "6752 s (< 7200: a violation)",
          of(T3, SOLARIS, "first_probe_at"), exact(6752.0), unit=" s"),
    fields("table3", "SunOS/AIX/NeXT dropped probes", "8 at 75 s, then RST",
           T3, BSD_DERIVED, probe_retransmissions=8,
           retransmit_intervals=[75.0] * 8, reset_sent=True),
    Claim("table3", "Solaris dropped probes",
          "7, exponential backoff, no RST",
          of(T3, SOLARIS, named("probe_retransmissions",
                                "retransmit_intervals", "reset_sent")),
          Match("exact", lambda probes: probes["probe_retransmissions"] == 7
                and not probes["reset_sent"] and is_exponential_backoff(
                    probes["retransmit_intervals"],
                    floor=SOLARIS_23.min_rto))),
    fields("table3", "SunOS probe format", "SND.NXT-1 + 1 garbage byte",
           T3, ("SunOS 4.1.3",), probe_seq_is_nxt_minus_1=True,
           garbage_byte=True),
    fields("table3", "AIX/NeXT/Solaris probe format",
           "SND.NXT-1, 0 bytes (AIX, NeXT)",
           T3, ("AIX 3.2.3", "NeXT Mach", "Solaris 2.3"),
           probe_seq_is_nxt_minus_1=True, garbage_byte=False),
    Claim("table3", "SunOS/AIX/NeXT answered probes",
          "repeat at the threshold indefinitely",
          of(T3, BSD_DERIVED, named("answered_still_open",
                                    "answered_probe_intervals")),
          _repeats(7200.0)),
    Claim("table3", "Solaris answered probes",
          "repeat at the threshold indefinitely (a 112 h run)",
          of(T3, SOLARIS, named("answered_still_open",
                                "answered_probe_intervals")),
          _repeats(6752.0)),

    # Table 4: the receiver stops consuming, its window fills to zero
    fields("table4", "SunOS/AIX/NeXT probe backoff cap, ACKed or not",
           "60 s", _zero_window, _both(BSD_DERIVED), plateau=60.0),
    fields("table4", "Solaris probe backoff cap, ACKed or not",
           "56 s (6752/7200 of 60)", _zero_window, _both(SOLARIS),
           plateau=56.0),
    fields("table4", "probe backoff", "exponential", _zero_window, _both(ALL),
           backoff_exponential=True),
    fields("table4", "probes, ACKed or not", "continue indefinitely "
           "(un-ACKed: \"could pose a problem\")", _zero_window, _both(ALL),
           still_probing_at_end=True, still_open=True),
    Claim("table4", "ethernet unplugged 2 days",
          "probes still being sent on reconnect",
          of(source(tcp_zero_window.run_zero_window, SUNOS_413,
                    variant="unplugged"), None,
             named("probes_after_replug", "still_open")),
          Match("exact", lambda replug: replug["probes_after_replug"] > 0
                and replug["still_open"])),

    # Experiment 5: the second segment overtakes a delayed first
    fields("exp5", "early second segment", "queued", E5, ALL,
           second_segment_queued=True),
    fields("exp5", "ACK when the first lands", "one cumulative ACK",
           E5, ALL, acked_both_at_once=True),
    fields("exp5", "data", "delivered intact", E5, ALL,
           data_delivered_in_order=True, duplicate_deliveries=0),

    # Table 5: GMP packet interruption
    fields("table5", "drop all heartbeats (buggy gmd)",
           "reports its own death, stays in the old group; the forwarded "
           "PROCLAIM is lost to the parameter bug", T5, ("self_death_buggy",),
           self_death_bug_fired=True, stayed_in_old_group=True,
           formed_singleton=False, forward_param_bug_fired=True),
    fields("table5", "drop all heartbeats (fixed gmd)",
           "falls back to a singleton, rejoins", T5, ("self_death_fixed",),
           self_death_bug_fired=False, formed_singleton=True, rejoined=True),
    fields("table5", "suspend the gmd 30 s (buggy)",
           "\"identical behavior was observed\"", T5, ("suspend_buggy",),
           self_death_bug_fired=True, stayed_in_old_group=True),
    Claim("table5", "drop heartbeats to others, 120 s",
          "kicked out / re-admitted, over and over",
          of(T5, ("kick_rejoin",), named("times_kicked_out",
                                         "times_rejoined", "cycled")),
          Match("exact", lambda kick: kick["cycled"]
                and kick["times_kicked_out"] >= 2
                and kick["times_rejoined"] >= 1)),
    Claim("table5", "drop ACKs of MEMBERSHIP_CHANGE",
          "never admitted to any group",
          of(T5, ("ack_drop",), named(
              "joiner_ever_committed", "joiner_mc_timeouts",
              "joiner_kept_proclaiming",
              "others_formed_group_without_joiner")),
          Match("exact", lambda ack: not ack["joiner_ever_committed"]
                and ack["joiner_mc_timeouts"] >= 1
                and ack["joiner_kept_proclaiming"]
                and ack["others_formed_group_without_joiner"])),
    fields("table5", "drop COMMITs",
           "stuck IN_TRANSITION; committed by the others, then kicked",
           T5, ("commit_drop",), joiner_entered_transition=True,
           joiner_ever_stable_in_group=False, others_committed_joiner=True,
           joiner_kicked_after_commit=True),

    # Table 6: GMP network partitions
    fields("table6", "oscillating {1-3}/{4,5} partition",
           "disjoint groups, re-merged on heal, over and over",
           T6, ("oscillating",), disjoint_groups_formed=True,
           groups_during_partition=((1, 2, 3), (4, 5)),
           merged_after_heal=True, cycles_observed=2),
    fields("table6", "leader/crown-prince separation, leader first",
           "crown prince alone, the rest with the leader",
           T6, ("leader_detects_first",), first_mover=1,
           crown_prince_singleton=True, leader_group=(1, 3, 4, 5),
           end_state_matches_paper=True),
    fields("table6", "leader/crown-prince separation, prince first",
           "another course of action, the same end state",
           T6, ("prince_detects_first",), first_mover=2,
           crown_prince_singleton=True, leader_group=(1, 3, 4, 5),
           end_state_matches_paper=True),

    # Table 7: proclaim forwarding
    Claim("table7", "leader/crown-prince proclaims in 5 s, buggy and fixed",
          "a vicious cycle (buggy)",
          lambda run: {build: run(gmp_proclaim.run_all)[build]
                       .leader_prince_proclaims
                       for build in ("buggy", "fixed")},
          Match("exact", lambda proclaims:
                proclaims["buggy"] > 100 * max(1, proclaims["fixed"]))),
    fields("table7", "buggy: the proclaim originator",
           "never answered, never admitted", T7, ("buggy",),
           proclaim_loop_detected=True, newcomer_received_reply=False,
           newcomer_admitted=False),
    fields("table7", "fixed: the proclaim originator",
           "answered by the leader, admitted", T7, ("fixed",),
           proclaim_loop_detected=False, newcomer_received_reply=True,
           newcomer_admitted=True),

    # Table 8: the timer test
    Claim("table8", "buggy: timers armed IN_TRANSITION",
          "the leader's heartbeat-expect timer too",
          of(T8, ("buggy",), "timers_armed_in_transition"),
          Match("exact", lambda armed: "heartbeat_expect/1" in armed)),
    fields("table8", "buggy: a second MEMBERSHIP_CHANGE",
           "timed out waiting for a heartbeat from the leader", T8,
           ("buggy",), second_change_received=True,
           spurious_heartbeat_timeout=True),
    Claim("table8", "fixed: timers armed IN_TRANSITION",
          "the membership-change timer only",
          of(T8, ("fixed",), "timers_armed_in_transition"),
          Match("exact", lambda armed: bool(armed) and all(
              timer.startswith("mc_timeout") for timer in armed))),
    fields("table8", "fixed: a second MEMBERSHIP_CHANGE", "no timeout",
           T8, ("fixed",), second_change_received=True,
           spurious_heartbeat_timeout=False),
    fields("table8", "membership-change timer, buggy and fixed", "survives",
           T8, ("buggy", "fixed"), mc_timer_survived=True),
)


def panels() -> List[str]:
    """The panels with claims, in EXPERIMENTS.md's order."""
    return list(dict.fromkeys(claim.panel for claim in LEDGER))


def table(panel: str, run: Run) -> str:
    """``panel``'s claims as the Markdown table EXPERIMENTS.md holds."""
    lines = ["| Quantity | Paper | Measured | Match |", "|---|---|---|---|"]
    lines += [f"| {claim.quantity} | {claim.paper} | {claim.measured(run)} "
              f"| {claim.verdict} |"
              for claim in LEDGER if claim.panel == panel]
    return "\n".join(lines)


def check(run: Run, panel: str) -> List[str]:
    """A message for each of ``panel``'s claims that fails."""
    return [problem for claim in LEDGER if claim.panel == panel
            for problem in [claim.check(run)] if problem]


if __name__ == "__main__":
    cached = functools.cache(call)
    for name in panels():
        print(f"{name}\n\n{table(name, cached)}\n")
