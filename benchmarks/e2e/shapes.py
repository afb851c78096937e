"""The ``run_all`` calls behind ``repro all`` and the shape each must keep.

``repro all`` makes thirteen ``repro.experiments.<module>.run_all``
calls: Tables 1-3, Table 4 twice (probes acked / unacked), Experiment 5,
the three Figure 4 panels, Tables 5-8.  The assertions are the ones
``benchmarks/bench_table*.py``, ``bench_exp5_reordering.py`` and
``bench_figure4_rto_series.py`` make on those results, restated as
checks that report instead of raising; extra probes those files run
beside ``run_all`` are not part of ``repro all`` and are left out.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

Call = Tuple[str, Any, Tuple[Any, ...]]


def paper_calls(*, quick: bool) -> List[Call]:
    """``(label, experiment module, run_all args)`` in ``repro all`` order.

    ``quick`` keeps the ten calls that together take about a tenth of
    the pass (everything but Tables 5-7).
    """
    from repro.experiments import (gmp_packet_interruption, gmp_partition,
                                   gmp_proclaim, gmp_timer, tcp_delayed_ack,
                                   tcp_keepalive, tcp_reordering,
                                   tcp_retransmission, tcp_zero_window)
    calls: List[Call] = [
        ("table1", tcp_retransmission, ()),
        ("table2", tcp_delayed_ack, (3.0,)),
        ("table3", tcp_keepalive, ()),
        ("table4_acked", tcp_zero_window, ("acked",)),
        ("table4_unacked", tcp_zero_window, ("unacked",)),
        ("exp5", tcp_reordering, ()),
        ("figure4_no_delay", tcp_retransmission, ()),
        ("figure4_3s", tcp_delayed_ack, (3.0,)),
        ("figure4_8s", tcp_delayed_ack, (8.0,)),
        ("table5", gmp_packet_interruption, ()),
        ("table6", gmp_partition, ()),
        ("table7", gmp_proclaim, ()),
        ("table8", gmp_timer, ()),
    ]
    if quick:
        calls = [call for call in calls
                 if call[0] not in ("table5", "table6", "table7")]
    return calls


def _bsd() -> Tuple[str, ...]:
    from repro.tcp import BSD_DERIVED
    return BSD_DERIVED


def _table1(results: Dict[str, Any]) -> List[bool]:
    solaris = results["Solaris 2.3"]
    checks = [solaris.retransmissions == 9, not solaris.reset_sent,
              solaris.upper_bound is None]
    for name in _bsd():
        row = results[name]
        checks += [row.retransmissions == 12, row.reset_sent,
                   row.backoff_exponential,
                   abs(row.upper_bound - 64.0) < 3.0]
    return checks


def _table2(results: Dict[str, Any]) -> List[bool]:
    checks = [results[name].adapted_above_delay for name in _bsd()]
    checks.append(not results["Solaris 2.3"].adapted_above_delay)
    return checks


def _table2_3s(results: Dict[str, Any]) -> List[bool]:
    return _table2(results) + [
        results["NeXT Mach"].first_retransmit_interval
        < results["SunOS 4.1.3"].first_retransmit_interval
        < results["AIX 3.2.3"].first_retransmit_interval]


def _table3(results: Dict[str, Any]) -> List[bool]:
    solaris = results["Solaris 2.3"]
    checks = [abs(solaris.first_probe_at - 6752.0) < 5.0,
              solaris.first_probe_at < 7200.0,
              solaris.probe_retransmissions == 7, not solaris.reset_sent,
              results["SunOS 4.1.3"].garbage_byte,
              not results["AIX 3.2.3"].garbage_byte]
    for name in _bsd():
        row = results[name]
        checks += [abs(row.first_probe_at - 7200.0) < 5.0,
                   row.probe_retransmissions == 8, row.reset_sent,
                   all(abs(i - 75.0) < 1.0
                       for i in row.retransmit_intervals)]
    checks += [row.answered_still_open for row in results.values()]
    return checks


def _table4(results: Dict[str, Any]) -> List[bool]:
    solaris = results["Solaris 2.3"]
    checks = [abs(solaris.plateau - 56.0) < 1.5,
              solaris.still_probing_at_end]
    for name in _bsd():
        row = results[name]
        checks += [abs(row.plateau - 60.0) < 1.5, row.still_probing_at_end,
                   row.backoff_exponential]
    return checks


def _exp5(results: Dict[str, Any]) -> List[bool]:
    checks = []
    for row in results.values():
        checks += [row.second_segment_queued, row.acked_both_at_once,
                   row.data_delivered_in_order,
                   row.duplicate_deliveries == 0]
    return checks


def _figure4_panel(results: Dict[str, Any]) -> List[bool]:
    from repro.tcp import VENDORS
    checks = []
    for vendor, row in results.items():
        series = row.intervals
        checks.append(bool(series))
        # curves rise monotonically to their cap; Solaris's first point
        # may sit above the second (post-timeout reset quirk)
        tail = series if VENDORS[vendor].uses_jacobson else series[1:]
        checks += [cur >= prev * 0.99 for prev, cur in zip(tail, tail[1:])]
    return checks


def _figure4_no_delay(results: Dict[str, Any]) -> List[bool]:
    return _figure4_panel(results) + [
        abs(results[vendor].intervals[-1] - 64.0) < 1.0 for vendor in _bsd()]


def _table5(results: Dict[str, Any]) -> List[bool]:
    buggy, fixed = results["self_death_buggy"], results["self_death_fixed"]
    suspend, kick = results["suspend_buggy"], results["kick_rejoin"]
    ack, commit = results["ack_drop"], results["commit_drop"]
    return [buggy.self_death_bug_fired, buggy.stayed_in_old_group,
            buggy.forward_param_bug_fired,
            fixed.formed_singleton, fixed.rejoined,
            suspend.self_death_bug_fired, suspend.stayed_in_old_group,
            kick.cycled, not ack.joiner_ever_committed,
            ack.others_formed_group_without_joiner,
            commit.joiner_entered_transition,
            commit.joiner_kicked_after_commit]


def _table6(results: Dict[str, Any]) -> List[bool]:
    osc = results["oscillating"]
    lead = results["leader_detects_first"]
    prince = results["prince_detects_first"]
    return [osc.disjoint_groups_formed, osc.merged_after_heal,
            osc.cycles_observed >= 2,
            lead.first_mover == 1, prince.first_mover == 2,
            lead.crown_prince_singleton, lead.end_state_matches_paper,
            prince.crown_prince_singleton, prince.end_state_matches_paper,
            lead.leader_group == prince.leader_group]


def _table7(results: Dict[str, Any]) -> List[bool]:
    buggy, fixed = results["buggy"], results["fixed"]
    return [buggy.proclaim_loop_detected, not buggy.newcomer_admitted,
            not fixed.proclaim_loop_detected, fixed.newcomer_received_reply,
            fixed.newcomer_admitted]


def _table8(results: Dict[str, Any]) -> List[bool]:
    buggy, fixed = results["buggy"], results["fixed"]
    return [buggy.second_change_received, buggy.spurious_heartbeat_timeout,
            "heartbeat_expect/1" in buggy.timers_armed_in_transition,
            not fixed.spurious_heartbeat_timeout,
            all(s.startswith("mc_timeout")
                for s in fixed.timers_armed_in_transition)]


_SHAPES: Dict[str, Callable[[Dict[str, Any]], List[bool]]] = {
    "table1": _table1, "table2": _table2_3s, "table3": _table3,
    "table4_acked": _table4, "table4_unacked": _table4, "exp5": _exp5,
    "figure4_no_delay": _figure4_no_delay, "figure4_3s": _figure4_panel,
    "figure4_8s": _figure4_panel, "table5": _table5, "table6": _table6,
    "table7": _table7, "table8": _table8,
}


def shape_problems(calls: List[Call], tables: List[Any]) -> List[str]:
    """One line per call whose results lost the paper's shape."""
    problems = []
    by_label = {}
    for (label, _module, _args), results in zip(calls, tables):
        by_label[label] = results
        checks = _SHAPES[label](results)
        if not all(checks):
            failing = [i for i, ok in enumerate(checks) if not ok]
            problems.append(f"{label}: shape checks {failing} of "
                            f"{len(checks)} fail")
    # Figure 4: for the BSD stacks, delayed panels start higher
    panels = [by_label.get(label) for label in
              ("figure4_no_delay", "figure4_3s", "figure4_8s")]
    if all(panel is not None for panel in panels):
        for vendor in _bsd():
            first = [panel[vendor].intervals[0] for panel in panels]
            if not first[0] < first[1] < first[2]:
                problems.append(f"figure4: {vendor} first intervals "
                                f"{first} do not rise with the ACK delay")
    return problems
