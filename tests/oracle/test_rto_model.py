"""The RFC 6298 retransmission-timer model (repro.oracle.models.rto).

First its rules, one test per rule of the RFC; then the model against
the retransmissions of the paper's Tables 1 and 2.  The trace carries
the RTO each timeout armed (``tcp.retransmit``'s ``rto``) but no RTT
measurement, so against the Tables only the backoff chain is checked
(2.4, 2.5, 5.5, and Karn across an ambiguous ACK); the disagreements
it finds are pinned here.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis.series import transmissions_of_seq
from repro.experiments import tcp_delayed_ack, tcp_retransmission
from repro.oracle.models import rto as model
from repro.oracle.models.rto import (ALPHA, BETA, K, Disagreement, Rto,
                                     check_backoff)
from repro.tcp import VENDORS

CONN = "vendor:5000"


# ----------------------------------------------------------------------
# the RFC's rules
# ----------------------------------------------------------------------

def test_before_any_measurement_rto_is_one_second():  # (2.1)
    state = Rto()
    assert (state.rto, state.srtt, state.rttvar) == (1.0, None, None)


def test_the_first_measurement_sets_srtt_and_half_of_it_as_rttvar():
    state = Rto().measure(2.0)  # (2.2)
    assert (state.srtt, state.rttvar) == (2.0, 1.0)
    assert state.rto == 2.0 + K * 1.0 == 6.0


def test_a_later_measurement_updates_rttvar_from_the_old_srtt():
    state = Rto().measure(2.0).measure(4.0)  # (2.3)
    rttvar = (1 - BETA) * 1.0 + BETA * abs(2.0 - 4.0)
    srtt = (1 - ALPHA) * 2.0 + ALPHA * 4.0
    assert (state.rttvar, state.srtt) == (rttvar, srtt) == (1.25, 2.25)
    assert state.rto == srtt + K * rttvar


def test_the_clock_granularity_bounds_the_variance_term_from_below():
    # K * RTTVAR = 0.4 < G = 0.5: RTO = SRTT + G
    assert Rto(g=0.5, min_rto=0.1).measure(0.2).rto == pytest.approx(0.7)
    assert Rto(g=0.1, min_rto=0.1).measure(0.2).rto == pytest.approx(0.6)


def test_an_rto_below_one_second_is_rounded_up():  # (2.4)
    assert Rto().measure(0.01).rto == 1.0
    assert Rto(min_rto=0.01).measure(0.01).rto == pytest.approx(0.03)


def test_a_maximum_bounds_rto_and_must_be_at_least_sixty_seconds():
    assert Rto().measure(30.0).rto == 60.0  # (2.5): 90 s bounded
    assert Rto(max_rto=64.0).measure(30.0).rto == 64.0
    with pytest.raises(ValueError, match="at least 60 s"):
        Rto(max_rto=56.0)


def test_a_timeout_doubles_rto_up_to_the_maximum():  # (5.5)
    state = Rto(max_rto=64.0).measure(0.5)
    chain = []
    for _ in range(8):
        state = state.timeout()
        chain.append(state.rto)
    assert chain == [3.0, 6.0, 12.0, 24.0, 48.0, 64.0, 64.0, 64.0]
    assert (state.srtt, state.rttvar) == (0.5, 0.25)  # a timeout measures


def test_karn_a_retransmitted_segment_yields_no_measurement():
    backed_off = Rto().measure(0.5).timeout().timeout()
    assert backed_off.rto == 6.0
    # the ambiguous ACK leaves the backoff standing...
    assert backed_off.measure(0.6, retransmitted=True) is backed_off
    # ...until a segment sent once is acknowledged: RTO collapses
    collapsed = backed_off.measure(0.5)
    assert collapsed.rto == pytest.approx(0.5 + K * (1 - BETA) * 0.25)
    assert collapsed.srtt == 0.5


def test_check_backoff_names_the_rule_each_rto_breaks():
    assert check_backoff([1.5, 3.0, 6.0, 12.0]) == []
    assert check_backoff([32.0, 60.0, 60.0]) == []
    assert check_backoff([2.0, 2.0, 8.0, 70.0], max_rto=64.0) == [
        Disagreement(1, "5.5", 2.0, 4.0),
        Disagreement(2, "5.5", 8.0, 4.0),
        Disagreement(3, "5.5", 70.0, 16.0),
        Disagreement(3, "2.5", 70.0, 64.0)]
    assert check_backoff([0.5, 1.0]) == [Disagreement(0, "2.4", 0.5, 1.0)]


def test_the_model_imports_nothing_from_the_tcp_under_test():
    package = Path(model.__file__).parent
    imported = set()
    for source in package.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
    assert sorted(imported) == ["__future__", "dataclasses", "typing"]


# ----------------------------------------------------------------------
# the model against Tables 1 and 2
# ----------------------------------------------------------------------

def _chains(trace, *, karn_joins: bool = False):
    """The RTOs each segment's consecutive timeouts armed, one chain per
    segment, after checking the timer ran for exactly that long (5.6).
    ``karn_joins``: no valid measurement happened between one segment's
    last timeout and the next one's first (every ACK but an ambiguous
    one was dropped), so Karn makes them one chain."""
    chains = {}
    for entry in trace.entries("tcp.retransmit", conn=CONN):
        times = transmissions_of_seq(trace, CONN, entry["seq"])
        after = [t for t in times if t > entry.time]
        if after:
            assert after[0] - entry.time == pytest.approx(entry["rto"])
        chains.setdefault(entry["seq"], []).append(entry["rto"])
    if karn_joins:
        return [[rto for chain in chains.values() for rto in chain]]
    return list(chains.values())


def _table_runs():
    """(label, chains) of every Table 1 row, every Table 2 cell and the
    Table 2 global-counter probe (pass 30 packets, then drop all but a
    35 s-delayed ACK of the next segment, m1)."""
    for name, profile in VENDORS.items():
        yield f"1/{name}", _chains(tcp_retransmission.execute(profile).trace)
        for delay in (0.0, 3.0, 8.0):
            yield (f"2/{delay:g}s/{name}",
                   _chains(tcp_delayed_ack.execute(profile, delay).trace))
        probe = tcp_delayed_ack.execute_global_counter_probe(profile)
        yield f"2/probe/{name}", _chains(probe.trace, karn_joins=True)


def test_the_tables_backoff_chains_against_the_model():
    broken = {}
    for label, chains in _table_runs():
        rules = set()
        for chain in chains:
            # the stack's own maximum where 2.5 allows it; a lower one
            # is checked against 60 s, so its plateau shows as a 5.5 miss
            cap = max(max(chain), model.MAX_RTO)
            rules.update(d.rule for d in check_backoff(chain, max_rto=cap))
        broken[label] = sorted(rules)
    # the BSD stacks follow RFC 6298 (a 64 s maximum, which 2.5 allows);
    # Solaris 2.3 uses a 330 ms floor (2.4) everywhere, and in the probe
    # resets its backoff on m1's ambiguous ACK where Karn keeps it
    assert broken == {
        label: (["2.4", "5.5"] if label == "2/probe/Solaris 2.3"
                else ["2.4"] if label.endswith("Solaris 2.3") else [])
        for label in broken}
    assert len(broken) == 4 * 5


def test_karn_across_the_probes_ambiguous_ack():
    """m2's first timeout: BSD continues m1's backoff, Solaris restarts
    it (the pre-Karn reset that also spares its global fault counter no
    attempts)."""
    for name, first_of_m2 in (("SunOS 4.1.3", (4, 48.0, 48.0)),
                              ("Solaris 2.3", (7, 0.33, 42.24))):
        probe = tcp_delayed_ack.execute_global_counter_probe(VENDORS[name])
        [chain] = _chains(probe.trace, karn_joins=True)
        index, observed, modelled = first_of_m2
        assert chain[index] == pytest.approx(observed)
        assert Rto(rto=chain[index - 1], max_rto=64.0).timeout().rto \
            == pytest.approx(modelled)
