"""The GMP experiments' test ids from before the claim ledger.

Each now checks every claim of its panel in
:mod:`repro.experiments.claims`, where what it asserted is a row;
``test_claims.py`` checks the rows one by one.
"""

import pytest

from tests.experiments.conftest import panel_holds

pytestmark = pytest.mark.experiment


class TestTable5PacketInterruption:
    test_self_death_bug_found = test_self_death_fixed_recovers = \
        test_suspend_shows_identical_bug = test_kick_rejoin_cycle = \
        test_ack_drop_never_admitted = \
        test_commit_drop_stuck_in_transition_then_kicked = \
        panel_holds("table5")


class TestTable6Partitions:
    test_oscillating_partition_cycles = test_leader_detects_first_path = \
        test_prince_detects_first_path = \
        test_both_orderings_reach_same_end_state = panel_holds("table6")


class TestTable7ProclaimForwarding:
    test_buggy_forwarding_loops = test_fixed_forwarding_admits_newcomer = \
        test_loop_volume_dwarfs_fixed_traffic = panel_holds("table7")


class TestTable8TimerTest:
    test_buggy_leaves_heartbeat_timer_armed = \
        test_buggy_survivor_is_leader_timer = \
        test_fixed_unsets_all_but_mc_timer = \
        test_mc_timer_survives_in_both = panel_holds("table8")
