"""The TCP experiments' test ids from before the claim ledger.

Each now checks every claim of its panel in
:mod:`repro.experiments.claims`, where what it asserted is a row;
``test_claims.py`` checks the rows one by one.
"""

import pytest

from tests.experiments.conftest import panel_holds

pytestmark = pytest.mark.experiment


class TestTable1Retransmission:
    test_bsd_vendors_retransmit_12_times = test_bsd_vendors_send_reset = \
        test_bsd_backoff_exponential_with_64s_bound = \
        test_solaris_retransmits_9_times = \
        test_solaris_closes_without_reset = \
        test_solaris_never_reaches_upper_bound = \
        test_solaris_starts_from_330ms_floor = test_all_connections_die = \
        test_packets_were_logged_before_dropping = panel_holds("table1")


class TestTable2DelayedAcks:
    test_bsd_adapts_above_injected_delay = \
        test_bsd_first_retransmit_ordering = test_solaris_does_not_adapt = \
        test_solaris_dies_before_bsd_budget = test_8s_delay_same_shape = \
        test_global_counter_probe_solaris = \
        test_global_counter_probe_bsd_contrast = panel_holds("table2")


class TestTable3KeepAlive:
    test_bsd_first_probe_at_7200 = test_solaris_violates_spec_threshold = \
        test_bsd_8_retransmits_at_75s_then_reset = \
        test_solaris_7_backoff_retransmits_no_reset = test_probe_formats = \
        test_answered_probes_repeat_at_idle_interval = panel_holds("table3")


class TestTable4ZeroWindow:
    test_bsd_plateau_60 = test_solaris_plateau_56 = \
        test_backoff_exponential = test_probing_continues_when_acked = \
        test_probing_continues_even_unacked = \
        test_unplug_two_days_still_probing = panel_holds("table4")


class TestExperiment5Reordering:
    test_all_vendors_queue_out_of_order = \
        test_cumulative_ack_covers_both = test_data_integrity = \
        panel_holds("exp5")
