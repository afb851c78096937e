"""Integration tests: GMP clusters under scripted fault injection."""


from repro.core import TclishFilter
from repro.experiments.gmp_common import build_gmp_cluster
from repro.gmp import GmpTiming


def test_cluster_forms_through_full_stacks():
    cluster = build_gmp_cluster([1, 2, 3])
    cluster.start()
    cluster.run_until(10.0)
    assert cluster.all_in_one_group()


def test_heartbeats_flow_through_pfi():
    cluster = build_gmp_cluster([1, 2])
    cluster.start()
    cluster.run_until(10.0)
    assert cluster.pfis[1].stats["send_seen"] > 5


def test_tclish_heartbeat_drop_kicks_member():
    """Table 5's drop-most-heartbeats, written as a tclish script."""
    cluster = build_gmp_cluster([1, 2, 3])
    cluster.start()
    cluster.run_until(10.0)
    assert cluster.all_in_one_group()
    # drop every outgoing heartbeat (self included) -- the harsher case;
    # the fixed daemon then cycles kicked-out / singleton / rejoined, so
    # assert the churn rather than the instantaneous view
    cluster.pfis[3].set_send_filter(TclishFilter("""
        if {[msg_type cur_msg] eq "HEARTBEAT"} { xDrop cur_msg }
    """))
    cluster.run_until(40.0)
    kicked_views = [e for e in cluster.trace.entries("gmp.view_adopted",
                                                     node=1)
                    if e.time > 10.0 and 3 not in e.get("members")]
    assert kicked_views, "member dropping heartbeats was never kicked"
    assert cluster.trace.count("gmp.self_restart", node=3) >= 1


def test_send_omission_probability_causes_churn_but_recovers():
    cluster = build_gmp_cluster([1, 2, 3], seed=11)
    cluster.start()
    cluster.run_until(10.0)
    cluster.pfis[3].set_send_filter(
        TclishFilter('if {[chance 0.4]} { xDrop cur_msg }'))
    cluster.run_until(120.0)
    cluster.pfis[3].clear_filters()
    cluster.run_until(200.0)
    assert cluster.all_in_one_group()


def test_drop_by_type_commit_blocks_membership():
    cluster = build_gmp_cluster([1, 2, 3])
    cluster.start(1, 2)
    cluster.run_until(8.0)
    cluster.pfis[3].set_receive_filter(TclishFilter(
        'if {[msg_type cur_msg] eq "COMMIT"} { xDrop cur_msg }'))
    cluster.start(3)
    cluster.run_until(40.0)
    assert 3 not in cluster.daemons[3].views_adopted[-1].members \
        or cluster.daemons[3].view.is_singleton


def test_network_partition_via_netsim_primitive():
    """partition() at the network layer, not PFI scripts."""
    cluster = build_gmp_cluster([1, 2, 3, 4])
    cluster.start()
    cluster.run_until(10.0)
    cluster.env.network.partition([1, 2], [3, 4])
    cluster.run_until(60.0)
    assert cluster.daemons[1].view.members == (1, 2)
    assert cluster.daemons[3].view.members == (3, 4)
    cluster.env.network.heal()
    cluster.run_until(120.0)
    assert cluster.all_in_one_group()


def test_byzantine_dead_report_injection():
    """Inject a forged DEAD_REPORT: the leader kicks a healthy member,
    which then rejoins -- the system self-heals from one byzantine lie."""
    cluster = build_gmp_cluster([1, 2, 3])
    cluster.start()
    cluster.run_until(10.0)
    forged = cluster.pfis[1].stubs.generate(
        "DEAD_REPORT", sender=2, subject=3)
    cluster.pfis[1].inject(forged, "receive")
    cluster.run_until(12.0)
    assert 3 not in cluster.daemons[1].view.members
    cluster.run_until(60.0)
    assert cluster.all_in_one_group()


def test_custom_timing_profile():
    fast = GmpTiming(heartbeat_interval=0.2, heartbeat_timeout=0.7,
                     proclaim_interval=0.4, ack_collect_timeout=0.3,
                     mc_timeout=1.0)
    cluster = build_gmp_cluster([1, 2, 3], timing=fast)
    cluster.start()
    cluster.run_until(3.0)
    assert cluster.all_in_one_group()


def test_deterministic_across_runs():
    views = []
    for _ in range(2):
        cluster = build_gmp_cluster([1, 2, 3], seed=42)
        cluster.start()
        cluster.run_until(30.0)
        views.append(tuple(sorted(cluster.views().items())))
    assert views[0] == views[1]
