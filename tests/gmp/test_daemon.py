"""Unit/behaviour tests for the group membership daemon."""

import pytest

from repro.experiments.gmp_common import build_gmp_cluster
from repro.gmp.messages import GMP_SCHEMA, GmpMessage, PROCLAIM
from repro.xkernel.message import Message


def cluster_of(*addrs, **kw):
    return build_gmp_cluster(list(addrs), **kw)


class TestGroupFormation:
    def test_two_daemons_form_group(self):
        cluster = cluster_of(1, 2)
        cluster.start()
        cluster.run_until(8.0)
        assert cluster.all_in_one_group()
        assert cluster.daemons[1].is_leader
        assert not cluster.daemons[2].is_leader

    def test_three_daemons_converge(self):
        cluster = cluster_of(1, 2, 3)
        cluster.start()
        cluster.run_until(10.0)
        assert cluster.all_in_one_group()

    def test_five_daemons_converge(self):
        cluster = cluster_of(1, 2, 3, 4, 5)
        cluster.start()
        cluster.run_until(15.0)
        assert cluster.all_in_one_group()

    def test_leader_is_lowest_address(self):
        cluster = cluster_of(4, 7, 9)
        cluster.start()
        cluster.run_until(10.0)
        for daemon in cluster.daemons.values():
            assert daemon.view.leader == 4

    def test_crown_prince_is_second_lowest(self):
        cluster = cluster_of(4, 7, 9)
        cluster.start()
        cluster.run_until(10.0)
        assert cluster.daemons[7].is_crown_prince

    def test_late_joiner_admitted(self):
        cluster = cluster_of(1, 2, 3)
        cluster.start(1, 2)
        cluster.run_until(8.0)
        assert cluster.daemons[1].view.members == (1, 2)
        cluster.start(3)
        cluster.run_until(20.0)
        assert cluster.all_in_one_group()

    def test_group_stable_over_time(self):
        cluster = cluster_of(1, 2, 3)
        cluster.start()
        cluster.run_until(10.0)
        gid = cluster.daemons[1].view.group_id
        cluster.run_until(120.0)
        assert cluster.daemons[1].view.group_id == gid

    def test_all_members_see_same_view_sequence_suffix(self):
        """Strong membership: the committed views agree."""
        cluster = cluster_of(1, 2, 3)
        cluster.start()
        cluster.run_until(20.0)
        final = {a: d.view for a, d in cluster.daemons.items()}
        assert len({v.group_id for v in final.values()}) == 1
        assert len({v.members for v in final.values()}) == 1


class TestFailureDetection:
    def test_halted_member_kicked(self):
        cluster = cluster_of(1, 2, 3)
        cluster.start()
        cluster.run_until(10.0)
        cluster.env.network.node(3).halt()
        cluster.run_until(30.0)
        assert cluster.daemons[1].view.members == (1, 2)
        assert cluster.daemons[2].view.members == (1, 2)

    def test_halted_leader_succeeded_by_crown_prince(self):
        cluster = cluster_of(1, 2, 3)
        cluster.start()
        cluster.run_until(10.0)
        cluster.env.network.node(1).halt()
        cluster.run_until(30.0)
        assert cluster.daemons[2].view.members == (2, 3)
        assert cluster.daemons[2].is_leader
        assert cluster.daemons[3].view.members == (2, 3)

    def test_leader_and_prince_halted_third_takes_over(self):
        cluster = cluster_of(1, 2, 3, 4)
        cluster.start()
        cluster.run_until(10.0)
        cluster.env.network.node(1).halt()
        cluster.env.network.node(2).halt()
        cluster.run_until(40.0)
        assert cluster.daemons[3].view.members == (3, 4)
        assert cluster.daemons[3].is_leader

    def test_all_peers_dead_leads_to_singleton(self):
        cluster = cluster_of(1, 2)
        cluster.start()
        cluster.run_until(8.0)
        cluster.env.network.node(1).halt()
        cluster.run_until(30.0)
        assert cluster.daemons[2].view.members == (2,)

    def test_halted_member_rejoins_after_restartish_resume(self):
        cluster = cluster_of(1, 2, 3)
        cluster.start()
        cluster.run_until(10.0)
        cluster.daemons[3].suspend()
        cluster.run_until(40.0)
        assert cluster.daemons[1].view.members == (1, 2)
        cluster.daemons[3].resume()
        cluster.run_until(80.0)
        assert cluster.all_in_one_group()


class TestTwoPhaseCommit:
    def test_membership_change_trace_sequence(self):
        cluster = cluster_of(1, 2)
        cluster.start()
        cluster.run_until(8.0)
        trace = cluster.trace
        mc = trace.first("gmp.mc_sent", node=1)
        commit = trace.first("gmp.commit_sent", node=1)
        transition = trace.first("gmp.in_transition", node=2)
        adopted = trace.first("gmp.view_adopted", node=2)
        assert mc.time <= transition.time <= commit.time <= adopted.time

    def test_members_in_transition_between_phases(self):
        cluster = cluster_of(1, 2)
        cluster.start()
        cluster.run_until(8.0)
        assert cluster.trace.count("gmp.in_transition", node=2) >= 1

    def test_group_ids_monotonic_per_daemon(self):
        cluster = cluster_of(1, 2, 3)
        cluster.start(1, 2)
        cluster.run_until(8.0)
        cluster.start(3)
        cluster.run_until(20.0)
        for daemon in cluster.daemons.values():
            gids = [v.group_id for v in daemon.views_adopted]
            assert gids == sorted(gids)


class TestDaemonLifecycle:
    def test_double_start_rejected(self):
        cluster = cluster_of(1)
        cluster.daemons[1].start()
        with pytest.raises(RuntimeError):
            cluster.daemons[1].start()

    def test_unstarted_daemon_ignores_messages(self):
        cluster = cluster_of(1, 2)
        cluster.daemons[1].start()
        cluster.run_until(10.0)
        assert cluster.daemons[1].view.members == (1,)
        assert cluster.daemons[2].view.members == (2,)
        assert not cluster.daemons[2].views_adopted

    def test_suspended_daemon_ignores_messages(self):
        cluster = cluster_of(1, 2)
        cluster.start()
        cluster.run_until(8.0)
        cluster.daemons[2].suspend()
        received_before = cluster.trace.count("gmp.receive", node=2)
        cluster.run_until(12.0)
        assert cluster.trace.count("gmp.receive", node=2) == received_before


class TestStubs:
    def test_recognize_all_kinds(self):
        stubs = GMP_SCHEMA
        msg = Message(payload=GmpMessage(kind=PROCLAIM, sender=1))
        assert stubs.msg_type(msg) == "PROCLAIM"

    def test_recognize_rel_ack(self):
        from repro.gmp.reliable import RelHeader
        stubs = GMP_SCHEMA
        msg = Message()
        msg.push_header(RelHeader(seq=1, is_ack=True))
        assert stubs.msg_type(msg) == "REL_ACK"

    def test_generate_probe(self):
        stubs = GMP_SCHEMA
        msg = stubs.generate("PROCLAIM", sender=9, dst=1)
        assert msg.payload.kind == "PROCLAIM"
        assert msg.payload.originator == 9
        assert msg.meta["dst"] == 1
