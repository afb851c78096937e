"""Tests for the TclishFilter bridge: the paper's Tcl scripts as filters."""

import pytest

from repro.core import TclishFilter
from repro.core.tclish import TclError
from tests.core.conftest import probe


class TestTclishFilterBasics:
    def test_drop_all_acks_script(self, harness):
        script = TclishFilter("""
            set type [msg_type cur_msg]
            if {$type eq "ACK"} {
                xDrop cur_msg
            }
        """)
        harness.pfi.set_receive_filter(script)
        harness.send_up("ACK")
        harness.send_up("DATA")
        assert len(harness.top.received) == 1

    def test_counter_persists_across_messages(self, harness):
        script = TclishFilter("incr seen", init_script="set seen 0")
        harness.pfi.set_send_filter(script)
        for _ in range(7):
            harness.send_down()
        assert script.interp.eval("set seen") == "7"

    def test_pass_n_then_drop_script(self, harness):
        script = TclishFilter("""
            incr seen
            if {$seen > 3} { xDrop cur_msg }
        """, init_script="set seen 0")
        harness.pfi.set_receive_filter(script)
        for _ in range(6):
            harness.send_up()
        assert len(harness.top.received) == 3

    def test_delay_command(self, harness):
        harness.pfi.set_send_filter(TclishFilter("xDelay 2.5"))
        harness.send_down()
        assert harness.bottom.received == []
        harness.run()
        assert len(harness.bottom.received) == 1

    def test_duplicate_command(self, harness):
        harness.pfi.set_send_filter(TclishFilter("xDuplicate cur_msg 2"))
        harness.send_down()
        harness.run()
        assert len(harness.bottom.received) == 3

    def test_hold_and_release(self, harness):
        script = TclishFilter("""
            incr n
            if {$n == 1} {
                xHold cur_msg firstq
            } else {
                xRelease firstq
            }
        """, init_script="set n 0")
        harness.pfi.set_send_filter(script)
        harness.send_down(tag="one")
        harness.send_down(tag="two")
        harness.run()
        tags = [m.meta["tag"] for m in harness.bottom.received]
        assert tags == ["two", "one"]

    def test_held_count_command(self, harness):
        script = TclishFilter("""
            if {[held_count q] == 0} {
                xHold cur_msg q
            }
        """)
        harness.pfi.set_send_filter(script)
        harness.send_down()
        harness.send_down()
        assert harness.pfi.held_count("send", "q") == 1
        assert len(harness.bottom.received) == 1

    def test_inject_command(self, harness):
        script = TclishFilter("""
            if {!$injected} {
                set injected 1
                inject PROBE value 9
            }
        """, init_script="set injected 0")
        harness.pfi.set_send_filter(script)
        harness.send_down()
        harness.run()
        assert len(harness.bottom.received) == 2

    def test_msg_field_access(self, harness):
        script = TclishFilter("""
            if {[msg_field seq] > 100} { xDrop cur_msg }
        """)
        harness.pfi.set_send_filter(script)
        harness.pfi.push(probe(seq=50))
        harness.pfi.push(probe(seq=200))
        assert len(harness.bottom.received) == 1
        assert harness.bottom.received[0].payload.seq == 50

    def test_msg_set_field(self, harness):
        harness.pfi.set_send_filter(TclishFilter("msg_set_field seq 999"))
        harness.pfi.push(probe(seq=1))
        assert harness.bottom.received[0].payload.seq == 999

    def test_msg_log_and_puts(self, harness):
        script = TclishFilter("""
            puts "saw [msg_type cur_msg] at [now]"
            msg_log cur_msg
        """)
        harness.pfi.set_receive_filter(script)
        harness.send_up("DATA")
        assert "saw DATA" in script.output_lines[0]
        assert len(harness.pfi.msglog) == 1

    def test_peer_communication(self, harness):
        send_script = TclishFilter("""
            incr n
            if {$n >= 2} { peer_set dropping 1 }
        """, init_script="set n 0")
        recv_script = TclishFilter("""
            if {[peer_get dropping 0]} { xDrop cur_msg }
        """)
        harness.pfi.set_send_filter(send_script)
        harness.pfi.set_receive_filter(recv_script)
        harness.send_up()
        harness.send_down()
        harness.send_down()
        harness.send_up()
        assert len(harness.top.received) == 1

    def test_sync_flags_shared_across_layers(self, harness):
        harness.pfi.set_send_filter(TclishFilter("sync_set partition 1"))
        harness.send_down()
        assert harness.env.sync.get_flag("partition") == 1
        harness.pfi.set_receive_filter(TclishFilter("""
            if {[sync_get partition 0]} { xDrop cur_msg }
        """))
        harness.send_up()
        assert harness.top.received == []

    def test_probabilistic_commands(self, harness):
        script = TclishFilter("""
            set draw [dst_uniform 0 1]
            if {$draw < 0} { error "impossible" }
            if {[chance 1.0]} { set always 1 }
            if {[chance 0.0]} { set never 1 }
        """)
        harness.pfi.set_send_filter(script)
        harness.send_down()
        assert script.interp.eval("set always") == "1"
        assert script.interp.eval("info exists never") == "0"

    def test_node_and_direction_commands(self, harness):
        script = TclishFilter('set who "[node_name]/[direction]"')
        harness.pfi.set_send_filter(script)
        harness.send_down()
        assert script.interp.eval("set who") == "testnode/send"

    def test_command_outside_message_context_raises(self):
        script = TclishFilter("xDrop cur_msg")
        with pytest.raises(TclError):
            script.interp.eval("xDrop cur_msg")

    def test_dst_normal_command(self, harness):
        script = TclishFilter("set v [dst_normal 100 1]")
        harness.pfi.set_send_filter(script)
        harness.send_down()
        value = float(script.interp.eval("set v"))
        assert 90 < value < 110

    def test_delay_without_args_is_usage_error(self, harness):
        harness.pfi.set_send_filter(TclishFilter("xDelay"))
        with pytest.raises(TclError, match='wrong # args: should be '
                                           '"xDelay '):
            harness.send_down()

    def test_delay_with_only_msg_token_is_usage_error(self, harness):
        harness.pfi.set_send_filter(TclishFilter("xDelay cur_msg"))
        with pytest.raises(TclError, match="usage: xDelay"):
            harness.send_down()
