"""Paper filter scripts, pinned to what they deliver at the PFI layer.

A generated campaign script run through ``TclishFilter`` against a fixed
message stream must deliver exactly the pinned message types, hold the
pinned interpreter state and print the pinned output.  The pins were
generated while a second, parse-per-message engine still existed and
agreed on every case.
"""

import pytest

from repro.core import TclishFilter
from repro.core.genscripts import generate_campaign
from repro.tcp import TCP_SCHEMA

from tests.core.conftest import Harness


def _find_script(name):
    for script in generate_campaign(TCP_SCHEMA):
        if script.name == name:
            return script
    raise AssertionError(f"no generated script named {name}")


def _run_stream(script, kinds):
    """Install the filter on a fresh harness, replay the stream."""
    harness = Harness()
    tclish = TclishFilter(script.tclish_source,
                          init_script=script.tclish_init, name=script.name)
    harness.pfi.set_receive_filter(tclish)
    for kind in kinds:
        harness.send_up(kind)
    harness.run(until=60.0)
    delivered = [m.meta["type"] for m in harness.top.received]
    return delivered, tclish.interp.globals, tclish.interp.output_lines


#: what each paper script delivers from ``(DATA ACK) x 20, ACK x 5``:
#: (delivered types, interpreter globals, output lines)
PAPER_SCRIPTS = {
    # every other ACK is held until the next ACK releases it, so a DATA
    # overtakes it; the last trailing ACK is still held at the end
    "reorder_ack_receive": (
        ["DATA", "DATA", "ACK", "ACK"] * 10 + ["ACK"] * 4,
        {"holding": "1"}, []),
    # every message after the 20th is dropped
    "crash_after_20_receive": (["DATA", "ACK"] * 10, {"seen": "45"}, []),
    "drop_ack_receive": (["DATA"] * 20, {}, []),
}


class TestCompiledFilterEquivalence:
    @pytest.mark.parametrize("name", PAPER_SCRIPTS)
    def test_generated_script_equivalent(self, name):
        script = _find_script(name)
        kinds = (["DATA", "ACK"] * 20) + ["ACK"] * 5
        assert _run_stream(script, kinds) == PAPER_SCRIPTS[name]

    def test_stateful_counting_filter_equivalent(self):
        source = (
            'incr seen\n'
            'set type [msg_type cur_msg]\n'
            'if {$type eq "ACK"} {\n'
            '    incr acks\n'
            '    if {$acks % 3 == 0} { xDrop cur_msg }\n'
            '}\n'
            'puts "$seen/$acks"')
        init = "set seen 0; set acks 0"
        kinds = ["ACK", "DATA", "ACK", "ACK", "ACK", "DATA", "ACK", "ACK"]
        harness = Harness()
        tclish = TclishFilter(source, init_script=init)
        harness.pfi.set_receive_filter(tclish)
        for kind in kinds:
            harness.send_up(kind)
        # every third ACK is dropped: the 3rd and the 6th
        assert [m.meta["type"] for m in harness.top.received] == [
            "ACK", "DATA", "ACK", "ACK", "DATA", "ACK"]
        assert tclish.interp.globals == {"seen": "8", "acks": "6",
                                         "type": "ACK"}
        assert tclish.interp.output_lines == [
            "1/1", "2/1", "3/2", "4/3", "5/4", "6/4", "7/5", "8/6"]

    def test_compiled_filter_reuses_cache_across_messages(self):
        script = _find_script("crash_after_20_receive")
        harness = Harness()
        tclish = TclishFilter(script.tclish_source,
                              init_script=script.tclish_init)
        harness.pfi.set_receive_filter(tclish)
        for _ in range(30):
            harness.send_up("DATA")
        stats = tclish.interp.stats()
        assert stats["cache_hits"] >= 30
