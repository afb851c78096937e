"""Aliased headers over real runs: nothing writes in place, nothing moved.

``Message.copy()`` leaves header objects aliased between the original and
its copies and clones one only when a writable header is requested.  Two
things have to hold for that to be a pure speed-up, and both are checked
here on one TCP experiment (Table 1), one GMP experiment (Table 5) and
one tclish-filtered fuzz configuration whose script writes a header field:

- *Tripwire.*  Every header is snapshotted (``repr``) at the moment a
  ``copy()`` makes it aliased; at the end of the run no such object may
  have changed -- every write must have landed on a clone.
- *Pins.*  The sha256 of each run's full trace (message uids and lineage
  edges included, rebased to the run's first uid) equals the digest the
  parent commit -- clone-on-touch -- produced for the same run.

Payloads that implement ``clone()`` are aliased the same way, so the
tripwire snapshots them too, and a fourth run (tripwire only, no pin)
writes a *payload* field -- ``group_id`` -- on wire copies whose original
is waiting to be retransmitted.
"""

import hashlib
import json

import pytest

from repro.analysis.export import VOLATILE_ATTRS, entry_to_dict
from repro.core.orchestrator import make_env
from repro.experiments import gmp_packet_interruption, tcp_retransmission
from repro.gmp.messages import GmpMessage
from repro.oracle.fuzz import prefixed_fuzz_body
from repro.tcp import VENDORS
from repro.xkernel import message as message_module
from repro.xkernel.message import Message

#: drops the target's heartbeats for a while so the group reconfigures,
#: then corrupts the reliable layer's sequence number on the *wire copy*
#: of every second outgoing protocol message while the pending original
#: -- whose RelHeader is the same object until the write -- waits to be
#: retransmitted with the sequence number it was sent under
SET_FIELD_SCRIPT = """
set type [msg_type cur_msg]
if {$type eq "HEARTBEAT"} {
    if {[now] < 16.0} { xDrop cur_msg }
} elseif {$type ne "REL_ACK"} {
    incr n
    if {$n % 2 == 0} {
        msg_set_field seq 4242
        msg_log cur_msg corrupted
    }
}
"""

FUZZ_CONFIG = {"protocol": "gmp", "target": "fixed", "direction": "send",
               "script": SET_FIELD_SCRIPT, "init_script": "set n 0"}

#: the same reconfiguration, but every second outgoing protocol message
#: has its *payload's* ``group_id`` overwritten and is then dropped, so
#: the reliable layer retransmits from the pending original -- which
#: shares its GmpMessage with the corrupted wire copy until the write.
#: Each message is logged as it reaches the PFI layer, before any write.
BOGUS_GID = 4242
SET_PAYLOAD_SCRIPT = """
set type [msg_type cur_msg]
if {$type eq "HEARTBEAT"} {
    if {[now] < 16.0} { xDrop cur_msg }
} elseif {$type ne "REL_ACK"} {
    msg_log cur_msg seen
    incr n
    if {$n % 2 == 0} {
        msg_set_field group_id 4242
        msg_log cur_msg corrupted
        xDrop cur_msg
    }
}
"""


def _table1():
    return tcp_retransmission.execute(VENDORS["SunOS 4.1.3"], seed=0).trace


def _table5():
    return gmp_packet_interruption.execute_self_death(
        bugs_on=True, seed=0).trace


def _fuzz_set_field():
    env = make_env(seed=7)
    prefixed_fuzz_body(env, dict(FUZZ_CONFIG))
    return env.trace


RUNS = {"table1_tcp": _table1, "table5_gmp": _table5,
        "fuzz_set_field": _fuzz_set_field}

#: computed at the parent commit (4c4373e) with ``_trace_digest`` below
PINNED = {
    "table1_tcp": "3f5b3c45d8d50b6932cd4599decb5b3309d8e64237b791dd0cd515eb9986a82d",
    "table5_gmp": "65ead074f41fdc022ca84a1fd036d5d6717c56bd2373cf4cdc3d2ac2b923795c",
    "fuzz_set_field": "42f11107d9fb7e5760eb9db274ef684202c8f37e8417ab0cd289eee9fb2e5891",
}


def _trace_digest(run) -> str:
    """sha256 of the full trace, uids rebased to the run's first uid."""
    base = Message().uid
    trace = run()
    digest = hashlib.sha256()
    for entry in trace:
        row = entry_to_dict(entry)
        attrs = row["attrs"]
        for name in VOLATILE_ATTRS:
            if isinstance(attrs.get(name), int):
                attrs[name] -= base
        digest.update(json.dumps(row, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


class _AliasWatch:
    """Wraps ``Message.copy`` and remembers each header and each
    ``clone()``-protocol payload it aliases."""

    def __init__(self, monkeypatch):
        self.snapshots = {}     # id(object) -> (object, repr at aliasing)
        self.clones = 0
        self.payload_clones = 0
        real_copy = Message.copy
        real_clone = message_module._clone_header
        real_payload_clone = GmpMessage.clone
        watch = self

        def copy(msg):
            aliased = list(msg.iter_headers())
            if hasattr(msg.payload, "clone"):
                aliased.append(msg.payload)
            for each in aliased:
                watch.snapshots.setdefault(id(each), (each, repr(each)))
            return real_copy(msg)

        def clone_header(header):
            watch.clones += 1
            return real_clone(header)

        def clone_payload(payload):
            watch.payload_clones += 1
            return real_payload_clone(payload)

        monkeypatch.setattr(Message, "copy", copy)
        monkeypatch.setattr(message_module, "_clone_header", clone_header)
        monkeypatch.setattr(GmpMessage, "clone", clone_payload)

    def changed(self):
        return [(before, repr(header))
                for header, before in self.snapshots.values()
                if repr(header) != before]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_no_aliased_header_is_written_in_place(name, monkeypatch):
    watch = _AliasWatch(monkeypatch)
    trace = RUNS[name]()
    assert watch.snapshots, "the run aliased no header: tripwire is vacuous"
    assert watch.changed() == []
    if name == "fuzz_set_field":
        writes = sum(1 for e in trace.entries("pfi.log")
                     if e.attrs.get("note") == "corrupted")
        assert writes > 0
        # one clone per header written, none for the thousands only read
        assert watch.clones == writes
    else:
        assert watch.clones == 0
    assert watch.payload_clones == 0    # these runs only read payloads


def test_payload_write_on_wire_copy_spares_the_pending_original(monkeypatch):
    watch = _AliasWatch(monkeypatch)
    env = make_env(seed=7)
    prefixed_fuzz_body(env, dict(FUZZ_CONFIG, script=SET_PAYLOAD_SCRIPT))
    assert watch.changed() == []

    logs = list(env.trace.entries("pfi.log"))
    corrupted = [e for e in logs if e.attrs["note"] == "corrupted"]
    assert corrupted
    assert {e.attrs["group_id"] for e in corrupted} == {BOGUS_GID}
    # one payload clone per write, none for the reads, no header touched
    assert watch.payload_clones == len(corrupted)
    assert watch.clones == 0

    # every corrupted copy was dropped, so its original was retransmitted:
    # the retransmitted copies reach the PFI layer with the value the
    # daemon sent, never the one written onto their sibling
    retransmitted = {e.attrs["uid"] for e in env.trace.entries("rel.retransmit")}
    seen_again = [e for e in logs if e.attrs["note"] == "seen"
                  and e.attrs["uid"] in retransmitted]
    assert len(seen_again) >= len(corrupted)
    sent_gids = {e.attrs["group_id"] for e in env.trace.entries("gmp.send")}
    assert BOGUS_GID not in sent_gids
    assert {e.attrs["group_id"] for e in seen_again} <= sent_gids


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_digest_matches_parent_commit(name):
    assert _trace_digest(RUNS[name]) == PINNED[name]
