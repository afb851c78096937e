"""The canonical registry of trace-kind strings.

Every event the simulator can record is named here, once.  Emit sites in
the TCP, GMP and PFI layers reference these constants instead of scattering
string literals; consumers (oracle invariant packs, the fuzzer's coverage
keys, lineage reconstruction, analysis queries) may keep using literals --
the trace-schema drift pass of :mod:`repro.staticcheck` maps every literal
it finds back onto this registry and fails the build when the two disagree
in either direction:

- a constant below that no emit site produces is dead schema (SC203);
- an emitted kind missing from this module is schema drift (SC204);
- an oracle subscription to a kind nothing emits is a broken invariant
  (SC201).

Names follow the dotted-kind convention mechanically: ``tcp.ooo_queued``
is :data:`TCP_OOO_QUEUED`.  :func:`all_kinds` is the machine-readable
form the drift checker and the registry drift-guard test consume.
"""

from __future__ import annotations

from typing import FrozenSet

# ---------------------------------------------------------------------
# TCP (vendor profiles and the x-kernel stack)
# ---------------------------------------------------------------------

TCP_RECEIVE = "tcp.receive"
TCP_TRANSMIT = "tcp.transmit"
TCP_STATE = "tcp.state"
TCP_RETRANSMIT = "tcp.retransmit"
TCP_RETX_GIVE_UP = "tcp.retx_give_up"
TCP_FAST_RETRANSMIT = "tcp.fast_retransmit"
TCP_CWND = "tcp.cwnd"
TCP_CWND_COLLAPSE = "tcp.cwnd_collapse"
TCP_OOO_QUEUED = "tcp.ooo_queued"
TCP_OOO_DROPPED = "tcp.ooo_dropped"
TCP_CONN_DROPPED = "tcp.conn_dropped"
TCP_PERSIST_START = "tcp.persist_start"
TCP_PERSIST_STOP = "tcp.persist_stop"
TCP_ZWP_PROBE = "tcp.zwp_probe"
TCP_KEEPALIVE_PROBE = "tcp.keepalive_probe"
TCP_KEEPALIVE_GIVE_UP = "tcp.keepalive_give_up"
TCP_LINEAGE = "tcp.lineage"

# ---------------------------------------------------------------------
# GMP (group membership daemon and its reliable transport)
# ---------------------------------------------------------------------

GMP_SEND = "gmp.send"
GMP_RECEIVE = "gmp.receive"
GMP_LEAVE = "gmp.leave"
GMP_DEFECT = "gmp.defect"
GMP_SINGLETON = "gmp.singleton"
GMP_TAKEOVER = "gmp.takeover"
GMP_SUSPENDED = "gmp.suspended"
GMP_RESUMED = "gmp.resumed"
GMP_IN_TRANSITION = "gmp.in_transition"
GMP_VIEW_ADOPTED = "gmp.view_adopted"
GMP_MC_SENT = "gmp.mc_sent"
GMP_MC_REJECTED = "gmp.mc_rejected"
GMP_MC_TIMEOUT = "gmp.mc_timeout"
GMP_COMMIT_SENT = "gmp.commit_sent"
GMP_ACK_COLLECT_TIMEOUT = "gmp.ack_collect_timeout"
GMP_NACK_SENT = "gmp.nack_sent"
GMP_HEARTBEAT_TIMEOUT = "gmp.heartbeat_timeout"
GMP_SPURIOUS_TIMEOUT = "gmp.spurious_timeout"
GMP_PROCLAIM_REPLY = "gmp.proclaim_reply"
GMP_PROCLAIM_FORWARDED = "gmp.proclaim_forwarded"
GMP_SELF_DEATH_BUG = "gmp.self_death_bug"
GMP_SELF_RESTART = "gmp.self_restart"
GMP_FORWARD_PARAM_BUG = "gmp.forward_param_bug"

REL_RETRANSMIT = "rel.retransmit"
REL_ABANDON = "rel.abandon"
REL_DUPLICATE = "rel.duplicate"

# ---------------------------------------------------------------------
# PFI (the probe/fault-injection layer and its message log)
# ---------------------------------------------------------------------

PFI_DROP = "pfi.drop"
PFI_DELAY = "pfi.delay"
PFI_DUPLICATE = "pfi.duplicate"
PFI_HOLD = "pfi.hold"
PFI_RELEASE = "pfi.release"
PFI_INJECT = "pfi.inject"
PFI_KILLED_DROP = "pfi.killed_drop"
PFI_LOG = "pfi.log"

# ---------------------------------------------------------------------
# infrastructure (ABP demo protocol, network core, drivers, schedules)
# ---------------------------------------------------------------------

ABP_DATA_SENT = "abp.data_sent"
ABP_ACK_SENT = "abp.ack_sent"
ABP_ACKED = "abp.acked"
ABP_STALE_ACK = "abp.stale_ack"
ABP_RETRANSMIT = "abp.retransmit"
ABP_GIVE_UP = "abp.give_up"
ABP_DELIVERED = "abp.delivered"
ABP_DUPLICATE_DELIVERED = "abp.duplicate_delivered"
ABP_DUPLICATE_SUPPRESSED = "abp.duplicate_suppressed"

# ---------------------------------------------------------------------
# campaign flight recorder (the JSONL run journal of repro.obs.journal;
# these kinds name journal events, recorded via Journal.record rather
# than TraceRecorder.record, but they share this registry so the
# SC201-SC204 drift pass covers both schemas)
# ---------------------------------------------------------------------

CAMPAIGN_START = "campaign.start"
CAMPAIGN_PREFLIGHT = "campaign.preflight"
CAMPAIGN_CHECKPOINT_CAPTURE = "campaign.checkpoint_capture"
#: payload fields every ``campaign.checkpoint_capture`` event takes from
#: :attr:`repro.core.checkpoint.Checkpoint.plan_stats`: objects created
#: per fork, and the class of each one copied by ``copy.deepcopy``
#: instead of replayed (a tuple: :func:`all_kinds` collects only strings)
CHECKPOINT_PLAN_FIELDS = ("objects", "fallback")
CAMPAIGN_PHASE_START = "campaign.phase_start"
CAMPAIGN_PHASE_END = "campaign.phase_end"
CAMPAIGN_RUN_START = "campaign.run_start"
CAMPAIGN_RUN_END = "campaign.run_end"
CAMPAIGN_WORKER_ERROR = "campaign.worker_error"
CAMPAIGN_SHRINK_STEP = "campaign.shrink_step"
CAMPAIGN_END = "campaign.end"

NET_SEND = "net.send"
NET_LINK_DROP = "net.link_drop"
NET_UNROUTABLE = "net.unroutable"
NET_PARTITION_DROP = "net.partition_drop"

DRIVER_DELIVER = "driver.deliver"


def all_kinds() -> FrozenSet[str]:
    """Every registered trace kind, as a frozenset of strings."""
    return frozenset(
        value for name, value in globals().items()
        if name.isupper() and isinstance(value, str))


def constant_name(kind: str) -> str:
    """The registry constant naming ``kind`` (mechanical mapping)."""
    return kind.replace(".", "_").upper()
