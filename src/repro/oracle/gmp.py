"""Agreement and protocol-discipline invariants for the GMP traces.

These encode the membership guarantees the paper's experiments probed:
"membership changes are seen in the same order by all members" and the
timer/proclaim disciplines whose violations were the four historical
bugs (:mod:`repro.gmp.bugs`).  The checks are behavioural where the
trace allows it -- a daemon reporting *itself* dead, a proclaim answered
to the forwarder instead of the originator, a heartbeat timer firing in
transition -- so the pack discriminates the seeded bugs without keying
on the bug flags themselves.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.gmp import messages as m
from repro.oracle.invariants import Invariant, Violation


class GmpViewAgreement(Invariant):
    """No two mutual members disagree on a committed view.

    Two adoptions of the same group id by nodes *a* and *b* conflict
    when each node appears in the other's member list but the lists
    differ: both believe they share a group yet disagree on who is in
    it.  Group ids are only compared between views that claim a common
    membership, so independent singleton incarnations that happen to
    reuse a group id (each daemon counts group ids locally) do not
    collide.
    """

    code = "GMP-AGREE"
    description = ("mutual members of one committed group id agree on "
                   "the member list")
    kinds = ("gmp.view_adopted",)

    def __init__(self) -> None:
        self._adoptions: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}

    def on_entry(self, entry):
        attrs = entry.attrs
        node = attrs["node"]
        members = tuple(attrs["members"])
        gid = attrs["group_id"]
        out: List[Violation] = []
        for other, other_members in self._adoptions.setdefault(gid, []):
            if (other_members != members and node in other_members
                    and other in members):
                out.append(self.violation(
                    entry, f"node {node} adopted view {list(members)} for "
                           f"group {gid} but node {other} holds "
                           f"{list(other_members)}",
                    subject=str(node)))
        self._adoptions[gid].append((node, members))
        return out


class GmpViewOrder(Invariant):
    """Each daemon adopts views in strictly increasing group-id order.

    "Membership changes are seen in the same order by all members":
    locally that means group ids never repeat or regress -- a daemon
    that re-adopts an old incarnation has lost the total order.
    """

    code = "GMP-VIEW-ORDER"
    description = "per-node adopted group ids strictly increase"
    kinds = ("gmp.view_adopted",)

    def __init__(self) -> None:
        self._last_gid: Dict[int, int] = {}

    def on_entry(self, entry):
        attrs = entry.attrs
        node, gid = attrs["node"], attrs["group_id"]
        last = self._last_gid.get(node)
        self._last_gid[node] = gid if last is None else max(last, gid)
        if last is not None and gid <= last:
            return [self.violation(
                entry, f"node {node} adopted group id {gid} after already "
                       f"holding {last}", subject=str(node))]
        return None


class GmpTimerDiscipline(Invariant):
    """No heartbeat timer fires while a daemon is in transition.

    Entering ``IN_TRANSITION`` requires unsetting every timer except the
    membership-change timeout; a heartbeat expectation expiring there
    (recorded as ``gmp.spurious_timeout``) is the Experiment 4 signature
    of the inverted-unregister bug.
    """

    code = "GMP-TIMER"
    description = "no heartbeat timer expires while in transition"
    kinds = ("gmp.spurious_timeout",)

    def on_entry(self, entry):
        attrs = entry.attrs
        return [self.violation(
            entry, f"heartbeat timer for member {attrs['member']} fired "
                   f"while node {attrs['node']} was in transition",
            subject=str(attrs["node"]))]


class GmpNoSelfDeathReport(Invariant):
    """A daemon never reports its own death while staying in the group.

    Missing its own heartbeats means the daemon's timers or network are
    unreliable; the conforming response is to restart as a singleton,
    not to broadcast ``DEAD_REPORT(self)`` and keep participating.  A
    graceful :meth:`~repro.gmp.daemon.Daemon.leave` legitimately
    announces its own departure, so departures are excluded.
    """

    code = "GMP-SELF-DEATH"
    description = ("no DEAD_REPORT about oneself outside a graceful "
                   "departure")
    kinds = ("gmp.send", "gmp.leave")

    def __init__(self) -> None:
        self._leaving: Set[int] = set()

    def on_entry(self, entry):
        attrs = entry.attrs
        node = attrs["node"]
        if entry.kind == "gmp.leave":
            self._leaving.add(node)
            return None
        if (attrs["msg_kind"] == m.DEAD_REPORT
                and attrs.get("subject") == node
                and node not in self._leaving):
            return [self.violation(
                entry, f"node {node} reported itself dead to node "
                       f"{attrs['dst']} without departing",
                subject=str(node))]
        return None


class GmpProclaimDiscipline(Invariant):
    """Proclaims are answered to, and forwarded as, their originator.

    The protocol threads the original proclaimer through forwarding
    hops so the leader's answer reaches the machine that asked.
    Replying to the forwarder, or re-sending a forwarded proclaim under
    the forwarder's own identity, is the Table 7 bug (both halves).
    """

    code = "GMP-PROCLAIM-REPLY"
    description = ("proclaim replies target the originator and forwards "
                   "preserve it")
    kinds = ("gmp.proclaim_reply", "gmp.proclaim_forwarded")

    def on_entry(self, entry):
        attrs = entry.attrs
        node = str(attrs["node"])
        if entry.kind == "gmp.proclaim_forwarded":
            if attrs["forwarded_as"] != attrs["originator"]:
                return [self.violation(
                    entry, f"proclaim from node {attrs['originator']} "
                           f"forwarded under identity "
                           f"{attrs['forwarded_as']}", subject=node)]
            return None
        originator = attrs.get("originator")
        if originator is not None and attrs["to"] != originator:
            return [self.violation(
                entry, f"proclaim from node {originator} answered to "
                       f"node {attrs['to']} instead", subject=node)]
        return None


class GmpNoSilentForwardDrop(Invariant):
    """Proclaim forwarding never fails silently.

    The wrong-parameter bug made the forward call of a self-down daemon
    return without sending anything, stranding joiners; the daemon
    records the swallowed forward as ``gmp.forward_param_bug``.
    """

    code = "GMP-FWD-PARAM"
    description = "no proclaim forward is silently swallowed"
    kinds = ("gmp.forward_param_bug",)

    def on_entry(self, entry):
        attrs = entry.attrs
        return [self.violation(
            entry, f"node {attrs['node']} silently dropped the proclaim "
                   f"forward for originator {attrs['originator']}",
            subject=str(attrs["node"]))]


def gmp_pack() -> List[Invariant]:
    """Fresh instances of the full GMP conformance pack."""
    return [GmpViewAgreement(), GmpViewOrder(), GmpTimerDiscipline(),
            GmpNoSelfDeathReport(), GmpProclaimDiscipline(),
            GmpNoSilentForwardDrop()]
