"""The group membership daemon (gmd).

Implements the strong group membership protocol the paper tested:
"membership changes are seen in the same order by all members.  ...  a
group of processors have a unique leader based on the processor id of each
member.  When a membership change is detected by the leader of the group,
it executes a 2-phase protocol to ensure that all members agree on the
membership."

Protocol sketch (one daemon per machine, lowest address leads):

- members heartbeat every member of their view **including themselves**;
- a missed heartbeat makes the observer report the peer dead to the
  leader (or, if the leader itself went quiet, to the crown prince, who
  assumes leadership);
- the leader proposes a new view with ``MEMBERSHIP_CHANGE``; recipients
  leave their old group (entering ``IN_TRANSITION``, all timers except the
  membership-change timer unset), ACK, and wait for ``COMMIT``;
- the leader commits to whoever ACKed; members that never see the COMMIT
  time out, fall back to a singleton group, and try to rejoin with
  ``PROCLAIM`` messages;
- a ``PROCLAIM`` reaching a non-leader is forwarded to the leader, who
  answers the *originator* with a ``PROCLAIM`` of its own (if the leader
  has the lower address) or a ``JOIN``.

The four historical bugs of the student implementation are injected where
they lived (see :mod:`repro.gmp.bugs`); with ``BugFlags()`` (all off) the
daemon implements the fixed protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.gmp import messages as m
from repro.gmp.bugs import BugFlags, FIXED
from repro.gmp.messages import GmpMessage
from repro.gmp.timers import GmpTimerTable
from repro.gmp.views import GroupView, singleton_view
from repro.netsim.scheduler import Scheduler
from repro.netsim.trace import TraceRecorder
from repro.xkernel.message import Message
from repro.xkernel.protocol import Protocol
from repro.netsim import kinds as K

STABLE = "STABLE"
COLLECTING = "COLLECTING"       # leader running phase one
IN_TRANSITION = "IN_TRANSITION"  # member awaiting COMMIT


@dataclass(frozen=True)
class GmpTiming:
    """Timer constants for the daemon."""

    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 3.5
    proclaim_interval: float = 2.0
    ack_collect_timeout: float = 1.5
    mc_timeout: float = 5.0          # IN_TRANSITION wait for COMMIT


class _Guarded:
    """A daemon timer callback wrapped with the suspend/defer gate.

    Carries a bound method of the daemon plus its arguments; while the
    daemon is suspended, invocations queue themselves on
    ``daemon._deferred`` and re-run on resume, lower ``priority`` first
    (ties keep expiry order).  A class (not a closure) so a checkpointed
    timer deep-copies into the forked daemon -- ``copy.deepcopy`` treats
    closures as atomic values that would keep pointing at the original.
    A timer keeps its guard across re-arms (``GmpTimerTable.rearm``):
    the daemon's callback for one timer key never changes.
    """

    __slots__ = ("callback", "args", "priority")

    def __init__(self, callback: Callable[..., None], args: tuple = (),
                 priority: int = 0):
        self.callback = callback
        self.args = tuple(args)
        self.priority = priority

    def __call__(self) -> None:
        daemon = self.callback.__self__
        if daemon._suspended:
            daemon._deferred.append((self.priority, self))
            return
        self.callback(*self.args)

    def __repr__(self) -> str:
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"_Guarded({name}{self.args!r})"


class Daemon(Protocol):
    """One group membership daemon, the top layer of its host's stack."""

    def __init__(self, address: int, scheduler: Scheduler,
                 world: Sequence[int], *,
                 bugs: BugFlags = FIXED,
                 timing: GmpTiming = GmpTiming(),
                 trace: Optional[TraceRecorder] = None,
                 name: str = ""):
        super().__init__(name or f"gmd{address}")
        self.address = address
        self.scheduler = scheduler
        self.world = tuple(sorted(set(world)))
        self.bugs = bugs
        self.timing = timing
        self.trace = trace

        self.view: GroupView = singleton_view(address)
        self.status = STABLE
        self.suspected: Set[int] = set()
        self.marked_self_down = False
        self._max_gid = 0
        self._started = False

        # leader phase-one state
        self._pending: Optional[Dict] = None
        self._queued_joiners: Set[int] = set()

        # member transition state
        self._transition_gid: Optional[int] = None
        self._transition_leader: Optional[int] = None

        self.timers = GmpTimerTable(
            scheduler, inverted_unregister=bugs.inverted_timer_unregister)

        # SIGTSTP emulation
        self._suspended = False
        self._deferred: List[Callable[[], None]] = []

        # peers we have provably heard from (directly, or as past
        # co-members), and peers that were committed into a view with us:
        # the latter is the set a leader may proclaim to after a
        # partition heals
        self._known: Set[int] = set()
        self._ever_members: Set[int] = set()

        # counters for experiments
        self.views_adopted: List[GroupView] = []
        self.sent_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Boot the daemon: singleton group, heartbeats, proclaims."""
        if self._started:
            raise RuntimeError("daemon already started")
        self._started = True
        self._adopt_view(singleton_view(self.address, group_id=0),
                         announce=False)
        self._send_proclaims()

    def leave(self) -> None:
        """Depart the group gracefully ("a member may depart from a group
        due to a normal shutdown, such as a scheduled maintenance").

        The departing daemon announces its own departure to the acting
        leader so the membership change starts immediately rather than
        after a heartbeat timeout, then stops participating.
        """
        self._record(K.GMP_LEAVE)
        others = self._alive_others()
        if others:
            self._send(m.DEAD_REPORT, min(others), subject=self.address)
        self.timers.stop_all()
        self._started = False

    def teardown(self) -> None:
        """The world's run is over: drop the timer table's timers and
        any deferred expiries, whose callbacks are this daemon's."""
        self.timers.stop_all()
        self._deferred.clear()

    def suspend(self) -> None:
        """Emulate SIGTSTP: no progress, timers defer until resume."""
        self._suspended = True
        self._record(K.GMP_SUSPENDED)

    def resume(self) -> None:
        """Emulate fg: deferred timer expirations fire immediately.

        The local-heartbeat (self) expectation runs first: the paper's
        suspended daemon exhibited "identical behaviour" to the
        dropped-self-heartbeat case, meaning its own missed heartbeats
        were what it acted on when the process woke up.
        """
        self._suspended = False
        self._record(K.GMP_RESUMED)
        deferred, self._deferred = self._deferred, []
        deferred.sort(key=lambda entry: entry[0])
        for _priority, callback in deferred:
            callback()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.view.leader == self.address

    @property
    def is_crown_prince(self) -> bool:
        return self.view.crown_prince == self.address

    def _alive_others(self) -> List[int]:
        """View members (excluding self) not currently suspected."""
        return [mm for mm in self.view.members
                if mm != self.address and mm not in self.suspected]

    def _acting_leader(self) -> int:
        """Lowest unsuspected member: the leader, or whoever must take
        over once the leader (and possibly the crown prince) are gone."""
        return min([self.address] + self._alive_others())

    def _next_gid(self) -> int:
        self._max_gid += 1
        return self._max_gid

    def _note_gid(self, gid: int) -> None:
        self._max_gid = max(self._max_gid, gid)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def _send(self, kind: str, dst: int, *, originator: Optional[int] = None,
              subject: int = -1, group_id: int = 0,
              members: Tuple[int, ...] = (), reliable: bool = True) -> None:
        gmsg = GmpMessage(kind=kind, sender=self.address,
                          originator=self.address if originator is None
                          else originator,
                          subject=subject, group_id=group_id,
                          members=members, down=self.marked_self_down)
        msg = Message(payload=gmsg)
        msg.meta["dst"] = dst
        msg.meta["src"] = self.address
        msg.meta["reliable"] = reliable and kind != m.HEARTBEAT
        self.sent_counts[kind] = self.sent_counts.get(kind, 0) + 1
        trace = self.trace
        if trace is not None:   # _record, without re-packing the keywords
            trace.record(K.GMP_SEND, t=self.scheduler.now, node=self.address,
                         msg_kind=kind, dst=dst, originator=gmsg.originator,
                         subject=subject, group_id=group_id)
        self.send_down(msg)

    def _send_proclaims(self) -> None:
        for peer in self.world:
            if peer != self.address:
                self._send(m.PROCLAIM, peer)

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------

    # The recurring timers re-arm in place (GmpTimerTable.rearm) and
    # build their _Guarded callback only when the table has no timer
    # for the key yet.

    def _arm_heartbeat_send(self) -> None:
        interval = self.timing.heartbeat_interval
        if not self.timers.rearm("heartbeat_send", "send", interval):
            self.timers.register("heartbeat_send", "send", interval,
                                 _Guarded(self._on_heartbeat_send))

    def _arm_proclaim(self) -> None:
        interval = self.timing.proclaim_interval
        if not self.timers.rearm("proclaim", "tick", interval):
            self.timers.register("proclaim", "tick", interval,
                                 _Guarded(self._on_proclaim_tick))

    def _arm_expect(self, member: int) -> None:
        timeout = self.timing.heartbeat_timeout
        if not self.timers.rearm("heartbeat_expect", member, timeout):
            # our own heartbeats' expiry runs first on resume
            priority = -1 if member == self.address else 0
            self.timers.register(
                "heartbeat_expect", member, timeout,
                _Guarded(self._on_expect_expired, (member,), priority))

    def _arm_all_expects(self) -> None:
        # self first, then the rest by address: under the inverted-
        # unregister bug only the first-registered timer is removed, so
        # this ordering is what leaves a *peer's* timer armed in
        # transition -- the exact symptom of the paper's Experiment 4.
        self._arm_expect(self.address)
        for member in self.view.members:
            if member != self.address:
                self._arm_expect(member)

    def _unset_timers_for_transition(self) -> None:
        """Leaving the old group: every timer except mc_timeout must go."""
        self.timers.unregister("heartbeat_expect")
        self.timers.unregister("heartbeat_send")
        self.timers.unregister("proclaim")
        self.timers.unregister("ack_collect")

    # ------------------------------------------------------------------
    # heartbeats and failure detection
    # ------------------------------------------------------------------

    def _on_heartbeat_send(self) -> None:
        for member in self.view.members:
            self._send(m.HEARTBEAT, member, reliable=False)
        if self.marked_self_down and self.bugs.self_death:
            # "it would continue to send bad information to the other gmds"
            for member in self.view.members:
                if member != self.address:
                    self._send(m.DEAD_REPORT, member, subject=self.address)
        self._arm_heartbeat_send()

    def _on_proclaim_tick(self) -> None:
        if self.status == STABLE:
            if self.view.is_singleton:
                self._send_proclaims()
            elif self.view.leader == self.address:
                # a leader keeps proclaiming to *former co-members* that
                # fell out of its view, which is what re-merges groups
                # after a partition heals.  Machines it never admitted
                # (e.g. a joiner whose ACKs are being dropped) are not
                # courted this way -- they must keep proclaiming
                # themselves, as in the paper's Table 5 ACK-drop cycle.
                lost = self._ever_members - set(self.view.members)
                for peer in sorted(lost):
                    if peer in self.world:
                        self._send(m.PROCLAIM, peer)
        self._arm_proclaim()

    def _on_expect_expired(self, member: int) -> None:
        self._record(K.GMP_HEARTBEAT_TIMEOUT, member=member,
                     status=self.status)
        if self.status == IN_TRANSITION:
            # a timer that should have been unset fired: the Experiment 4
            # signature of the inverted-unregister bug
            self._record(K.GMP_SPURIOUS_TIMEOUT, member=member)
            return
        if member == self.address:
            self._on_self_death()
            return
        if self.marked_self_down and self.bugs.self_death:
            # the historical daemon's state was wedged once it believed
            # itself dead: peer failures were re-armed and re-reported but
            # never acted on, so it stayed in the stale group forever and
            # "continued to send bad information to the other gmds"
            self._arm_expect(member)
            return
        self.suspected.add(member)
        self._arm_expect(member)  # keep watching; re-report if still quiet
        alive = self._alive_others()
        if not alive:
            self._become_singleton()
            return
        acting = self._acting_leader()
        if acting == self.address:
            # we are the lowest unsuspected member: the leader proper, or
            # the crown prince (or further down the line of succession)
            # taking over after the leader's heartbeats stopped
            if not self.is_leader:
                self._record(K.GMP_TAKEOVER, old_leader=self.view.leader)
            self._initiate_change(self.view.without(*self.suspected))
        else:
            self._send(m.DEAD_REPORT, acting, subject=member)

    def _on_self_death(self) -> None:
        """Heartbeats from ourselves stopped arriving."""
        if self.bugs.self_death:
            # the historical behaviour: tell everyone we died, mark
            # ourselves down, but stay in the group with stale state
            self._record(K.GMP_SELF_DEATH_BUG)
            self.marked_self_down = True
            for member in self.view.members:
                if member != self.address:
                    self._send(m.DEAD_REPORT, member, subject=self.address)
            self._arm_expect(self.address)
            return
        # fixed behaviour: we lost ourselves, so our timers/network are
        # unreliable; fall back to a singleton group and rejoin
        self._record(K.GMP_SELF_RESTART)
        self.marked_self_down = False
        self._become_singleton()

    # ------------------------------------------------------------------
    # membership change: leader side
    # ------------------------------------------------------------------

    def _initiate_change(self, proposed: Tuple[int, ...]) -> None:
        proposed = tuple(sorted(set(proposed) | {self.address}))
        if min(proposed) != self.address:
            return  # only the would-be leader runs the protocol
        if self._pending is not None:
            # already collecting; fold new intent into the next round
            self._queued_joiners.update(proposed)
            return
        gid = self._next_gid()
        self._pending = {"gid": gid, "proposed": set(proposed),
                         "acks": {self.address}}
        self.status = COLLECTING
        self._record(K.GMP_MC_SENT, group_id=gid, members=proposed)
        for member in proposed:
            if member != self.address:
                self._send(m.MEMBERSHIP_CHANGE, member, group_id=gid,
                           members=proposed)
        self.timers.register("ack_collect", gid,
                             self.timing.ack_collect_timeout,
                             _Guarded(self._on_ack_collect_timeout, (gid,)))
        if len(proposed) == 1:
            self._commit_change()

    def _on_ack(self, msg: GmpMessage) -> None:
        if self._pending is None or msg.group_id != self._pending["gid"]:
            return
        self._pending["acks"].add(msg.sender)
        if self._pending["acks"] >= self._pending["proposed"]:
            self._commit_change()

    def _on_nack(self, msg: GmpMessage) -> None:
        if self._pending is None or msg.group_id != self._pending["gid"]:
            return
        self._pending["proposed"].discard(msg.sender)
        if self._pending["acks"] >= self._pending["proposed"]:
            self._commit_change()

    def _on_ack_collect_timeout(self, gid: int) -> None:
        if self._pending is not None and self._pending["gid"] == gid:
            self._record(K.GMP_ACK_COLLECT_TIMEOUT, group_id=gid,
                         missing=sorted(self._pending["proposed"]
                                        - self._pending["acks"]))
            self._commit_change()

    def _commit_change(self) -> None:
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        self.timers.unregister("ack_collect", pending["gid"])
        final = tuple(sorted(pending["acks"] & pending["proposed"]
                             | {self.address}))
        self._record(K.GMP_COMMIT_SENT, group_id=pending["gid"],
                     members=final)
        for member in final:
            if member != self.address:
                self._send(m.COMMIT, member, group_id=pending["gid"],
                           members=final)
        self._adopt_view(GroupView(pending["gid"], final))
        if self._queued_joiners - set(final):
            joiners = tuple(self._queued_joiners)
            self._queued_joiners = set()
            self._initiate_change(self.view.with_added(*joiners))
        else:
            self._queued_joiners = set()

    # ------------------------------------------------------------------
    # membership change: member side
    # ------------------------------------------------------------------

    def _on_membership_change(self, msg: GmpMessage) -> None:
        valid_leader = (msg.sender == min(msg.members)
                        and self.address in msg.members)
        if not valid_leader:
            self._record(K.GMP_MC_REJECTED, sender=msg.sender,
                         group_id=msg.group_id)
            return
        if msg.group_id <= self.view.group_id:
            # stale proposal: refuse explicitly so the leader need not
            # burn its whole ACK-collection timeout on us
            self._record(K.GMP_NACK_SENT, to=msg.sender,
                         group_id=msg.group_id, reason="stale_gid")
            self._send(m.NACK, msg.sender, group_id=msg.group_id)
            return
        if (self._transition_gid is not None
                and msg.group_id <= self._transition_gid):
            self._record(K.GMP_NACK_SENT, to=msg.sender,
                         group_id=msg.group_id, reason="in_transition")
            self._send(m.NACK, msg.sender, group_id=msg.group_id)
            return
        self._note_gid(msg.group_id)
        was_in_transition = self.status == IN_TRANSITION
        self.status = IN_TRANSITION
        self._transition_gid = msg.group_id
        self._transition_leader = msg.sender
        self._record(K.GMP_IN_TRANSITION, group_id=msg.group_id,
                     leader=msg.sender, repeat=was_in_transition)
        self._unset_timers_for_transition()
        self._send(m.ACK, msg.sender, group_id=msg.group_id)
        self.timers.register("mc_timeout", msg.group_id,
                             self.timing.mc_timeout,
                             _Guarded(self._on_mc_timeout, (msg.group_id,)))

    def _on_commit(self, msg: GmpMessage) -> None:
        if self.status != IN_TRANSITION or msg.group_id != self._transition_gid:
            return
        if self.address not in msg.members:
            self._become_singleton()
            return
        self.timers.unregister("mc_timeout", msg.group_id)
        self._adopt_view(GroupView(msg.group_id, tuple(msg.members)))

    def _on_mc_timeout(self, gid: int) -> None:
        if self.status != IN_TRANSITION or gid != self._transition_gid:
            return
        self._record(K.GMP_MC_TIMEOUT, group_id=gid)
        self._become_singleton()

    # ------------------------------------------------------------------
    # proclaim / join
    # ------------------------------------------------------------------

    def _on_proclaim(self, msg: GmpMessage) -> None:
        buggy = self.bugs.proclaim_reply_to_sender
        if msg.originator == self.address:
            return  # our own proclaim came back around
        if self.marked_self_down and self.bugs.proclaim_forward_param:
            # the wrong-parameter bug: the forward call fails silently
            self._record(K.GMP_FORWARD_PARAM_BUG, originator=msg.originator)
            return
        if self.view.leader != self.address:
            if msg.originator < self.view.leader:
                # a machine with a lower address than our leader exists:
                # it should lead.  Respond with a JOIN directly -- the
                # Table 6 path where, after the old leader's proclaim
                # reached a group led by the crown prince, "each machine
                # responded to the original leader with a JOIN message".
                self._record(K.GMP_DEFECT, to=msg.originator,
                             old_leader=self.view.leader)
                self._send(m.JOIN, msg.originator,
                           members=(self.address,),
                           group_id=self.view.group_id)
                return
            # forward to our leader.  The fixed code threads the true
            # originator through; the historical code re-sent the proclaim
            # under the forwarder's own identity, losing the originator --
            # the root cause of both halves of the Table 7 bug.
            forwarded_originator = self.address if buggy else msg.originator
            trace = self.trace
            if trace is not None:   # _record, without re-packing the keywords
                trace.record(K.GMP_PROCLAIM_FORWARDED, t=self.scheduler.now,
                             node=self.address, originator=msg.originator,
                             forwarded_as=forwarded_originator,
                             to=self.view.leader)
            self._send(m.PROCLAIM, self.view.leader,
                       originator=forwarded_originator)
            return
        stale = (msg.originator in self.view.members
                 and not self.view.is_singleton)
        if stale and not buggy:
            return  # already one of us; nothing to answer
        reply_to = msg.sender if buggy else msg.originator
        if self.address < msg.originator:
            self._record(K.GMP_PROCLAIM_REPLY, to=reply_to,
                         originator=msg.originator, reply_kind=m.PROCLAIM)
            self._send(m.PROCLAIM, reply_to)
        else:
            self._record(K.GMP_PROCLAIM_REPLY, to=reply_to,
                         originator=msg.originator, reply_kind=m.JOIN)
            self._send(m.JOIN, reply_to, members=self.view.members,
                       group_id=self.view.group_id)

    def _on_join(self, msg: GmpMessage) -> None:
        if self.view.leader != self.address:
            self._send(m.JOIN, self.view.leader, originator=msg.originator,
                       members=msg.members)
            return
        joiners = set(msg.members) | {msg.originator}
        self._initiate_change(self.view.with_added(*joiners))

    def _on_dead_report(self, msg: GmpMessage) -> None:
        subject = msg.subject
        if subject == self.address:
            return  # someone says we are dead; our own heartbeats decide
        if subject not in self.view.members:
            return
        self.suspected.add(subject)
        acting = self._acting_leader()
        if acting == self.address:
            if not self.is_leader:
                self._record(K.GMP_TAKEOVER, old_leader=self.view.leader)
            self._initiate_change(self.view.without(*self.suspected))

    # ------------------------------------------------------------------
    # view adoption
    # ------------------------------------------------------------------

    def _adopt_view(self, view: GroupView, *, announce: bool = True) -> None:
        self.view = view
        self._note_gid(view.group_id)
        self.status = STABLE
        self.suspected.clear()
        self._transition_gid = None
        self._transition_leader = None
        if not self.bugs.self_death:
            self.marked_self_down = False
        self.views_adopted.append(view)
        self._known.update(mm for mm in view.members if mm != self.address)
        self._ever_members.update(mm for mm in view.members
                                  if mm != self.address)
        if announce:
            self._record(K.GMP_VIEW_ADOPTED, group_id=view.group_id,
                         members=view.members, leader=view.leader)
        self._arm_heartbeat_send()
        self._arm_all_expects()
        self._arm_proclaim()

    def _become_singleton(self) -> None:
        self._record(K.GMP_SINGLETON)
        self._unset_timers_for_transition()
        self.timers.unregister("mc_timeout")
        self._pending = None
        self._adopt_view(singleton_view(self.address, self._next_gid()))
        self._send_proclaims()

    # ------------------------------------------------------------------
    # stack interface
    # ------------------------------------------------------------------

    def pop(self, msg: Message) -> None:
        gmsg = msg.payload
        if not isinstance(gmsg, GmpMessage):
            return
        if self._suspended or not self._started:
            return  # a stopped process reads nothing
        trace = self.trace
        if trace is not None:   # _record, without re-packing the keywords
            trace.record(K.GMP_RECEIVE, t=self.scheduler.now,
                         node=self.address, msg_kind=gmsg.kind,
                         src=gmsg.sender, originator=gmsg.originator,
                         group_id=gmsg.group_id)
        if gmsg.group_id > self._max_gid:   # _note_gid, inline
            self._max_gid = gmsg.group_id
        if gmsg.sender != self.address:
            self._known.add(gmsg.sender)
        if gmsg.kind == m.HEARTBEAT:
            sender = gmsg.sender
            if sender in self.view.members and self.status != IN_TRANSITION:
                self.suspected.discard(sender)
                # _arm_expect, with its common case inline: the timer
                # watching this member is re-armed in place
                if not self.timers.rearm("heartbeat_expect", sender,
                                         self.timing.heartbeat_timeout):
                    self._arm_expect(sender)
            return
        handler = _HANDLERS.get(gmsg.kind)
        if handler is not None:
            handler(self, gmsg)

    def _record(self, kind: str, /, **attrs) -> None:
        if self.trace is not None:
            self.trace.record(kind, t=self.scheduler.now, node=self.address,
                              **attrs)

    def __repr__(self) -> str:
        return (f"Daemon(addr={self.address}, {self.status}, "
                f"view={list(self.view.members)}, gid={self.view.group_id})")


#: control-message dispatch for :meth:`Daemon.pop` (heartbeats are
#: handled inline)
_HANDLERS = {
    m.PROCLAIM: Daemon._on_proclaim,
    m.JOIN: Daemon._on_join,
    m.MEMBERSHIP_CHANGE: Daemon._on_membership_change,
    m.ACK: Daemon._on_ack,
    m.NACK: Daemon._on_nack,
    m.COMMIT: Daemon._on_commit,
    m.DEAD_REPORT: Daemon._on_dead_report,
}
