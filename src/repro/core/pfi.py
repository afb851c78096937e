"""The PFI layer: probe/fault injection as a protocol stack layer.

"The PFI layer intercepts all messages coming into and leaving the target
layer.  [It] can manipulate messages to/from the target layer as they pass
through the protocol stack, and it can introduce spontaneous messages into
the system to observe the behavior of target protocol participants on
other nodes."

Data path:

- ``push`` (message travelling down, *leaving* the target layer) runs the
  **send filter**;
- ``pop`` (message travelling up, *entering* the target layer) runs the
  **receive filter**.

After a filter runs, the recorded actions are applied:

- injections first (a probe may need to precede the triggering message);
- ``drop`` discards the message;
- ``hold`` parks it in a named queue until a later ``release``;
- otherwise the message is forwarded, after ``delay`` seconds if
  requested, along with any duplicates.

Delayed/duplicated/released messages bypass the filters on re-emission, so
a delayed message is not re-filtered (and re-delayed) when its timer fires.

A filter script that fails (a ``TclError``: a field the message lacks, a
runaway loop) ends the run it filters with a ``pfi.script_error`` entry
and a :class:`~repro.core.script.ScriptFault`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.core.context import DROP, HOLD, ScriptContext
from repro.core.distributions import DistributionSet
from repro.core.msglog import MessageLog
from repro.core.script import FilterScript, PythonFilter, ScriptFault
from repro.core.stubs import PacketStubs
from repro.core.sync import ScriptSync
from repro.core.tclish import TclError
from repro.netsim.scheduler import Scheduler
from repro.netsim.trace import TraceRecorder
from repro.xkernel.message import Message
from repro.xkernel.protocol import Protocol
from repro.netsim import kinds as K

_new_context = object.__new__


class PFILayer(Protocol):
    """A probe/fault-injection layer spliced into a protocol stack.

    The trace is the layer's one record: every action it takes is a
    ``pfi.*`` entry there, and :attr:`stats` and :attr:`msglog` read
    those entries back.
    """

    def __init__(self, name: str, scheduler: Scheduler, stubs: PacketStubs, *,
                 trace: TraceRecorder,
                 sync: Optional[ScriptSync] = None,
                 dist: Optional[DistributionSet] = None,
                 node: str = ""):
        super().__init__(name)
        self.scheduler = scheduler
        self.stubs = stubs
        self.trace = trace
        self.sync = sync or ScriptSync()
        self.dist = dist or DistributionSet()
        self.node = node or name
        self.send_filter: Optional[FilterScript] = None
        self.receive_filter: Optional[FilterScript] = None
        self.send_state: Dict[str, Any] = {}
        self.receive_state: Dict[str, Any] = {}
        self.msglog = MessageLog(stubs, trace, node=self.node)
        self._held: Dict[Tuple[str, str], List[Message]] = OrderedDict()
        #: messages that crossed the layer in each direction, filtered or
        #: not (the only counts the trace does not hold)
        self.send_seen = 0
        self.receive_seen = 0

    @property
    def stats(self) -> Dict[str, int]:
        """Messages seen per direction, then this node's count of each
        action kind in the trace (:data:`~repro.netsim.kinds
        .PFI_ACTION_STATS`)."""
        count = self.trace.count
        return {"send_seen": self.send_seen,
                "receive_seen": self.receive_seen,
                **{stat: count(kind, node=self.node)
                   for kind, stat in K.PFI_ACTION_STATS.items()}}

    # ------------------------------------------------------------------
    # filter installation
    # ------------------------------------------------------------------

    def set_send_filter(self, script) -> None:
        """Install the send filter (FilterScript or plain callable)."""
        self.send_filter = _as_filter(script)

    def set_receive_filter(self, script) -> None:
        """Install the receive filter (FilterScript or plain callable)."""
        self.receive_filter = _as_filter(script)

    def clear_filters(self) -> None:
        """Remove both filters; the layer becomes transparent."""
        self.send_filter = None
        self.receive_filter = None

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    # A direction with no filter forwards inline, bumping its count in
    # place, so the layer adds one call to the crossing.  A direction
    # with a filter takes ``_process``.

    def push(self, msg: Message) -> None:
        if self.send_filter is None:
            self.send_seen += 1
            self.send_down(msg)
        else:
            self._process(msg, "send")

    def pop(self, msg: Message) -> None:
        if self.receive_filter is None:
            self.receive_seen += 1
            self.send_up(msg)
        else:
            self._process(msg, "receive")

    def _process(self, msg: Message, direction: str) -> None:
        """Run the direction's filter on ``msg``, then apply what it
        recorded, in one frame: injections first, then the verdict --
        drop, hold, or forward (after ``delay``, followed by any
        duplicates) -- and last the releases, which follow the current
        message.  A :class:`TclError` from the script ends the run
        (:meth:`_script_failed`)."""
        if direction == "send":
            self.send_seen += 1
            script = self.send_filter
            state, peer = self.send_state, self.receive_state
        else:
            self.receive_seen += 1
            script = self.receive_filter
            state, peer = self.receive_state, self.send_state
        # ScriptContext(msg=msg, ...), without running its __init__
        ctx = _new_context(ScriptContext)
        ctx.__dict__ = {"msg": msg, "direction": direction,
                        "now": self.scheduler.now, "state": state,
                        "peer_state": peer, "stubs": self.stubs,
                        "dist": self.dist, "sync": self.sync,
                        "node": self.node, "_pfi": self}
        try:
            script.run(ctx)
        except TclError as err:
            self._script_failed(msg, direction, err)

        for injected, inj_direction, delay in ctx.injections:
            # the filtered message is the injection's causal parent --
            # the lineage edge that lets `repro report` answer "which
            # packet triggered this probe?"
            self.inject(injected, inj_direction, delay=delay, parent=msg.uid)
        try:
            verdict = ctx.verdict
            if verdict == DROP:
                self.trace.record(K.PFI_DROP, t=self.scheduler.now,
                                  node=self.node, direction=direction,
                                  uid=msg.uid,
                                  msg_type=self.stubs.msg_type(msg))
            elif verdict == HOLD:
                self._held.setdefault((direction, ctx.hold_tag), []).append(msg)
                self._record(K.PFI_HOLD, direction=direction, uid=msg.uid,
                             tag=ctx.hold_tag)
            else:
                # a duplicate is the message as the filter saw it: copied
                # before forwarding, which lets the next layer push or pop
                # a header on it
                copies = ([(msg.copy(), delay)
                           for delay in ctx.duplicate_delays]
                          if ctx.duplicate_delays else ())
                if ctx.delay_s > 0:
                    self._record(K.PFI_DELAY, direction=direction,
                                 uid=msg.uid, seconds=ctx.delay_s,
                                 msg_type=self.stubs.msg_type(msg))
                    self.scheduler.schedule(ctx.delay_s, self._forward, msg,
                                            direction)
                elif direction == "send":
                    self.send_down(msg)
                else:
                    self.send_up(msg)
                for copy, extra_delay in copies:
                    self._record(K.PFI_DUPLICATE, direction=direction,
                                 uid=copy.uid, original=msg.uid)
                    if extra_delay > 0:
                        self.scheduler.schedule(extra_delay, self._forward,
                                                copy, direction)
                    else:
                        self._forward(copy, direction)
        finally:
            # released messages follow the current one, so "pass this and
            # release the held one" reorders exactly as scripts expect
            for tag, delay in ctx.releases:
                self._release(direction, tag, delay)

    def _script_failed(self, msg: Message, direction: str,
                       err: TclError) -> None:
        """End the run on a filter script's fault.

        The fault is the script's verdict on its own run, not the tool's
        crash: it is recorded as a ``pfi.script_error`` entry (the
        failing command, the filter line it escaped from, the message)
        and raised as :class:`ScriptFault`, which
        :func:`~repro.core.orchestrator.run_one` turns into the run's
        ``script_error`` and a ``PFI-SCRIPT-ERROR`` violation.
        """
        error = {"command": err.command or "", "line": err.line or 0,
                 "message": str(err)}
        self._record(K.PFI_SCRIPT_ERROR, direction=direction, uid=msg.uid,
                     **error)
        # the fault stands for the script's TclError: same message, same
        # cause (a StubError, a host error), if the error had one
        raise ScriptFault(error) from err.__cause__ or err

    def _forward(self, msg: Message, direction: str) -> None:
        if direction == "send":
            self.send_down(msg)
        else:
            self.send_up(msg)

    # ------------------------------------------------------------------
    # injection / reordering helpers
    # ------------------------------------------------------------------

    def inject(self, msg: Message, direction: str, *, delay: float = 0.0,
               parent: Optional[int] = None) -> None:
        """Introduce a spontaneous message, bypassing the filters.

        ``direction='send'`` pushes toward the wire (probing remote
        participants); ``direction='receive'`` delivers up into the target
        layer (forging traffic the target believes it received).
        ``parent`` is the uid of the message whose filtering triggered
        this injection (set automatically for script-driven injections)
        and becomes a lineage edge in the trace.
        """
        msg.meta["injected"] = True
        if parent is None:
            self._record(K.PFI_INJECT, direction=direction, uid=msg.uid,
                         msg_type=self.stubs.msg_type(msg))
        else:
            self._record(K.PFI_INJECT, direction=direction, uid=msg.uid,
                         msg_type=self.stubs.msg_type(msg), parent=parent)
        if delay > 0:
            self.scheduler.schedule(delay, self._forward, msg, direction)
        else:
            self._forward(msg, direction)

    def _release(self, direction: str, tag: str, delay: float) -> None:
        queue = self._held.pop((direction, tag), [])
        for position, msg in enumerate(queue):
            self._record(K.PFI_RELEASE, direction=direction, uid=msg.uid,
                         tag=tag, position=position)
            if delay > 0:
                self.scheduler.schedule(delay, self._forward, msg, direction)
            else:
                self._forward(msg, direction)

    def held_count(self, direction: str, tag: str = "default") -> int:
        """Messages currently parked in a hold queue."""
        return len(self._held.get((direction, tag), ()))

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------

    def log_message(self, msg: Message, *, direction: str, note: str = "") -> None:
        """Record a message through the layer's :class:`MessageLog`."""
        self.msglog.log(msg, t=self.scheduler.now, direction=direction, note=note)

    def _record(self, kind: str, /, **attrs: Any) -> None:
        self.trace.record(kind, t=self.scheduler.now, node=self.node, **attrs)


def _as_filter(script) -> FilterScript:
    if isinstance(script, FilterScript):
        return script
    if callable(script):
        return PythonFilter(script)
    raise TypeError(f"cannot use {script!r} as a filter script")
