"""Filter scripts: the programmable half of the PFI layer.

A filter script runs once per intercepted message.  Two backends implement
the same contract:

- :class:`PythonFilter` wraps a Python callable ``fn(ctx)`` -- the
  ergonomic modern form;
- :class:`TclishFilter` evaluates tclish source in a persistent
  :class:`~repro.core.tclish.Interp`, faithfully reproducing the paper's
  Tcl scripts ("each time a message passes into the PFI layer, the
  appropriate (send or receive) script is interpreted in the appropriate
  interpreter").

Both persist state across invocations: PythonFilter via ``ctx.state``
(one dict per filter), TclishFilter via the interpreter's variables.

The tclish bridge registers the paper's utility commands (``msg_type``,
``xDrop``, ``xDelay``, ``chance``, ...).  Every command is declared once
through the :func:`cmd` decorator with its arity bounds, usage line and
doc string, exactly as the tclish stdlib declares its own commands; that
single declaration drives

- runtime registration, including the argument-count check
  ``Interp.call`` makes for every command, and
- the static analyzer's command registry
  (:func:`repro.core.tclish.lint.default_registry`),

so lint and runtime can never disagree about the command surface.
:data:`PFI_COMMANDS` is the authoritative table; render it with
:func:`pfi_command_table`.
"""

from __future__ import annotations

import warnings
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.core.context import ScriptContext
from repro.core.stubs import StubError
from repro.core.tclish import Interp, TclError
from repro.core.tclish.lint.registry import CommandSignature, forget_default


class FilterScript:
    """Base class: something that can process one intercepted message."""

    def run(self, ctx: ScriptContext) -> None:
        raise NotImplementedError


class PythonFilter(FilterScript):
    """A filter implemented as a Python callable ``fn(ctx)``."""

    def __init__(self, fn: Callable[[ScriptContext], None], name: str = ""):
        self._fn = fn
        self.name = name or getattr(fn, "__name__", type(fn).__name__)

    def run(self, ctx: ScriptContext) -> None:
        self._fn(ctx)

    def __repr__(self) -> str:
        return f"PythonFilter({self.name})"


class TclishLintWarning(UserWarning):
    """A TclishFilter was built from a script with lint errors."""


class TclishFilter(FilterScript):
    """A filter whose body is tclish source, evaluated per message.

    The interpreter is created once and reused, so ``set count 0`` in
    ``init_script`` followed by ``incr count`` in the body counts messages
    across invocations exactly like the paper's Tcl interpreters.

    The body is compiled once, at construction, into a tree of closures
    (:mod:`repro.core.tclish.compiler`); each ``run`` runs that compiled
    script, so no message pays for lexing, parsing or looking the source
    up.

    ``lint`` controls construction-time static analysis of the script
    (:mod:`repro.core.tclish.lint`):

    - ``"warn"`` (default): error-level diagnostics are surfaced as a
      Python :class:`TclishLintWarning`; the full report is kept on
      ``self.lint_report``;
    - ``"error"``: error-level diagnostics raise
      :class:`~repro.core.tclish.lint.TclishLintError` listing every
      finding (campaigns and the generator use this);
    - ``"off"``: skip analysis entirely.
    """

    def __init__(self, source: str, init_script: str = "", name: str = "tclish",
                 *, lint: str = "warn"):
        if lint not in ("error", "warn", "off"):
            raise ValueError(f'lint mode must be "error", "warn" or "off", '
                             f"got {lint!r}")
        self.source = source
        self.name = name
        self.lint_report = None
        if lint != "off":
            from repro.core.tclish.lint import lint_source
            from repro.core.tclish.lint.reporting import TclishLintError
            self.lint_report = lint_source(source, init_script=init_script,
                                           source_name=name)
            if not self.lint_report.ok():
                if lint == "error":
                    raise TclishLintError(self.lint_report)
                from repro.core.tclish.lint.reporting import render_text
                warnings.warn(
                    f"tclish filter {name!r} has lint errors:\n"
                    f"{render_text(self.lint_report)}",
                    TclishLintWarning, stacklevel=2)
        self.interp = Interp()
        self.profiler = None
        self.interp.commands.update(PFI_COMMANDS)
        #: the compiled body every ``run`` evaluates
        self.compiled = self.interp.compile(source)
        if init_script:
            self.interp.eval(init_script)

    def enable_profiler(self, profiler=None):
        """Attach a :class:`~repro.obs.profiler.ScriptProfiler`.

        Instruments both granularities at once: per-command wall time in
        the interpreter's compiled commands, and per-invocation wall
        time of this filter recorded under its ``name``.  Pass a shared
        profiler to aggregate several filters; returns the profiler so
        ``prof = f.enable_profiler()`` reads naturally.
        """
        if profiler is None:
            from repro.obs.profiler import ScriptProfiler
            profiler = ScriptProfiler()
        self.profiler = profiler
        self.interp.profiler = profiler
        return profiler

    def disable_profiler(self) -> None:
        """Detach the profiler; ``run`` goes back to the zero-cost path."""
        self.profiler = None
        self.interp.profiler = None

    def __deepcopy__(self, memo):
        """Checkpoint-aware copy: the interpreter's variables, procs and
        output -- the state a checkpointed fork must carry -- come through
        the deep copy (its command declarations are shared, they are
        immutable); the compiled script and the lint report are shared
        and no profiler follows.
        """
        import copy as _copy
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        clone.source = self.source
        clone.compiled = self.compiled
        clone.name = self.name
        clone.lint_report = self.lint_report
        clone.profiler = None
        clone.interp = _copy.deepcopy(self.interp, memo)
        clone.interp.profiler = None
        return clone

    def run(self, ctx: ScriptContext) -> None:
        interp = self.interp
        interp.context = ctx
        profiler = self.profiler
        if profiler is None:
            try:
                self.compiled.run(interp)
            finally:
                interp.context = None
            return
        start = perf_counter()
        try:
            self.compiled.run(interp)
        finally:
            profiler.record_script(self.name, perf_counter() - start)
            interp.context = None

    @property
    def output_lines(self) -> List[str]:
        """Lines produced by ``puts`` across all invocations."""
        return self.interp.output_lines

    def __repr__(self) -> str:
        return f"TclishFilter({self.name})"


# ----------------------------------------------------------------------
# the PFI command surface: one declaration per command
# ----------------------------------------------------------------------

#: name -> :class:`CommandSignature` for every PFI bridge command.  Filled
#: by the :func:`cmd` decorator below; the single source of truth for
#: runtime registration and arity enforcement, the lint registry and the
#: docs table.
PFI_COMMANDS: Dict[str, CommandSignature] = {}


def cmd(name: str, min_args: int = 0, max_args: Optional[int] = None,
        usage: str = "", doc: str = ""):
    """Declare a PFI bridge command: signature + implementation, once.

    The decorated function receives ``(ctx, interp, args)`` where ``ctx``
    is the live :class:`~repro.core.context.ScriptContext` (the
    interpreter's ``context`` while a filter runs).  ``Interp.call``
    rejects argument counts outside ``[min_args, max_args]`` before the
    implementation runs, with the declared usage line -- the same bounds
    the static analyzer checks, so a script that lints clean cannot die
    on arity at runtime.  A :class:`~repro.core.stubs.StubError` the
    implementation raises (a field the message lacks) becomes a
    :class:`TclError`, so ``catch`` traps it.  Registering a command
    empties the analyzer's verdict memo and its built default registry:
    this decorator is the one place the command surface grows.
    """
    def decorator(fn):
        def command(interp: Interp, args: List[str]) -> str:
            ctx = interp.context
            if ctx is None:
                raise TclError("no message is being filtered right now")
            try:
                return fn(ctx, interp, args)
            except StubError as err:
                raise TclError(f'error in command "{name}": {err}') from err
        PFI_COMMANDS[name] = CommandSignature(
            name, min_args, max_args, usage or name, doc, command)
        forget_default()
        return fn
    return decorator


def pfi_command_table() -> str:
    """Render the command surface as aligned ``usage  doc`` lines."""
    rows = [(sig.usage, sig.doc) for sig in PFI_COMMANDS.values()]
    width = max(len(usage) for usage, _doc in rows)
    return "\n".join(f"{usage:<{width}}  {doc}" for usage, doc in rows)


@cmd("msg_type", 0, 1, "msg_type ?cur_msg?",
     "type name of the current message")
def _msg_type(ctx, _i, args):
    return ctx.msg_type()


@cmd("msg_log", 0, 2, "msg_log ?cur_msg? ?note?",
     "log the message with a timestamp")
def _msg_log(ctx, _i, args):
    note = args[1] if len(args) > 1 else ""
    ctx.log(note)
    return ""


@cmd("msg_field", 1, 1, "msg_field name", "read header field ``name``")
def _msg_field(ctx, _i, args):
    return _stringify(ctx.field(args[0]))


@cmd("msg_set_field", 2, 2, "msg_set_field name value",
     "modify header field ``name``")
def _msg_set_field(ctx, _i, args):
    ctx.set_field(args[0], _parse_scalar(args[1]))
    return ""


@cmd("msg_len", 0, 1, "msg_len ?cur_msg?", "length of the current message")
def _msg_len(ctx, _i, args):
    return str(len(ctx.msg))


@cmd("xDrop", 0, 1, "xDrop ?cur_msg?", "drop the message")
def _drop(ctx, _i, args):
    ctx.drop()
    return ""


@cmd("xDelay", 1, 2, "xDelay ?cur_msg? seconds", "delay the message")
def _delay(ctx, _i, args):
    numeric = [a for a in args if _is_number(a)]
    if not numeric:
        raise TclError("usage: xDelay ?cur_msg? seconds")
    ctx.delay(float(numeric[0]))
    return ""


@cmd("xDuplicate", 0, 2, "xDuplicate ?cur_msg? ?n?",
     "duplicate the message")
def _duplicate(ctx, _i, args):
    numeric = [a for a in args if _is_number(a)]
    copies = int(float(numeric[0])) if numeric else 1
    ctx.duplicate(copies)
    return ""


@cmd("xHold", 0, 2, "xHold ?cur_msg? ?tag?",
     "park the message for reordering")
def _hold(ctx, _i, args):
    tag = _tag_arg(args)
    ctx.hold(tag)
    return ""


@cmd("xRelease", 0, 2, "xRelease ?cur_msg? ?tag?",
     "re-emit parked messages")
def _release(ctx, _i, args):
    tag = _tag_arg(args)
    ctx.release(tag)
    return ""


@cmd("held_count", 0, 2, "held_count ?cur_msg? ?tag?",
     "number of messages parked under ``tag``")
def _held_count(ctx, _i, args):
    tag = _tag_arg(args)
    return str(ctx.held_count(tag))


@cmd("inject", 1, None, "inject type ?direction? ?field value ...?",
     "inject a generated message")
def _inject(ctx, _i, args):
    type_name = args[0]
    rest = args[1:]
    direction = None
    if rest and rest[0] in ("send", "receive"):
        direction = rest[0]
        rest = rest[1:]
    if len(rest) % 2 != 0:
        raise TclError("inject fields must come in name/value pairs")
    fields = {rest[i]: _parse_scalar(rest[i + 1])
              for i in range(0, len(rest), 2)}
    ctx.inject(type_name, direction=direction, **fields)
    return ""


@cmd("now", 0, 0, "now", "virtual time")
def _now(ctx, _i, args):
    return repr(ctx.now)


@cmd("peer_set", 2, 2, "peer_set key value",
     "set a variable in the other interpreter")
def _peer_set(ctx, _i, args):
    # write a variable into the *other* filter's state -- "the send
    # filter might set a variable in the receive interpreter"
    ctx.set_peer(args[0], _parse_scalar(args[1]))
    return ""


@cmd("peer_get", 1, 2, "peer_get key ?default?",
     "read a variable the peer filter deposited")
def _peer_get(ctx, _i, args):
    # read a variable the peer filter deposited for us (peer_set on
    # their side lands in OUR state)
    default = args[1] if len(args) > 1 else ""
    value = ctx.state.get(args[0], default)
    return _stringify(value)


@cmd("sync_set", 1, 2, "sync_set key ?value?", "set a cross-node flag")
def _sync_set(ctx, _i, args):
    value = _parse_scalar(args[1]) if len(args) > 1 else 1
    ctx.sync.set_flag(args[0], value)
    return ""


@cmd("sync_get", 1, 2, "sync_get key ?default?", "read a cross-node flag")
def _sync_get(ctx, _i, args):
    default = args[1] if len(args) > 1 else ""
    return _stringify(ctx.sync.get_flag(args[0], default))


@cmd("dst_normal", 2, 2, "dst_normal mean stddev",
     "normal draw (paper naming)")
def _dst_normal(ctx, _i, args):
    return repr(ctx.dist.dst_normal(float(args[0]), float(args[1])))


@cmd("dst_uniform", 2, 2, "dst_uniform low high", "uniform draw")
def _dst_uniform(ctx, _i, args):
    return repr(ctx.dist.dst_uniform(float(args[0]), float(args[1])))


@cmd("dst_exponential", 1, 1, "dst_exponential rate", "exponential draw")
def _dst_exponential(ctx, _i, args):
    return repr(ctx.dist.dst_exponential(float(args[0])))


@cmd("chance", 1, 1, "chance p", "1 with probability p else 0")
def _chance(ctx, _i, args):
    return "1" if ctx.dist.chance(float(args[0])) else "0"


@cmd("node_name", 0, 0, "node_name", "name of this node")
def _node_name(ctx, _i, args):
    return ctx.node


@cmd("direction", 0, 0, "direction", "'send' or 'receive'")
def _direction(ctx, _i, args):
    return ctx.direction


def _tag_arg(args) -> str:
    """Pull the hold-queue tag out of args, ignoring a cur_msg handle."""
    for arg in args:
        if arg != "cur_msg":
            return arg
    return "default"


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _parse_scalar(text: str):
    """Best-effort string -> int/float passthrough for field values."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _stringify(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if value is None:
        return ""
    return str(value)
