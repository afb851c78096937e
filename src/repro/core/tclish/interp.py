"""The tclish interpreter object.

An :class:`Interp` owns a global variable table, a proc table, and a command
registry.  Evaluating a script mutates interpreter state, which is exactly
the persistence property the paper's filter scripts rely on: a receive
filter can count messages across invocations because the count lives in the
interpreter, not the script.

Substitution rules follow Tcl: a braced word is passed verbatim; quoted and
bare words undergo backslash, variable (``$name``/``${name}``) and command
(``[script]``) substitution.

Evaluation is compile-once: ``eval`` looks the source up in the shared
compile cache (:mod:`repro.core.tclish.compiler`) and runs the compiled
script's closure, so a filter script re-run for every intercepted
message is lexed, analysed and bound exactly once.  :meth:`Interp.call`
is the one dispatch every compiled command goes through.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.tclish import compiler, stdlib_loader
from repro.core.tclish import expr as _expr
from repro.core.tclish.compiler import CompiledScript
# one eval-depth cap for every compiled level, documented as interp's
from repro.core.tclish.compiler import MAX_EVAL_DEPTH  # noqa: F401
from repro.core.tclish.errors import (
    HOST_ERRORS,
    TclError,
    TclReturn,
    host_error,
)
from repro.core.tclish.stdlib_loader import CommandSignature

CommandFn = Callable[["Interp", List[str]], str]

#: Loop iterations (``while``, ``for`` and ``foreach`` bodies, all
#: loops together) one top-level :meth:`Interp.eval` may run.  One
#: budget, not one per loop, so nested loops cannot multiply it: a
#: runaway ``while 1 { catch { while 1 {} } }`` ends as a ``TclError``
#: after this many iterations in total.
MAX_LOOP_ITERATIONS = 1_000_000


class Proc:
    """A user-defined procedure created by the ``proc`` command."""

    def __init__(self, name: str, params: List[List[str]], body: str):
        self.name = name
        self.params = params  # each entry: [name] or [name, default]
        self.body = body

    def __call__(self, interp: "Interp", args: List[str]) -> str:
        frame: Dict[str, str] = {}
        params = list(self.params)
        collects_args = bool(params) and params[-1][0] == "args"
        fixed = params[:-1] if collects_args else params
        if len(args) > len(fixed) and not collects_args:
            raise TclError(f'too many args to proc "{self.name}"')
        for i, param in enumerate(fixed):
            if i < len(args):
                frame[param[0]] = args[i]
            elif len(param) > 1:
                frame[param[0]] = param[1]
            else:
                raise TclError(
                    f'missing argument "{param[0]}" to proc "{self.name}"')
        if collects_args:
            extra = args[len(fixed):]
            frame["args"] = " ".join(extra)
        interp._frames.append(frame)
        try:
            return interp.eval(self.body)
        except TclReturn as ret:
            return ret.value
        finally:
            interp._frames.pop()


class Interp:
    """A tclish interpreter with persistent state."""

    def __init__(self, output: Optional[Callable[[str], None]] = None):
        self.globals: Dict[str, str] = {}
        self.procs: Dict[str, Proc] = {}
        #: name -> declaration; the stdlib's are shared, never copied
        self.commands: Dict[str, CommandSignature] = dict(
            stdlib_loader.STDLIB)
        #: what the embedding host hands its commands: the PFI layer puts
        #: the :class:`~repro.core.context.ScriptContext` of the message
        #: being filtered here for the length of one script run
        self.context: Any = None
        self._frames: List[Dict[str, str]] = []
        self._global_links: List[set] = []
        self.output_lines: List[str] = []
        self._output = output
        #: script evaluations currently on the stack (see MAX_EVAL_DEPTH)
        self._depth = 0
        #: loop iterations since the current top-level eval() began
        #: (see MAX_LOOP_ITERATIONS)
        self._iterations = 0
        #: script evaluations run on this interpreter: every eval(), and
        #: every proc body, control-flow body and ``[...]`` it ran
        self.eval_count = 0
        #: sources this interpreter compiled because the shared cache did
        #: not hold them (an eval(), a compile(), or the first run of a
        #: nested body)
        self.cache_misses = 0
        #: opt-in :class:`repro.obs.profiler.ScriptProfiler`; when set,
        #: every command records its wall time.  The disabled cost is one
        #: ``is None`` test per command.
        self.profiler = None

    @property
    def cache_hits(self) -> int:
        """Evaluations that ran an already-compiled script."""
        return max(self.eval_count - self.cache_misses, 0)

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------

    def _current_scope(self) -> Dict[str, str]:
        return self._frames[-1] if self._frames else self.globals

    def _resolve_scope(self, name: str) -> Dict[str, str]:
        if self._frames and name in self._linked_globals():
            return self.globals
        return self._current_scope()

    def _linked_globals(self) -> set:
        return self._global_links[-1] if self._global_links else set()

    def link_global(self, name: str) -> None:
        """Make ``name`` refer to the global variable inside the current proc."""
        if not self._frames:
            return
        while len(self._global_links) < len(self._frames):
            self._global_links.append(set())
        self._global_links[len(self._frames) - 1].add(name)

    def set_var(self, name: str, value: Any) -> str:
        """Set a variable in the current scope; returns the string value."""
        text = value if isinstance(value, str) else _to_tcl_string(value)
        if self._frames:
            self._resolve_scope(name)[name] = text
        else:
            self.globals[name] = text
        return text

    def get_var(self, name: str) -> str:
        """Read a variable, checking the current frame then globals."""
        if not self._frames:  # a filter script's own level: globals only
            try:
                return self.globals[name]
            except KeyError:
                raise TclError(
                    f'can\'t read "{name}": no such variable') from None
        scope = self._resolve_scope(name)
        if name in scope:
            return scope[name]
        if scope is not self.globals and name in self.globals:
            return self.globals[name]
        raise TclError(f'can\'t read "{name}": no such variable')

    def has_var(self, name: str) -> bool:
        """True if the variable is visible from the current scope."""
        if not self._frames:
            return name in self.globals
        scope = self._resolve_scope(name)
        return name in scope or name in self.globals

    def unset_var(self, name: str) -> None:
        """Remove a variable from whichever scope holds it."""
        scope = self._resolve_scope(name)
        if name in scope:
            del scope[name]
        elif name in self.globals:
            del self.globals[name]
        else:
            raise TclError(f'can\'t unset "{name}": no such variable')

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------

    def register_command(self, name: str, fn: CommandFn) -> None:
        """Install a command implemented in Python.

        This is the bridge the paper describes: "user defined procedures ...
        written in C and linked into the tool" -- here they are Python
        callables registered on the interpreter.  A command declared with
        arity bounds is registered by putting its
        :class:`~repro.core.tclish.stdlib_loader.CommandSignature` in
        :attr:`commands`.
        """
        self.commands[name] = CommandSignature(name, usage=name, fn=fn)

    def register_function(self, name: str, fn: Callable[..., Any]) -> None:
        """Install a plain Python function as a command.

        Arguments arrive as strings; the return value is stringified.
        """
        def wrapper(_interp: "Interp", args: List[str]) -> str:
            return _to_tcl_string(fn(*args))
        self.register_command(name, wrapper)

    def write(self, text: str) -> None:
        """Emit one line of script output (``puts``)."""
        self.output_lines.append(text)
        if self._output is not None:
            self._output(text)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def eval(self, script: Union[str, CompiledScript]) -> str:
        """Evaluate a script; the result is the last command's result.

        Accepts source text or an already-compiled script.  Source text is
        resolved through the shared compile cache (parse once, run the
        compiled closure per call).  Nesting deeper than
        :data:`MAX_EVAL_DEPTH` raises :class:`TclError`; a top-level call
        starts a fresh :data:`MAX_LOOP_ITERATIONS` budget.
        """
        if type(script) is str:
            script, hit = compiler.lookup(script)
            if not hit:
                self.cache_misses += 1
        return script.run(self)

    def count_iteration(self) -> None:
        """Charge one loop iteration to this evaluation's budget."""
        self._iterations += 1
        if self._iterations > MAX_LOOP_ITERATIONS:
            raise TclError("too many loop iterations (infinite loop?)")

    def compile(self, source: str) -> CompiledScript:
        """Compile (and cache) a script without evaluating it."""
        script, hit = compiler.lookup(source)
        if not hit:
            self.cache_misses += 1
        return script

    def stats(self) -> Dict[str, int]:
        """Observability counters for the execution engine.

        ``eval_count`` counts script evaluations (each :meth:`eval`, proc
        body, control-flow body and ``[...]``: one per
        :data:`MAX_EVAL_DEPTH` level entered), ``cache_misses`` the
        sources this interpreter had to compile, ``cache_hits`` the
        evaluations that ran an already-compiled script, and
        ``cache_size`` the scripts in the process-wide compile cache.
        """
        return {
            "eval_count": self.eval_count,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_size": compiler.cache_size(),
        }

    def fill_metrics(self, registry, **labels: Any) -> None:
        """Absorb the engine counters into a metrics registry.

        The registry form (see :mod:`repro.obs.metrics`) supersedes the
        bare :meth:`stats` dict when snapshotting a whole run: labelled
        gauges merge cleanly across filters and campaign workers.
        """
        for name, value in self.stats().items():
            registry.gauge(f"tclish_{name}", **labels).set(value)

    def call(self, name: str, args: List[str]) -> str:
        """Invoke a proc or registered command by name.

        This is the one place a command's argument count is checked: a
        call outside the declared bounds is ``wrong # args: should be
        "<usage>"`` before the implementation runs, for
        stdlib and PFI commands alike, and scriptlint's SL002 reads the
        same declaration.  Unknown names always surface as
        ``TclError("invalid command name ...")``, and a
        :data:`~repro.core.tclish.errors.HOST_ERRORS` exception escaping
        an implementation (a missing ``string index`` argument, ``incr v
        abc``, ``expr {exp(1000)}``) is normalized to :class:`TclError`
        too, so ``catch`` works and a script fault is never a Python
        traceback.  Compiled commands call it; a control command whose
        arguments are literal runs its compiled form directly only after
        the same name resolution finds the stdlib declaration.
        """
        proc = self.procs.get(name)
        if proc is not None:
            return proc(self, args)
        command = self.commands.get(name)
        if command is None:
            raise TclError(f'invalid command name "{name}"')
        if len(args) not in command.arity:
            raise TclError(f'wrong # args: should be "{command.usage}"')
        try:
            result = command.fn(self, args)
        except HOST_ERRORS as err:
            raise host_error(name, err) from err
        return result if isinstance(result, str) else _to_tcl_string(result)


def _to_tcl_string(value: Any) -> str:
    """Convert a Python value to its Tcl string form."""
    if value is None:
        return ""
    if isinstance(value, (bool, float)):
        return _expr.format_value(value)
    if isinstance(value, (list, tuple)):
        return " ".join(_to_tcl_string(item) for item in value)
    return str(value)
