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
compile cache (:mod:`repro.core.tclish.compiler`) and executes the cached
command list, so a filter script re-run for every intercepted message is
lexed exactly once.  ``Interp(compiled=False)`` keeps the original
parse-per-eval path alive for equivalence testing and benchmarking.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.tclish import compiler, stdlib_loader
from repro.core.tclish.compiler import (
    LITERAL,
    SEG_TEXT,
    SEG_VAR,
    VARREF,
    CompiledCommand,
    CompiledScript,
)
from repro.core.tclish.errors import TclError, TclReturn
from repro.core.tclish.lexer import split_commands, split_words

CommandFn = Callable[["Interp", List[str]], str]

#: Deepest proc-in-proc nesting an interpreter allows.  A runaway
#: recursion (``proc f {} {f}``) must end as a ``TclError`` the harness
#: can report, not as Python's ``RecursionError`` from deep inside: one
#: proc level costs 5 Python frames bare and about 18 through an
#: ``if`` + ``expr`` + ``[f ...]`` body, so 40 levels stay well inside
#: the default 1000-frame stack wherever the filter is called from.
MAX_PROC_DEPTH = 40


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
        if len(interp._frames) >= MAX_PROC_DEPTH:
            raise TclError("too many nested evaluations (infinite loop?)")
        interp._frames.append(frame)
        try:
            return interp.eval(self.body)
        except TclReturn as ret:
            return ret.value
        finally:
            interp._frames.pop()


class Interp:
    """A tclish interpreter with persistent state."""

    def __init__(self, output: Optional[Callable[[str], None]] = None,
                 *, compiled: bool = True):
        self.globals: Dict[str, str] = {}
        self.procs: Dict[str, Proc] = {}
        self.commands: Dict[str, CommandFn] = {}
        self._frames: List[Dict[str, str]] = []
        self._global_links: List[set] = []
        self.output_lines: List[str] = []
        self._output = output
        #: when False, every eval re-lexes its source (the pre-compiler
        #: behaviour); kept for equivalence tests and benchmarks
        self.compiled = compiled
        #: number of eval() script evaluations on this interpreter
        self.eval_count = 0
        #: evals answered from the shared compile cache
        self.cache_hits = 0
        #: evals that had to compile their source first
        self.cache_misses = 0
        #: opt-in :class:`repro.obs.profiler.ScriptProfiler`; when set,
        #: the compiled executor records per-command wall time.  The
        #: disabled cost is one ``is not None`` test per command.
        self.profiler = None
        stdlib_loader.install(self)

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
        self._resolve_scope(name)[name] = text
        return text

    def get_var(self, name: str) -> str:
        """Read a variable, checking the current frame then globals."""
        scope = self._resolve_scope(name)
        if name in scope:
            return scope[name]
        if scope is not self.globals and name in self.globals:
            return self.globals[name]
        raise TclError(f'can\'t read "{name}": no such variable')

    def has_var(self, name: str) -> bool:
        """True if the variable is visible from the current scope."""
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
        callables registered on the interpreter.
        """
        self.commands[name] = fn

    def register_function(self, name: str, fn: Callable[..., Any]) -> None:
        """Install a plain Python function as a command.

        Arguments arrive as strings; the return value is stringified.
        """
        def wrapper(_interp: "Interp", args: List[str]) -> str:
            return _to_tcl_string(fn(*args))
        self.commands[name] = wrapper

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
        resolved through the shared compile cache (parse once, execute per
        call) unless the interpreter was built with ``compiled=False``.
        """
        self.eval_count += 1
        if type(script) is str:
            if not self.compiled:
                result = ""
                for command in split_commands(script):
                    result = self.eval_command(command)
                return result
            script, hit = compiler.lookup(script)
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
        result = ""
        for command in script.commands:
            result = self._exec_compiled(command)
        return result

    def compile(self, source: str) -> CompiledScript:
        """Compile (and cache) a script without evaluating it."""
        script, hit = compiler.lookup(source)
        if not hit:
            self.cache_misses += 1
        return script

    def stats(self) -> Dict[str, int]:
        """Observability counters for the execution engine."""
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

    def _exec_compiled(self, command: CompiledCommand) -> str:
        """Execute one compiled command: resolve words, then dispatch."""
        values: List[str] = []
        append = values.append
        get_var = self.get_var
        for word in command.words:
            kind = word.kind
            if kind == LITERAL:
                append(word.text)
            elif kind == VARREF:
                append(get_var(word.text))
            else:
                append(self._run_segments(word.segments))
        profiler = self.profiler
        if profiler is not None:
            start = perf_counter()
            result = self.call(values[0], values[1:])
            profiler.record_command(values[0], perf_counter() - start)
            return result
        return self.call(values[0], values[1:])

    def _run_segments(self, segments) -> str:
        """Resolve a pre-tokenised substitution program."""
        parts: List[str] = []
        for code, payload in segments:
            if code == SEG_TEXT:
                parts.append(payload)
            elif code == SEG_VAR:
                parts.append(self.get_var(payload))
            else:
                parts.append(self.eval(payload))
        return "".join(parts)

    def eval_command(self, command: str) -> str:
        """Evaluate a single command string (parse-per-call path)."""
        raw_words = split_words(command)
        if not raw_words:
            return ""
        words = [self.substitute_word(w) for w in raw_words]
        return self.call(words[0], words[1:])

    def call(self, name: str, args: List[str]) -> str:
        """Invoke a proc or registered command by name.

        Unknown names always surface as ``TclError("invalid command name
        ...")`` -- never a bare ``KeyError`` -- and a ``KeyError`` escaping
        a command implementation (e.g. a registered Python function doing
        a dict lookup) is normalized to :class:`TclError` too, so ``catch``
        works and the static analyzer
        (:mod:`repro.core.tclish.lint`) and the runtime agree on one
        error surface.
        """
        proc = self.procs.get(name)
        if proc is not None:
            return proc(self, args)
        command = self.commands.get(name)
        if command is None:
            raise TclError(f'invalid command name "{name}"')
        try:
            result = command(self, args)
        except KeyError as err:
            raise TclError(f'error in command "{name}": '
                           f"no such key {err}") from err
        return result if isinstance(result, str) else _to_tcl_string(result)

    # ------------------------------------------------------------------
    # substitution
    # ------------------------------------------------------------------

    def substitute_word(self, word: str) -> str:
        """Apply Tcl substitution rules to one raw word."""
        if len(word) >= 2 and word[0] == "{" and word[-1] == "}":
            return word[1:-1]
        if len(word) >= 2 and word[0] == '"' and word[-1] == '"':
            return self.substitute(word[1:-1])
        return self.substitute(word)

    def substitute(self, text: str) -> str:
        """Backslash, variable, and command substitution over a string."""
        if "$" not in text and "[" not in text and "\\" not in text:
            return text
        if self.compiled:
            # stable strings (if/while conditions, expr bodies) tokenise
            # once and replay as segments on every later call
            return self._run_segments(compiler.lookup_substitution(text))
        out: List[str] = []
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch == "\\" and i + 1 < n:
                out.append(_backslash(text[i + 1]))
                i += 2
            elif ch == "$":
                name, i = _scan_varname(text, i)
                if name is None:
                    out.append("$")
                else:
                    out.append(self.get_var(name))
            elif ch == "[":
                depth = 0
                j = i
                while j < n:
                    if text[j] == "\\" and j + 1 < n:
                        j += 2
                        continue
                    if text[j] == "[":
                        depth += 1
                    elif text[j] == "]":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
                if depth != 0:
                    raise TclError("unmatched open bracket in substitution")
                out.append(self.eval(text[i + 1:j]))
                i = j + 1
            else:
                out.append(ch)
                i += 1
        return "".join(out)


def _scan_varname(text: str, i: int):
    """Parse ``$name`` or ``${name}`` starting at index i (the '$')."""
    n = len(text)
    if i + 1 >= n:
        return None, i + 1
    if text[i + 1] == "{":
        j = text.find("}", i + 2)
        if j < 0:
            raise TclError("unmatched ${")
        return text[i + 2:j], j + 1
    j = i + 1
    while j < n and (text[j].isalnum() or text[j] == "_"):
        j += 1
    if j == i + 1:
        return None, i + 1
    return text[i + 1:j], j


_BACKSLASH_MAP = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", '"': '"',
                  "$": "$", "[": "[", "]": "]", "{": "{", "}": "}",
                  ";": ";", " ": " ", "\n": ""}


def _backslash(ch: str) -> str:
    return _BACKSLASH_MAP.get(ch, ch)


def _to_tcl_string(value: Any) -> str:
    """Convert a Python value to its Tcl string form."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e16:
            return f"{value:.1f}"
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(_to_tcl_string(item) for item in value)
    return str(value)
