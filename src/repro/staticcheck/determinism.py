"""Pass 2: the Python-AST determinism / checkpoint-safety linter.

The checkpoint engine (:mod:`repro.core.checkpoint`) depends on one rule
-- the scheduler heap may hold bound methods and callable-class
instances, never closures or functions with world-smuggling defaults --
which :func:`audit_pending` checks on the live heap, but only at
:meth:`Checkpoint.capture` time, after a potentially long warm-up.  This
pass finds the same hazards in the source, before anything runs, plus
nondeterminism no heap audit can see at all:

========  ========================================================
SC101     a closure or lambda is scheduled as a callback
SC102     world state smuggled through a callback default argument
SC103     wall-clock time (``time.time`` etc.) in simulation code
SC104     module-level ``random.*`` outside a seeded stream
SC105     iteration over an unordered set feeds trace records
SC106     ``id()`` used in a hash or fingerprint
SC107     write to a header or payload obtained through a read-only accessor
========  ========================================================

Three entry points:

- :func:`check_source` / :func:`check_file` lint Python source and are
  what ``repro check`` runs over ``src/repro/experiments``, ``gmp`` and
  ``tcp`` (and, for SC107 alone, over the rest of ``src/repro``);
- :func:`precheck_body` lints just the functions reachable from one
  campaign body, for :class:`~repro.core.orchestrator.Campaign` /
  ``run_fuzz`` / ``repro explore`` pre-flight;
- :func:`audit_pending` is the capture-time audit: it inspects the
  *live* scheduler heap and reports findings as :class:`Diagnostic`
  objects pinned to the offending function's source.
"""

from __future__ import annotations

import ast
import builtins
import functools
import inspect
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.tclish.lint.diagnostics import Diagnostic, LintReport, make

#: schedule-like APIs -> positional index of the callback argument.
#: ``Scheduler.schedule(delay, cb)``, ``schedule_at(time, cb)``,
#: ``TimerSet.register(kind, key, delay, cb)``, ``Timer(scheduler, cb)``.
_SCHEDULE_APIS: Dict[str, int] = {
    "schedule": 1,
    "schedule_at": 1,
    "register": 3,
    "Timer": 1,
}

#: default-argument types a scheduled plain function may carry without
#: smuggling world state past a checkpoint copy
_ATOMIC_DEFAULTS = (int, float, str, bytes, bool, frozenset, type(None))

#: wall-clock calls per module: module name -> forbidden attributes
_WALL_CLOCK = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns",
             "perf_counter", "perf_counter_ns", "localtime", "gmtime"},
    "datetime": {"now", "utcnow", "today"},
}

#: ``random`` module attributes that are fine to touch statically --
#: constructing a seeded instance is the sanctioned escape hatch
_RANDOM_OK = {"Random", "SystemRandom", "seed", "getstate", "setstate"}

#: function-name fragments that mark an identity/fingerprint context
#: for SC106
_FINGERPRINT_NAMES = ("fingerprint", "identity", "digest", "__hash__")

#: ``Message`` accessors whose result may be aliased with the message's
#: copy-on-write siblings and is therefore read-only (SC107)
_READONLY_HEADER_CALLS = ("pop_header", "pop_header_of", "find_header")
_READONLY_HEADER_ATTR = "top_header"
_READONLY_HEADER_ITER = "iter_headers"
#: ``<expr>.payload`` is read-only the same way: ``Message.copy`` aliases
#: a ``clone()``-protocol payload.  Only the attribute path is matched,
#: never a local that happens to be called ``payload``.
_READONLY_PAYLOAD_ATTR = "payload"
_HEADER_VIA_ACCESSOR = "a header obtained through a read-only Message accessor"

_BUILTIN_NAMES = frozenset(dir(builtins))


def _is_atomic_default(node: ast.expr) -> bool:
    """Would this default-argument expression survive a world deepcopy?"""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, _ATOMIC_DEFAULTS)
    if isinstance(node, ast.UnaryOp) and isinstance(node.operand,
                                                    ast.Constant):
        return isinstance(node.operand.value, _ATOMIC_DEFAULTS)
    return False


def _local_bindings(fn: ast.AST) -> Set[str]:
    """Names bound inside ``fn`` (params, assignments, for/with targets)."""
    bound: Set[str] = set()
    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = fn.args
        for arg in (a.posonlyargs + a.args + a.kwonlyargs):
            bound.add(arg.arg)
        if a.vararg:
            bound.add(a.vararg.arg)
        if a.kwarg:
            bound.add(a.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)) and node is not fn:
            bound.add(node.name)
        elif isinstance(node, ast.comprehension):
            for name in ast.walk(node.target):
                if isinstance(name, ast.Name):
                    bound.add(name.id)
    return bound


def _free_names(fn: ast.AST, module_names: Set[str]) -> Set[str]:
    """Names ``fn`` loads that resolve neither locally nor at module level.

    A nested function with free names is a closure: deepcopy treats
    functions as atomic, so its cells would keep pointing into the
    original world after a fork.
    """
    bound = _local_bindings(fn)
    free: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
            if (name not in bound and name not in module_names
                    and name not in _BUILTIN_NAMES):
                free.add(name)
    return free


class _Scope:
    """One function scope during the walk."""

    def __init__(self, node: Optional[ast.AST], toplevel: str):
        self.node = node
        #: name of the enclosing top-level function ("" at module level)
        self.toplevel = toplevel
        #: nested function definitions by name
        self.local_funcs: Dict[str, ast.AST] = {}
        #: names known to be bound to sets in this scope
        self.set_names: Set[str] = set()
        #: names bound from a read-only header accessor in this scope
        self.header_names: Set[str] = set()


class _DeterminismVisitor(ast.NodeVisitor):
    """Single-pass walker producing SC1xx diagnostics.

    Each diagnostic is tagged with the name of the enclosing top-level
    function so :func:`precheck_body` can filter to one body's reachable
    call graph.
    """

    def __init__(self, tree: ast.Module):
        self.findings: List[Tuple[str, Diagnostic]] = []
        self.module_names: Set[str] = set()
        #: alias -> module ("time", "datetime", "random")
        self.module_aliases: Dict[str, str] = {}
        #: bare name -> "module.attr" (from-imports of forbidden calls)
        self.from_imports: Dict[str, str] = {}
        #: top-level function name -> names of same-module functions
        #: it calls (for precheck reachability)
        self.calls: Dict[str, Set[str]] = {}
        #: module-level function defs (for SC102 on module callbacks)
        self.module_funcs: Dict[str, ast.AST] = {}
        #: attribute names assigned a set in any ``self.X = set()``
        self.set_attrs: Set[str] = set()
        self._scopes: List[_Scope] = [_Scope(None, "")]
        self._prescan(tree)

    # -- pre-scan: module-level names, imports, set-typed attributes ----

    def _prescan(self, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.module_names.add(node.name)
                self.module_funcs[node.name] = node
            elif isinstance(node, ast.ClassDef):
                self.module_names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            self.module_names.add(name.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name):
                self.module_names.add(node.target.id)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    asname = alias.asname or alias.name.split(".")[0]
                    self.module_names.add(asname)
                    if alias.name in ("time", "datetime", "random"):
                        self.module_aliases[asname] = alias.name
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    asname = alias.asname or alias.name
                    self.module_names.add(asname)
                    module = node.module or ""
                    if (module in _WALL_CLOCK
                            and alias.name in _WALL_CLOCK[module]):
                        self.from_imports[asname] = f"{module}.{alias.name}"
                    elif module == "random" and alias.name not in _RANDOM_OK:
                        self.from_imports[asname] = f"random.{alias.name}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Attribute)
                    and _is_set_expr(node.value)):
                self.set_attrs.add(node.targets[0].attr)
            elif (isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Attribute)
                  and _annotation_is_set(node.annotation)):
                self.set_attrs.add(node.target.attr)

    # -- scope plumbing -------------------------------------------------

    @property
    def _scope(self) -> _Scope:
        return self._scopes[-1]

    def _report(self, code: str, node: ast.AST, message: str,
                hint: str = "") -> None:
        diag = make(code, getattr(node, "lineno", 1),
                    getattr(node, "col_offset", 0) + 1, message, hint)
        self.findings.append((self._scope.toplevel, diag))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    def _enter_function(self, node: ast.AST) -> None:
        parent = self._scope
        if parent.node is not None:
            parent.local_funcs[node.name] = node
        toplevel = parent.toplevel or node.name
        scope = _Scope(node, toplevel)
        self._scopes.append(scope)
        self.calls.setdefault(toplevel, set())
        if _name_suggests_fingerprint(node.name):
            self._flag_id_calls_in(node)
        self.generic_visit(node)
        self._scopes.pop()

    # -- assignments: track set-typed locals ---------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if (len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
                and self._scope.node is not None):
            if _is_set_expr(node.value):
                self._scope.set_names.add(node.targets[0].id)
            else:
                self._scope.set_names.discard(node.targets[0].id)
        for target in node.targets:
            self._check_header_write(target)
            if isinstance(target, ast.Name):
                if _is_readonly_header_expr(node.value):
                    self._scope.header_names.add(target.id)
                else:
                    self._scope.header_names.discard(target.id)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_header_write(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_header_write(node.target)
        self.generic_visit(node)

    # -- the checks -----------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._record_callgraph_edge(node)
        self._check_schedule(node)
        self._check_wall_clock(node)
        self._check_random(node)
        self._check_id_in_hash(node)
        self._check_header_setattr(node)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node)
        if _iterates_headers(node.iter):
            self._scope.header_names.update(
                name.id for name in ast.walk(node.target)
                if isinstance(name, ast.Name))
        self.generic_visit(node)

    def _record_callgraph_edge(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Name) and self._scope.toplevel
                and node.func.id in self.module_names):
            self.calls[self._scope.toplevel].add(node.func.id)

    def _callback_args(self, node: ast.Call) -> List[ast.expr]:
        """The callback expressions of a schedule-like call, if any."""
        if isinstance(node.func, ast.Attribute):
            name = node.func.attr
        elif isinstance(node.func, ast.Name):
            name = node.func.id
        else:
            return []
        index = _SCHEDULE_APIS.get(name)
        if index is None:
            return []
        out = []
        if len(node.args) > index:
            out.append(node.args[index])
        for keyword in node.keywords:
            if keyword.arg == "callback":
                out.append(keyword.value)
        return out

    def _check_schedule(self, node: ast.Call) -> None:
        for arg in self._callback_args(node):
            if isinstance(arg, ast.Lambda):
                self._report(
                    "SC101", arg,
                    "lambda scheduled as a callback; it would not "
                    "survive a checkpoint fork",
                    hint="schedule a bound method or a callable class")
                continue
            if not isinstance(arg, ast.Name):
                continue  # attributes are bound methods / instances
            target = None
            for scope in reversed(self._scopes):
                if arg.id in scope.local_funcs:
                    target = scope.local_funcs[arg.id]
                    break
            if target is not None:
                free = _free_names(target, self.module_names)
                if free:
                    self._report(
                        "SC101", arg,
                        f"closure {arg.id!r} scheduled as a callback "
                        f"(captures {', '.join(sorted(free))}); it would "
                        f"keep referencing the original world after a "
                        f"checkpoint fork",
                        hint="use a bound method or a callable class")
                    continue
            else:
                target = self.module_funcs.get(arg.id)
            if target is not None:
                self._check_defaults(arg, target)

    def _check_defaults(self, site: ast.AST, fn: ast.AST) -> None:
        defaults = list(fn.args.defaults) + [
            d for d in fn.args.kw_defaults if d is not None]
        for default in defaults:
            if not _is_atomic_default(default):
                self._report(
                    "SC102", site,
                    f"scheduled function {fn.name!r} smuggles world "
                    f"state through a default argument "
                    f"(line {default.lineno})",
                    hint="pass the value via scheduler args instead")
                return

    def _check_wall_clock(self, node: ast.Call) -> None:
        qualified = self._qualified_call(node)
        if qualified is None:
            return
        module, attr = qualified
        if module in _WALL_CLOCK and attr in _WALL_CLOCK[module]:
            self._report(
                "SC103", node,
                f"wall-clock call {module}.{attr}() in simulation code",
                hint="use the scheduler's virtual clock "
                     "(env.scheduler.now)")

    def _check_random(self, node: ast.Call) -> None:
        qualified = self._qualified_call(node)
        if qualified is None:
            return
        module, attr = qualified
        if module == "random" and attr not in _RANDOM_OK:
            self._report(
                "SC104", node,
                f"module-level random.{attr}() draws from the shared "
                f"unseeded RNG",
                hint="draw from a seeded stream (env.dist(...) / "
                     "DistributionSet)")

    def _qualified_call(self, node: ast.Call) -> Optional[Tuple[str, str]]:
        """Resolve a call target to ``(module, attr)`` via the imports."""
        func = node.func
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name):
                module = self.module_aliases.get(value.id)
                if module is not None:
                    return module, func.attr
            # datetime.datetime.now()
            if (isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and self.module_aliases.get(value.value.id)
                    == "datetime"):
                return "datetime", func.attr
        elif isinstance(func, ast.Name):
            dotted = self.from_imports.get(func.id)
            if dotted is not None:
                module, attr = dotted.split(".", 1)
                return module, attr
        return None

    def _check_set_iteration(self, node: ast.For) -> None:
        if not _feeds_trace(node.body):
            return
        reason = self._set_iterable_reason(node.iter)
        if reason is not None:
            self._report(
                "SC105", node.iter,
                f"iteration over {reason} feeds trace records; set "
                f"order is arbitrary across processes",
                hint="iterate sorted(...) to keep traces byte-identical")

    def _set_iterable_reason(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set literal"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")):
            return f"{node.func.id}(...)"
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
            return (self._set_iterable_reason(node.left)
                    or self._set_iterable_reason(node.right))
        if isinstance(node, ast.Name):
            for scope in reversed(self._scopes):
                if node.id in scope.set_names:
                    return f"the set {node.id!r}"
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.set_attrs):
            return f"the set field self.{node.attr}"
        return None

    def _check_id_in_hash(self, node: ast.Call) -> None:
        consumer = None
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            consumer = "hash()"
        elif (isinstance(node.func, ast.Attribute)
              and node.func.attr == "update"):
            consumer = "a digest update"
        if consumer is None:
            return
        for arg in ast.walk(node):
            if (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
                    and arg.func.id == "id" and arg is not node):
                self._report(
                    "SC106", arg,
                    f"id() feeds {consumer}; object addresses differ "
                    f"across runs and forks",
                    hint="hash stable identifiers (names, seeds, "
                         "positions) instead")

    def _readonly_header(self, node: ast.expr) -> Optional[str]:
        """Describe ``node`` if it denotes a read-only header or payload,
        else None."""
        if isinstance(node, ast.Name):
            if any(node.id in scope.header_names for scope in self._scopes):
                return f"{node.id!r}, {_HEADER_VIA_ACCESSOR}"
            return None
        if _is_readonly_header_expr(node):
            return f"the accessor's result, {_HEADER_VIA_ACCESSOR}"
        if (isinstance(node, ast.Attribute)
                and node.attr == _READONLY_PAYLOAD_ATTR):
            return "a message payload, which Message.copy() does not duplicate"
        return None

    def _check_header_write(self, target: ast.expr) -> None:
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        what = self._readonly_header(target.value)
        if what is not None:
            self._report_header_write(target, what)

    def _check_header_setattr(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Name) and node.func.id == "setattr"
                and node.args):
            what = self._readonly_header(node.args[0])
            if what is not None:
                self._report_header_write(node, what)

    def _report_header_write(self, node: ast.AST, what: str) -> None:
        self._report(
            "SC107", node,
            f"write to {what}; the object may be aliased with the "
            f"message's copies",
            hint="build a new header, or write through "
                 "PacketStubs.set_field / Message.writable_header / "
                 "Message.writable_payload")

    def _flag_id_calls_in(self, fn: ast.AST) -> None:
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "id"):
                self._report(
                    "SC106", node,
                    f"id() inside {fn.name!r}; object addresses are not "
                    f"a stable identity",
                    hint="derive identities from names, seeds or trace "
                         "positions")


def _is_readonly_header_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in _READONLY_HEADER_CALLS
    return (isinstance(node, ast.Attribute)
            and node.attr == _READONLY_HEADER_ATTR)


def _iterates_headers(node: ast.expr) -> bool:
    """Is this ``for`` iterable built on ``.iter_headers()``?"""
    return any(isinstance(sub, ast.Call)
               and isinstance(sub.func, ast.Attribute)
               and sub.func.attr == _READONLY_HEADER_ITER
               for sub in ast.walk(node))


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


def _annotation_is_set(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset", "Set", "FrozenSet",
                           "MutableSet")
    if isinstance(node, ast.Subscript):
        return _annotation_is_set(node.value)
    if isinstance(node, ast.Attribute):
        return node.attr in ("Set", "FrozenSet", "MutableSet")
    return False


def _feeds_trace(body: Sequence[ast.stmt]) -> bool:
    """Does this loop body (transitively) emit trace records?"""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in ("record", "_record")):
                    return True
    return False


def _name_suggests_fingerprint(name: str) -> bool:
    lowered = name.lower()
    return any(part in lowered for part in _FINGERPRINT_NAMES)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def check_source(source: str, source_name: str = "<module>", *,
                 codes: Optional[Sequence[str]] = None) -> LintReport:
    """Lint Python source for SC1xx hazards (``codes``: only these)."""
    report = LintReport(source_name=source_name)
    try:
        tree = ast.parse(source, filename=source_name)
    except SyntaxError as err:
        report.add(make("SL000", err.lineno or 1, (err.offset or 0) + 1,
                        f"Python syntax error: {err.msg}"))
        return report
    visitor = _DeterminismVisitor(tree)
    visitor.visit(tree)
    report.extend(diag for _fn, diag in visitor.findings
                  if codes is None or diag.code in codes)
    return report


def check_file(path: str, *,
               codes: Optional[Sequence[str]] = None) -> LintReport:
    """Lint one Python file for SC1xx hazards (``codes``: only these)."""
    with open(path, encoding="utf-8") as fp:
        return check_source(fp.read(), source_name=path, codes=codes)


#: path -> ((mtime_ns, size), (tagged findings, callgraph)): one entry
#: per module, so a body whose parts live in two modules (the explorer's
#: schedule body: the fuzz prefix, its own continuation) parses each once
_PRECHECK_CACHE: Dict[str, Tuple[Tuple[int, int],
                                 Tuple[List[Tuple[str, Diagnostic]],
                                       Dict[str, Set[str]]]]] = {}


def _module_findings(path: str) -> Tuple[List[Tuple[str, Diagnostic]],
                                         Dict[str, Set[str]]]:
    import os
    stat = os.stat(path)
    stamp = (stat.st_mtime_ns, stat.st_size)
    cached = _PRECHECK_CACHE.get(path)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    with open(path, encoding="utf-8") as fp:
        tree = ast.parse(fp.read(), filename=path)
    visitor = _DeterminismVisitor(tree)
    visitor.visit(tree)
    _PRECHECK_CACHE[path] = (stamp, (visitor.findings, visitor.calls))
    return _PRECHECK_CACHE[path][1]


def precheck_body(fn: Callable[..., Any]) -> LintReport:
    """Statically vet one campaign/fuzz body before any worker runs.

    Analyzes the module defining ``fn`` but reports only findings inside
    the functions reachable from ``fn`` through same-module calls, so a
    driver using ``perf_counter`` next door does not block the body it
    drives.  Best-effort: bodies without retrievable source (lambdas,
    REPL definitions, callable instances) produce an empty report.
    """
    target = fn
    if isinstance(target, functools.partial):
        target = target.func
    name = getattr(target, "__name__", "")
    report = LintReport(source_name=f"body:{name or target!r}")
    try:
        path = inspect.getsourcefile(target)
    except TypeError:
        return report
    if path is None or "." in getattr(target, "__qualname__", "."):
        return report  # nested/bound bodies: runtime audit still applies
    try:
        findings, calls = _module_findings(path)
    except (OSError, SyntaxError):
        return report
    reachable = {name}
    frontier = [name]
    while frontier:
        current = frontier.pop()
        for callee in calls.get(current, ()):
            if callee not in reachable:
                reachable.add(callee)
                frontier.append(callee)
    report.source_name = f"{path} (body {name})"
    report.extend(diag for fn_name, diag in findings
                  if fn_name in reachable)
    return report


def audit_pending(scheduler: Any) -> List[Tuple[str, Diagnostic]]:
    """Vet the live scheduler heap's pending callbacks for a world copy.

    Run by :meth:`Checkpoint.capture`, which refuses to snapshot a world
    this reports on: bound methods and callable instances are rebuilt
    around the copy, but a plain function is atomic to it, so a lambda,
    a closure (SC101) or a non-atomic default (SC102) would keep
    pointing into the original world; a callback that is not callable
    at all is SC101 too.  Each finding is pinned to the offending
    function's definition (``file:line``), which is where the fix goes.
    Returns ``(path, diagnostic)`` pairs; an empty list means the heap
    forks soundly.
    """
    findings: List[Tuple[str, Diagnostic]] = []
    for event in scheduler.pending_events():
        fn = event.callback
        while isinstance(fn, functools.partial):
            fn = fn.func
        path, line = _definition_site(fn)
        where = f"event@t={event.time:.6f}"
        if not callable(fn):
            findings.append((path, make(
                "SC101", line, 1, f"{where}: {fn!r} is not callable",
                hint="schedule a bound method or a callable class")))
            continue
        if not inspect.isfunction(fn):
            continue  # bound methods / callable instances: memo-safe
        if fn.__name__ == "<lambda>":
            findings.append((path, make(
                "SC101", line, 1,
                f"{where}: lambda {fn.__qualname__} on the scheduler "
                f"heap; it cannot survive a checkpoint fork",
                hint="schedule a bound method or a callable class")))
            continue
        if fn.__closure__:
            cells = ", ".join(fn.__code__.co_freevars) or "?"
            findings.append((path, make(
                "SC101", line, 1,
                f"{where}: closure {fn.__qualname__} (captures {cells}) "
                f"would keep referencing the original world after a "
                f"fork",
                hint="use a bound method or a callable class")))
            continue
        for default in (fn.__defaults__ or ()):
            if not isinstance(default, _ATOMIC_DEFAULTS):
                findings.append((path, make(
                    "SC102", line, 1,
                    f"{where}: function {fn.__qualname__} smuggles a "
                    f"{type(default).__name__} through a default "
                    f"argument",
                    hint="pass it via scheduler args instead")))
                break
    return findings


def _definition_site(fn: Any) -> Tuple[str, int]:
    try:
        path = inspect.getsourcefile(fn) or "<unknown>"
    except TypeError:
        path = "<unknown>"
    line = getattr(getattr(fn, "__code__", None), "co_firstlineno", 1)
    return path, line
