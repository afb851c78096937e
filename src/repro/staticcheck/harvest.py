"""Static harvest of trace-kind emit sites and subscriptions.

The trace schema is implicit: producers call
``TraceRecorder.record(kind, ...)`` (usually through a per-class
``_record`` wrapper) and consumers -- oracle invariant packs, the
fuzzer's coverage keys, lineage reconstruction, analysis queries --
name the same dotted strings somewhere else entirely.  This module
recovers both sides from the AST so :mod:`repro.staticcheck.drift` can
diff them against each other and against the
:mod:`repro.netsim.kinds` registry.

Emit-site resolution handles the repo's actual shapes:

- direct literals: ``trace.record("net.unroutable", ...)``;
- registry constants: ``self._record(K.TCP_CWND, ...)`` under any
  import alias of :mod:`repro.netsim.kinds`;
- local conditionals: ``kind = K.NET_SEND if ok else K.NET_LINK_DROP``
  followed by ``record(kind, ...)`` (both branches are harvested);
- wrapper functions: any ``def`` with a ``kind`` parameter that passes
  it to ``.record(...)`` makes its *call sites* emit sites, and the
  pass-through inside the wrapper itself is not counted;
- genuinely dynamic kinds (e.g. trace replay feeding ``record`` from
  parsed JSON) are returned separately as :class:`DynamicEmit` -- they
  are facts about the file, not findings.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.netsim import kinds as kinds_registry

#: the shape of a trace-kind string ("tcp.retransmit")
KIND_RE = re.compile(r"^[a-z][a-z0-9_]*\.[a-z][a-z0-9_]*$")

#: the shape of a kind prefix ("tcp"), as oracle ``prefixes`` use them
PREFIX_RE = re.compile(r"^[a-z][a-z0-9_]*$")

_KINDS_MODULE = "repro.netsim.kinds"


@dataclass(frozen=True)
class EmitSite:
    """One statically-resolved ``record(kind, ...)`` call."""

    kind: str
    path: str
    line: int
    #: "literal" | "constant" | "local" | "wrapper"
    via: str


@dataclass(frozen=True)
class DynamicEmit:
    """A record call whose kind cannot be resolved statically."""

    path: str
    line: int
    reason: str


@dataclass(frozen=True)
class Subscription:
    """One consumer-side reference to a trace kind."""

    kind: str
    path: str
    line: int
    #: "oracle-kind" | "oracle-prefix" | "query" | "table" | "comparison"
    role: str
    #: True when ``kind`` is a prefix ("gmp"), not an exact kind
    prefix: bool = False

    def matches(self, emitted: str) -> bool:
        if self.prefix:
            return emitted.startswith(self.kind + ".")
        return emitted == self.kind


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in sorted(os.walk(path)):
                dirs.sort()
                out.extend(os.path.join(root, f) for f in sorted(files)
                           if f.endswith(".py"))
        elif path.endswith(".py"):
            out.append(path)
    return out


class _FileHarvest(ast.NodeVisitor):
    """Harvest one module's emit sites and subscriptions."""

    def __init__(self, path: str, tree: ast.Module):
        self.path = path
        self.emits: List[EmitSite] = []
        self.dynamic: List[DynamicEmit] = []
        self.subscriptions: List[Subscription] = []
        #: aliases of the kinds module ("K", "kinds")
        self._module_aliases: Set[str] = set()
        #: from-imported constant name -> kind string
        self._constants: Dict[str, str] = {}
        #: names of local wrapper functions that forward ``kind``
        self._wrappers: Set[str] = set()
        #: stack of enclosing function defs
        self._functions: List[ast.AST] = []
        self._prescan(tree)

    def _prescan(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == _KINDS_MODULE:
                        self._module_aliases.add(
                            alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                if node.module == _KINDS_MODULE:
                    for alias in node.names:
                        value = getattr(kinds_registry, alias.name, None)
                        if isinstance(value, str):
                            self._constants[alias.asname
                                            or alias.name] = value
                elif node.module == "repro.netsim":
                    for alias in node.names:
                        if alias.name == "kinds":
                            self._module_aliases.add(alias.asname
                                                     or "kinds")
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                if _forwards_kind(node):
                    self._wrappers.add(node.name)

    # -- kind-expression resolution -------------------------------------

    def _resolve(self, node: ast.expr,
                 local_scope: Optional[ast.AST]
                 ) -> Optional[List[Tuple[str, str]]]:
        """Resolve a kind expression to ``[(kind, via), ...]`` or None."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [(node.value, "literal")]
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in self._module_aliases):
            value = getattr(kinds_registry, node.attr, None)
            if isinstance(value, str):
                return [(value, "constant")]
            return None
        if isinstance(node, ast.Name):
            if node.id in self._constants:
                return [(self._constants[node.id], "constant")]
            if local_scope is not None:
                return self._resolve_local(node.id, local_scope)
        if isinstance(node, ast.IfExp):
            left = self._resolve(node.body, local_scope)
            right = self._resolve(node.orelse, local_scope)
            if left is not None and right is not None:
                return ([(kind, "local") for kind, _ in left]
                        + [(kind, "local") for kind, _ in right])
        return None

    def _resolve_local(self, name: str, scope: ast.AST
                       ) -> Optional[List[Tuple[str, str]]]:
        """Resolve ``name`` through single-assignment in ``scope``."""
        assignments = [
            node.value for node in ast.walk(scope)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == name
                    for t in node.targets)]
        if len(assignments) != 1:
            return None
        resolved = self._resolve(assignments[0], None)
        if resolved is None:
            return None
        return [(kind, "local") for kind, _ in resolved]

    def _kind_param(self) -> Optional[str]:
        """The ``kind`` parameter name of the enclosing wrapper, if any."""
        for fn in reversed(self._functions):
            args = fn.args
            names = {a.arg for a in (args.posonlyargs + args.args
                                     + args.kwonlyargs)}
            if "kind" in names:
                return "kind"
        return None

    # -- visitors --------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._functions.append(node)
        self.generic_visit(node)
        self._functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for stmt in node.body:
            if (isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id in ("kinds", "prefixes")):
                role = ("oracle-kind" if stmt.targets[0].id == "kinds"
                        else "oracle-prefix")
                pattern = KIND_RE if role == "oracle-kind" else PREFIX_RE
                for kind in _tuple_of_strings(stmt.value, pattern):
                    self.subscriptions.append(Subscription(
                        kind=kind, path=self.path, line=stmt.lineno,
                        role=role, prefix=(role == "oracle-prefix")))
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # module-level UPPER_CASE dict tables keyed by kind strings
        # (e.g. lineage's _EDGE_ATTRS) are subscriptions too
        if (len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id.upper() == node.targets[0].id
                and isinstance(node.value, ast.Dict)
                and node.value.keys):
            keys = [k.value for k in node.value.keys
                    if isinstance(k, ast.Constant)
                    and isinstance(k.value, str)]
            if keys and all(KIND_RE.match(k) for k in keys):
                for key in keys:
                    self.subscriptions.append(Subscription(
                        kind=key, path=self.path, line=node.lineno,
                        role="table"))
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        # entry.kind == "pfi.delay" -- a consumer branching on a kind
        sides = [node.left] + list(node.comparators)
        has_kind_attr = any(
            isinstance(s, ast.Attribute) and s.attr == "kind"
            for s in sides)
        if has_kind_attr and all(isinstance(op, (ast.Eq, ast.NotEq, ast.In))
                                 for op in node.ops):
            for side in sides:
                values: List[str] = []
                if (isinstance(side, ast.Constant)
                        and isinstance(side.value, str)):
                    values = [side.value]
                elif isinstance(side, (ast.Tuple, ast.Set, ast.List)):
                    values = [e.value for e in side.elts
                              if isinstance(e, ast.Constant)
                              and isinstance(e.value, str)]
                for value in values:
                    if KIND_RE.match(value):
                        self.subscriptions.append(Subscription(
                            kind=value, path=self.path, line=node.lineno,
                            role="comparison"))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if attr == "record" or attr in self._wrappers:
            self._harvest_emit(node, attr)
        elif attr in ("entries", "count") and node.args:
            first = node.args[0]
            if (isinstance(first, ast.Constant)
                    and isinstance(first.value, str)
                    and KIND_RE.match(first.value)):
                self.subscriptions.append(Subscription(
                    kind=first.value, path=self.path, line=node.lineno,
                    role="query"))
        elif (attr == "startswith" and node.args
              and isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Attribute)
              and func.value.attr == "kind"):
            first = node.args[0]
            if (isinstance(first, ast.Constant)
                    and isinstance(first.value, str)
                    and first.value.endswith(".")):
                self.subscriptions.append(Subscription(
                    kind=first.value.rstrip("."), path=self.path,
                    line=node.lineno, role="comparison", prefix=True))
        self.generic_visit(node)

    def _harvest_emit(self, node: ast.Call, attr: str) -> None:
        if not node.args:
            return
        first = node.args[0]
        # pass-through inside a wrapper definition: counted at call sites
        kind_param = self._kind_param()
        if (kind_param is not None and isinstance(first, ast.Name)
                and first.id == kind_param):
            return
        scope = self._functions[-1] if self._functions else None
        resolved = self._resolve(first, scope)
        if resolved is None:
            self.dynamic.append(DynamicEmit(
                path=self.path, line=node.lineno,
                reason=f"unresolvable kind expression "
                       f"{ast.dump(first)[:60]}"))
            return
        via = "wrapper" if attr != "record" else None
        for kind, how in resolved:
            if KIND_RE.match(kind):
                self.emits.append(EmitSite(
                    kind=kind, path=self.path, line=node.lineno,
                    via=via or how))


def _forwards_kind(fn: ast.AST) -> bool:
    """Does ``fn`` take a ``kind`` parameter and pass it to ``record``?"""
    args = fn.args
    names = {a.arg for a in (args.posonlyargs + args.args
                             + args.kwonlyargs)}
    if "kind" not in names:
        return False
    for node in ast.walk(fn):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "record" and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "kind"):
            return True
    return False


def _tuple_of_strings(node: ast.expr,
                      pattern: "re.Pattern" = KIND_RE) -> List[str]:
    if isinstance(node, (ast.Tuple, ast.List)):
        return [e.value for e in node.elts
                if isinstance(e, ast.Constant)
                and isinstance(e.value, str) and pattern.match(e.value)]
    return []


@dataclass
class Harvest:
    """Everything the drift checker needs, across all harvested files."""

    emits: List[EmitSite]
    dynamic: List[DynamicEmit]
    subscriptions: List[Subscription]

    def emitted_kinds(self) -> Set[str]:
        return {site.kind for site in self.emits}


def harvest_paths(paths: Sequence[str]) -> Harvest:
    """Harvest emit sites and subscriptions from files/directories."""
    emits: List[EmitSite] = []
    dynamic: List[DynamicEmit] = []
    subscriptions: List[Subscription] = []
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as fp:
            source = fp.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue  # the suite reports unparseable files separately
        visitor = _FileHarvest(path, tree)
        visitor.visit(tree)
        emits.extend(visitor.emits)
        dynamic.extend(visitor.dynamic)
        subscriptions.extend(visitor.subscriptions)
    return Harvest(emits=emits, dynamic=dynamic,
                   subscriptions=subscriptions)
