"""Structural comparison of object graphs, for copier tests.

:func:`same_shape` is the reference notion of "``b`` is a faithful deep
copy of ``a``" the clone-plan tests hold :class:`repro.core.cloneplan
.ClonePlan` to (with ``copy.deepcopy`` as the second opinion):
:func:`reachable` is the same walk over one graph, for "two forks share
nothing mutable" assertions.
"""

from __future__ import annotations

import enum
import functools
import random
import types
import weakref
from collections import deque
from typing import Any, Dict, Iterator, List, Tuple

from repro.core.stubs import PacketStubs

#: leaves compared by value (or identity, for code-like objects)
ATOMIC = (type(None), int, float, bool, complex, bytes, str, range,
          type(Ellipsis), type(NotImplemented))
#: (and the packet stubs: an immutable declaration every copy shares)
BY_IDENTITY = (type, types.FunctionType, types.BuiltinFunctionType,
               types.CodeType, weakref.ref, property, enum.Enum, PacketStubs)
#: containers a copier may share with the source when nothing mutable
#: is reachable through them
IMMUTABLE = (tuple, frozenset, types.MethodType, functools.partial)

_MISSING = object()


class ShapeMismatch(AssertionError):
    """Two graphs differ; the message carries the path to the spot."""


def _slot_names(cls: type) -> List[str]:
    names: List[str] = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        names.extend([slots] if isinstance(slots, str) else slots)
    return [name for name in names if name not in ("__dict__", "__weakref__")]


def _is_leaf(obj: Any) -> bool:
    return type(obj) in ATOMIC or isinstance(obj, BY_IDENTITY)


def _parts(obj: Any) -> List[Tuple[str, Any]]:
    """``(label, child)`` for everything ``obj`` holds, order-stable.

    Set members are *not* listed (they have no order); callers handle
    ``set`` / ``frozenset`` themselves.
    """
    if isinstance(obj, (list, tuple, deque)):
        parts = [(f"[{i}]", item) for i, item in enumerate(obj)]
    elif isinstance(obj, dict):
        parts = []
        for i, (key, value) in enumerate(obj.items()):
            parts.append((f".key{i}", key))
            parts.append((f".value{i}", value))
        if hasattr(obj, "default_factory"):
            parts.append((".default_factory", obj.default_factory))
    elif isinstance(obj, types.MethodType):
        return [(".__func__", obj.__func__), (".__self__", obj.__self__)]
    elif isinstance(obj, functools.partial):
        return [(".func", obj.func), (".args", obj.args),
                (".keywords", obj.keywords)]
    elif isinstance(obj, random.Random):
        return [(".state", obj.getstate())]
    elif isinstance(obj, (bytearray, set, frozenset)):
        return []
    else:
        parts = []
    state = getattr(obj, "__dict__", None)
    if state:
        for i, (key, value) in enumerate(state.items()):
            parts.append((f".attr{i}", key))
            parts.append((f".{key}", value))
    for name in _slot_names(type(obj)):
        parts.append((f".{name}", getattr(obj, name, _MISSING)))
    return parts


def reachable(root: Any) -> Iterator[Any]:
    """Every non-leaf object reachable from ``root``, each once."""
    seen: Dict[int, Any] = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if obj is _MISSING or _is_leaf(obj) or id(obj) in seen:
            continue
        seen[id(obj)] = obj
        yield obj
        if isinstance(obj, (set, frozenset)):
            stack.extend(obj)
        stack.extend(child for _label, child in _parts(obj))


class _Walk:
    def __init__(self) -> None:
        self.forward: Dict[int, Any] = {}
        self.backward: Dict[int, Any] = {}
        self.keep: List[Any] = []

    def fail(self, path: str, why: str) -> None:
        raise ShapeMismatch(f"at root{path}: {why}")

    def compare(self, a: Any, b: Any, path: str) -> None:
        if a is _MISSING or b is _MISSING:
            if a is not b:
                self.fail(path, "slot set on one side only")
            return
        if type(a) is not type(b):
            self.fail(path, f"{type(a).__name__} vs {type(b).__name__}")
        if isinstance(a, BY_IDENTITY):
            if a is not b:
                self.fail(path, f"{a!r} is not {b!r}")
            return
        if type(a) in ATOMIC:
            if a != b and not (a != a and b != b):
                self.fail(path, f"{a!r} != {b!r}")
            return
        # bound methods are rebuilt per reference by deepcopy in some
        # cycles; they carry no identity worth pinning
        if not isinstance(a, types.MethodType):
            known = self.forward.get(id(a), _MISSING)
            if known is not _MISSING:
                if known is not b:
                    self.fail(path, "aliasing in the first graph is not "
                                    "preserved in the second")
                return
            if id(b) in self.backward:
                self.fail(path, "aliasing in the second graph has no "
                                "counterpart in the first")
            self.forward[id(a)] = b
            self.backward[id(b)] = a
            self.keep.extend((a, b))
        if a is b and not isinstance(a, IMMUTABLE):
            self.fail(path, f"mutable {type(a).__name__} is shared")
        if isinstance(a, deque) and a.maxlen != b.maxlen:
            self.fail(path, f"maxlen {a.maxlen} vs {b.maxlen}")
        if isinstance(a, bytearray) and a != b:
            self.fail(path, "bytearray contents differ")
        if isinstance(a, (set, frozenset)):
            self.compare_members(a, b, path)
        mine, theirs = _parts(a), _parts(b)
        if len(mine) != len(theirs):
            self.fail(path, f"{len(mine)} vs {len(theirs)} parts")
        for (label, x), (other, y) in zip(mine, theirs):
            if label != other:
                self.fail(path, f"order/key differs: {label} vs {other}")
            self.compare(x, y, path + label)

    def compare_members(self, a: Any, b: Any, path: str) -> None:
        if len(a) != len(b):
            self.fail(path, f"{len(a)} vs {len(b)} members")
        leaves = {m for m in a if _is_leaf(m)}
        if leaves != {m for m in b if _is_leaf(m)}:
            self.fail(path, "atomic members differ")
        rest = [m for m in b if not _is_leaf(m)]
        for member in (m for m in a if not _is_leaf(m)):
            for candidate in rest:
                saved = (dict(self.forward), dict(self.backward))
                try:
                    self.compare(member, candidate, path + "{member}")
                except ShapeMismatch:
                    self.forward, self.backward = saved
                    continue
                rest.remove(candidate)
                break
            else:
                self.fail(path, f"no counterpart for member {member!r}")


def same_shape(a: Any, b: Any) -> bool:
    """True when ``b`` has exactly ``a``'s shape; raises otherwise.

    Walks both graphs in lockstep: equal types, equal atomic values,
    equal order in lists / deques / dicts / instance attributes, every
    alias of one graph an alias in the other (a two-way identity map),
    and no mutable object that is the *same* object on both sides.
    """
    _Walk().compare(a, b, "")
    return True
