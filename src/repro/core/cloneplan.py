"""Compiled clone plans: deep-copy one frozen graph many times, cheaply.

:func:`copy.deepcopy` rediscovers a graph on every call -- a type
dispatch, a ``__reduce_ex__`` and an id-keyed memo lookup per object.
A checkpoint's snapshot never changes between forks, so that discovery
is done **once**: :class:`ClonePlan` walks the graph in ``deepcopy``'s
own order and records what a copy consists of; :meth:`ClonePlan.clone`
replays the record.

What is compiled.  Every non-atomic object gets one *slot*:

- **shells** -- mutable objects, allocated up front by a zero-argument
  factory: ``template.copy`` for ``dict`` / ``list`` / ``set`` /
  ``deque`` (``maxlen`` kept) / ``OrderedDict`` / ``defaultdict`` /
  ``Counter`` / ``bytearray``, where the template already holds every
  atomic entry in insertion order and a placeholder where a slot goes;
  ``cls.__new__(cls)`` for plain instances; ``random.Random`` restored
  from its (immutable, shared) state tuple;
- **steps** -- replayed in ``deepcopy``'s post-order, so whatever hashes
  an object finds it already filled: patch a shell's placeholders
  (``shell[key] = slots[j]``), fill an instance ``__dict__`` and
  ``__slots__``, add the non-atomic members of a set, or *build* a
  tuple / frozenset / bound method that reaches a mutable (one that
  reaches none is shared, as ``deepcopy`` shares such tuples).  A bound
  method is rebuilt around the ``__func__`` its source object holds.

What falls back.  An object the compiler does not positively recognise
-- a ``__deepcopy__`` or ``__setstate__`` hook, a custom ``__reduce__``
/ ``__reduce_ex__``, a :mod:`copyreg` entry, a reduce value that is not
``copyreg.__newobj__(cls)`` plus dict / slots state -- becomes a
*fallback step*: ``copy.deepcopy(obj, memo)`` per clone, with a memo
that already maps every shell's source to its clone, so the hook runs
as it always did and lands on the same copies.  A fallback object is
opaque: what only it reaches is copied by ``deepcopy`` inside that call
(once per clone, the memo is shared between fallback steps), and a hook
that *reads* other world objects may see a shell that is allocated but
not filled yet.  Fallbacks cost what ``deepcopy`` costs for their
subgraph, so a rig whose hot classes carry hooks sees less of the gain;
:attr:`ClonePlan.fallback` names them.

Functions (closures included) are atomic here exactly as they are for
``deepcopy``; the checkpoint audit (SC101/SC102 on the live heap,
:func:`repro.staticcheck.audit_pending`) keeps its meaning.
"""

from __future__ import annotations

import copy
import copyreg
import enum
import random
import types
import weakref
from collections import Counter, OrderedDict, defaultdict, deque
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.core.stubs import PacketStubs

#: a slot reference while compiling: shell ``k`` is ``k``, the ``b``-th
#: built slot is ``~b`` (its final index, after every shell, is only
#: known at the end); ``None`` means "the object itself, shared"
_Ref = Optional[int]

#: types ``copy.deepcopy`` returns as they are (written out: the plan
#: depends on no private name of the ``copy`` module), plus the packet
#: stubs, an immutable declaration whose ``__deepcopy__`` returns itself
_ATOMIC = frozenset({
    type(None), int, float, bool, complex, bytes, str, types.CodeType,
    type, range, types.BuiltinFunctionType, types.FunctionType,
    type(Ellipsis), type(NotImplemented), weakref.ref, property,
    PacketStubs})

# step kinds, most frequent first (the replay loop tests them in order)
_INSTANCE, _ITEMS, _BUILD_TUPLE, _BUILD_METHOD, _SLOTS, _ADD, _KEYED, \
    _BUILD_FROZENSET, _FALLBACK = range(9)

#: kinds whose step appends a new slot (everything else fills a shell)
_BUILDS = (_BUILD_TUPLE, _BUILD_METHOD, _BUILD_FROZENSET, _FALLBACK)

_new_random = random.Random.__new__
_new_counter = Counter.__new__
_dict_update = dict.update
_method = types.MethodType


def _restore_random(state: tuple) -> random.Random:
    rng = _new_random(random.Random)
    rng.setstate(state)
    return rng


def _restore_counter(template: dict) -> Counter:
    counter = _new_counter(Counter)
    _dict_update(counter, template)
    return counter


class ClonePlan:
    """A recipe for deep copies of ``root``, compiled once.

    ``root`` must not change while the plan is in use.  ``factories``
    maps ``id(obj)`` to a zero-argument callable for objects (reachable
    from ``root``) whose clone is made some other way -- the checkpoint
    passes the trace recorder's prefix-sharing ``fork``; such an object
    is not walked.
    """

    def __init__(self, root: Any,
                 factories: Optional[Dict[int, Callable[[], Any]]] = None):
        self.root = root
        self._makers: List[Callable[[], Any]] = []
        #: ``id`` of each shell's source, in slot order (the fallback
        #: memo's keys)
        self._ids: List[int] = []
        #: whatever the compile looked at that ``root`` may not keep
        #: alive (a ``__getstate__`` result), so no memo id is reused
        self._keep: List[Any] = []
        self._steps: List[list] = []
        self._builds = 0
        self._memo: Dict[int, _Ref] = {}
        #: class name of every fallback node
        self.fallback: List[str] = []
        for oid, factory in (factories or {}).items():
            self._memo[oid] = len(self._makers)
            self._makers.append(factory)
            self._ids.append(oid)
        self._root_ref = self._visit(root)
        self._finish()

    @property
    def objects(self) -> int:
        """How many objects one clone creates (slots in the recipe)."""
        return len(self._makers) + self._builds

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------

    def clone(self) -> Any:
        """One deep copy of the root, independent of every other."""
        root = self._root_ref
        if root is None:
            return self.root
        slots = [make() for make in self._makers]
        append = slots.append
        memo = dict(zip(self._ids, slots)) if self.fallback else None
        for kind, target, payload, patches in self._steps:
            if kind == _INSTANCE:
                state = slots[target].__dict__
                state.update(payload)
                for key, j in patches:
                    state[key] = slots[j]
            elif kind == _ITEMS:
                shell = slots[target]
                for key, j in patches:
                    shell[key] = slots[j]
            elif kind == _BUILD_TUPLE or kind == _BUILD_METHOD:
                built = memo.get(target) if memo is not None else None
                if built is None:
                    if kind == _BUILD_METHOD:
                        built = _method(payload, slots[patches[0][1]])
                    else:
                        parts = payload.copy()
                        for position, j in patches:
                            parts[position] = slots[j]
                        built = tuple(parts)
                    if memo is not None:
                        memo[target] = built
                append(built)
            elif kind == _SLOTS:
                obj = slots[target]
                for name, value in payload:
                    setattr(obj, name, value)
                for name, j in patches:
                    setattr(obj, name, slots[j])
            elif kind == _ADD:
                add = slots[target].add
                for _key, j in patches:
                    add(slots[j])
            elif kind == _KEYED:
                shell = slots[target]
                for (key, kj), (value, vj) in zip(payload, patches):
                    shell[key if kj is None else slots[kj]] = (
                        value if vj is None else slots[vj])
            elif kind == _BUILD_FROZENSET:
                built = memo.get(target) if memo is not None else None
                if built is None:
                    built = payload.union([slots[j] for _key, j in patches])
                    if memo is not None:
                        memo[target] = built
                append(built)
            else:  # _FALLBACK: the memo holds every shell and every
                # slot built so far, and remembers what this call copies
                append(copy.deepcopy(payload, memo))
        return slots[root]

    # ------------------------------------------------------------------
    # compile: deepcopy's traversal, recording instead of copying
    # ------------------------------------------------------------------

    def _finish(self) -> None:
        """Resolve references to final slot indices and freeze steps.

        A step is ``(kind, target, payload, patches)``: ``target`` is the
        shell it fills, or for a build the source's ``id`` (its memo
        key); ``patches`` are ``(key, slot)`` pairs.
        """
        shells = len(self._makers)

        def index(ref: _Ref) -> Optional[int]:
            return ref if ref is None or ref >= 0 else shells + ~ref

        def pairs(patches: list) -> tuple:
            return tuple((key, index(ref)) for key, ref in patches)

        self._steps = [
            (kind, id(target) if kind in _BUILDS else index(target),
             pairs(payload) if kind == _KEYED else payload, pairs(patches))
            for kind, target, payload, patches in self._steps]
        self._root_ref = index(self._root_ref)
        self.fallback.sort()
        del self._memo

    def _shell(self, obj: Any, maker: Optional[Callable[[], Any]] = None
               ) -> int:
        ref = len(self._makers)
        self._memo[id(obj)] = ref
        self._makers.append(maker)
        self._ids.append(id(obj))
        return ref

    def _built(self, obj: Any, kind: int, payload: Any, patches: Any
               ) -> _Ref:
        """Record a step that appends a slot for ``obj``."""
        ref = ~self._builds
        self._builds += 1
        self._memo[id(obj)] = ref
        self._keep.append(obj)
        self._steps.append([kind, obj, payload, patches])
        return ref

    def _fallback(self, obj: Any) -> _Ref:
        self.fallback.append(type(obj).__qualname__)
        return self._built(obj, _FALLBACK, obj, ())

    def _visit(self, obj: Any) -> _Ref:
        """The reference a copy uses for ``obj``; None: ``obj`` itself."""
        cls = type(obj)
        if cls in _ATOMIC:
            return None
        memo = self._memo
        oid = id(obj)
        if oid in memo:
            return memo[oid]
        visit = _VISITORS.get(cls)
        if visit is not None:
            return visit(self, obj)
        if issubclass(cls, (type, enum.Enum)):
            return None  # deepcopy: classes and enum members are atomic
        return self._visit_instance(obj, cls)

    def _template(self, items, template, store) -> list:
        """Fill ``template`` through ``store(key, value)``; returns the
        ``[key, ref]`` patches for the non-atomic values."""
        patches = []
        visit = self._visit
        for key, value in items:
            ref = visit(value)
            if ref is None:
                store(key, value)
            else:
                store(key, None)
                patches.append([key, ref])
        return patches

    def _visit_sequence(self, obj: Any) -> _Ref:
        """``list`` / ``deque``: positions patched into a copied template."""
        ref = self._shell(obj)
        template = [] if type(obj) is list else deque(maxlen=obj.maxlen)
        patches = self._template(
            enumerate(obj), template, lambda _pos, v: template.append(v))
        self._makers[ref] = template.copy
        if patches:
            self._steps.append([_ITEMS, ref, None, patches])
        return ref

    def _visit_mapping(self, obj: Any) -> _Ref:
        """``dict`` / ``OrderedDict`` / ``defaultdict`` / ``Counter``."""
        cls = type(obj)
        if cls is not dict and getattr(obj, "__dict__", None):
            return self._fallback(obj)  # instance attributes on a mapping
        if cls is defaultdict and self._visit(obj.default_factory) is not None:
            return self._fallback(obj)
        ref = self._shell(obj)
        keys = [self._visit(key) for key in obj]
        if any(key is not None for key in keys):
            # keyed by objects that are copied: entries are inserted
            # after their keys are filled, as deepcopy inserts them
            self._makers[ref] = (
                partial(defaultdict, obj.default_factory)
                if cls is defaultdict else cls)
            self._steps.append([
                _KEYED, ref, list(zip(obj, keys)),
                [(value, self._visit(value)) for value in obj.values()]])
            return ref
        if cls is defaultdict:
            template = defaultdict(obj.default_factory)
        else:
            template = {} if cls is Counter else cls()
        patches = self._template(obj.items(), template,
                                 template.__setitem__)
        self._makers[ref] = (
            partial(_restore_counter, template) if cls is Counter
            else template.copy)
        if patches:
            self._steps.append([_ITEMS, ref, None, patches])
        return ref

    def _visit_set(self, obj: set) -> _Ref:
        ref = self._shell(obj)
        template: set = set()
        members = self._members(obj, template)
        self._makers[ref] = template.copy
        if members:
            self._steps.append([_ADD, ref, None, members])
        return ref

    def _visit_frozenset(self, obj: frozenset) -> _Ref:
        atomic: set = set()
        members = self._members(obj, atomic)
        return self._immutable(obj, bool(members), _BUILD_FROZENSET,
                               frozenset(atomic), members)

    def _members(self, obj: Any, atomic: set) -> list:
        """Split a set: atomic members into ``atomic``, ``(None, ref)``
        patches for the rest."""
        members = []
        for member in obj:
            ref = self._visit(member)
            if ref is None:
                atomic.add(member)
            else:
                members.append((None, ref))
        return members

    def _visit_tuple(self, obj: tuple) -> _Ref:
        template: list = []
        patches = self._template(enumerate(obj), template,
                                 lambda _pos, v: template.append(v))
        return self._immutable(obj, bool(patches), _BUILD_TUPLE,
                               template, patches)

    def _visit_method(self, obj: types.MethodType) -> _Ref:
        owner = self._visit(obj.__self__)
        return self._immutable(obj, owner is not None, _BUILD_METHOD,
                               obj.__func__, [(None, owner)])

    def _immutable(self, obj: Any, rebuilt: bool, kind: int,
                   payload: Any, patches: list) -> _Ref:
        """Share ``obj`` when it reaches nothing mutable, else rebuild.

        Like ``deepcopy``'s tuple copier the memo is consulted again
        afterwards: a cycle through one of the members may have come
        back here and compiled this object already.
        """
        memo = self._memo
        oid = id(obj)
        if oid in memo:
            return memo[oid]
        if not rebuilt:
            memo[oid] = None
            return None
        return self._built(obj, kind, payload, patches)

    def _visit_bytearray(self, obj: bytearray) -> _Ref:
        return self._shell(obj, obj.copy)

    def _visit_random(self, obj: random.Random) -> _Ref:
        return self._shell(obj, partial(_restore_random, obj.getstate()))

    def _visit_instance(self, obj: Any, cls: type) -> _Ref:
        """A plain instance: ``cls.__new__(cls)`` plus dict/slots state."""
        if (getattr(obj, "__deepcopy__", None) is not None
                or cls in copyreg.dispatch_table
                or cls.__reduce_ex__ is not object.__reduce_ex__
                or cls.__reduce__ is not object.__reduce__
                or hasattr(cls, "__setstate__")):
            return self._fallback(obj)
        try:
            reduced = obj.__reduce_ex__(4)
        except Exception:
            return self._fallback(obj)  # deepcopy raises it at clone time
        if (not isinstance(reduced, tuple) or len(reduced) < 3
                or reduced[0] is not copyreg.__newobj__
                or len(reduced[1]) != 1 or reduced[1][0] is not cls
                or any(part is not None for part in reduced[3:])):
            return self._fallback(obj)
        state = reduced[2]
        slot_state = None
        if type(state) is tuple and len(state) == 2:
            state, slot_state = state
        if not (state is None or type(state) is dict) \
                or not (slot_state is None or type(slot_state) is dict):
            return self._fallback(obj)
        self._keep.append(reduced)  # a __getstate__ may have built it
        ref = self._shell(obj, partial(cls.__new__, cls))
        if state:
            template: dict = {}
            patches = self._template(state.items(), template,
                                     template.__setitem__)
            self._steps.append([_INSTANCE, ref, template, patches])
        if slot_state:
            atomic = []
            patches = []
            for name, value in slot_state.items():
                vref = self._visit(value)
                if vref is None:
                    atomic.append((name, value))
                else:
                    patches.append([name, vref])
            self._steps.append([_SLOTS, ref, tuple(atomic), patches])
        return ref


_VISITORS = {
    list: ClonePlan._visit_sequence,
    deque: ClonePlan._visit_sequence,
    dict: ClonePlan._visit_mapping,
    OrderedDict: ClonePlan._visit_mapping,
    defaultdict: ClonePlan._visit_mapping,
    Counter: ClonePlan._visit_mapping,
    set: ClonePlan._visit_set,
    frozenset: ClonePlan._visit_frozenset,
    tuple: ClonePlan._visit_tuple,
    types.MethodType: ClonePlan._visit_method,
    bytearray: ClonePlan._visit_bytearray,
    random.Random: ClonePlan._visit_random,
}
