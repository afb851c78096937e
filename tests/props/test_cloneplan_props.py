"""Property: a compiled clone plan copies what ``copy.deepcopy`` copies.

Graphs are drawn with everything the plan handles natively (cycles,
shared children, tuples holding lists, frozensets, sets of atoms,
bounded deques, the ``collections`` dicts, ``__slots__`` classes, frozen
dataclasses, bound methods to members, ``random.Random`` mid-stream,
dicts keyed by instances) and what it hands back to ``deepcopy``
(``functools.partial``, a class with a ``__deepcopy__`` hook that points
back into the graph).  :func:`tests.shape.same_shape` is the judge.
"""

from __future__ import annotations

import copy
import functools
import random
from collections import Counter, OrderedDict, defaultdict, deque
from dataclasses import dataclass
from typing import Any

from hypothesis import given, settings, strategies as st

from repro.core.cloneplan import ClonePlan
from tests.shape import reachable, same_shape


class Plain:
    def __init__(self, uid):
        self.uid = uid
        self.items = []

    def poke(self, value=None):
        self.items.append(value)


class Slotted:
    __slots__ = ("uid", "items", "unset")

    def __init__(self, uid):
        self.uid = uid
        self.items = []


class Mixed(Slotted):
    """Slots from the base plus an instance ``__dict__``."""

    def __init__(self, uid):
        super().__init__(uid)
        self.extra = {"uid": uid}


@dataclass(frozen=True)
class Pair:
    left: Any
    right: Any


class Hooked:
    """Copied only through its own ``__deepcopy__`` (a fallback node)."""

    def __init__(self, target):
        self.target = target

    def __deepcopy__(self, memo):
        clone = Hooked.__new__(Hooked)
        memo[id(self)] = clone
        clone.target = copy.deepcopy(self.target, memo)
        return clone


def _join(left, right):
    return (left, right)


atoms = st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
                  st.floats(allow_nan=False, width=32),
                  st.text("abc", max_size=3), st.binary(max_size=3))
hashable_atoms = st.one_of(st.integers(-5, 5), st.text("abc", max_size=3))


def _make_node(kind: str, uid: int, draw) -> Any:
    if kind == "list":
        return []
    if kind == "dict":
        return {}
    if kind == "set":
        return set(draw(st.lists(hashable_atoms, max_size=4)))
    if kind == "deque":
        return deque(maxlen=draw(st.sampled_from((None, 3, 8))))
    if kind == "defaultdict":
        return defaultdict(draw(st.sampled_from((list, int, None))))
    if kind == "counter":
        return Counter(draw(st.lists(hashable_atoms, max_size=4)))
    if kind == "ordered":
        return OrderedDict()
    if kind == "bytearray":
        return bytearray(draw(st.binary(max_size=4)))
    if kind == "random":
        rng = random.Random(uid)
        for _ in range(draw(st.integers(0, 3))):
            rng.random()
        if draw(st.booleans()):
            rng.gauss(0, 1)  # leaves gauss_next set: part of the state
        return rng
    return {"plain": Plain, "slotted": Slotted, "mixed": Mixed}[kind](uid)


KINDS = ("list", "dict", "set", "deque", "defaultdict", "counter",
         "ordered", "bytearray", "random", "plain", "slotted", "mixed")


@st.composite
def graphs(draw):
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=9))
    nodes = [_make_node(kind, uid, draw) for uid, kind in enumerate(kinds)]
    instances = [n for n in nodes if isinstance(n, (Plain, Slotted))]
    node = st.sampled_from(nodes)

    def value(depth=0):
        options = [atoms, node]
        if depth < 2:
            inner = st.deferred(lambda: value(depth + 1))
            options += [
                st.lists(inner, max_size=3).map(tuple),
                st.frozensets(hashable_atoms, max_size=3),
                st.builds(Pair, inner, inner),
                st.builds(Hooked, inner),
                st.builds(functools.partial, st.just(_join), inner),
            ]
            if instances:
                member = st.sampled_from(instances)
                options += [
                    st.frozensets(member, max_size=2),
                    member.map(lambda obj: obj.items.append),
                    st.dictionaries(member, inner, max_size=2),
                ]
                plain = [n for n in instances if isinstance(n, Plain)]
                if plain:
                    options.append(
                        st.sampled_from(plain).map(lambda obj: obj.poke))
        return st.one_of(options)

    for target in nodes:
        children = draw(st.lists(value(), max_size=4))
        if isinstance(target, (list, deque)):
            target.extend(children)
        elif isinstance(target, Counter):
            continue  # counts only
        elif isinstance(target, dict):
            for key, child in zip(draw(st.lists(
                    hashable_atoms, min_size=len(children),
                    max_size=len(children), unique=True)), children):
                target[key] = child
        elif isinstance(target, (Plain, Slotted)):
            target.items.extend(children)
    return nodes


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_clone_plan_matches_deepcopy(nodes):
    plan = ClonePlan(nodes)
    clone = plan.clone()
    reference = copy.deepcopy(nodes)
    assert same_shape(clone, reference)
    assert same_shape(nodes, clone)
    # a second clone is as good as the first and shares nothing with it
    again = plan.clone()
    assert same_shape(clone, again)
    hooked = sum(isinstance(obj, (Hooked, functools.partial))
                 for obj in reachable(nodes))
    assert (len(plan.fallback) > 0) == (hooked > 0)
