"""The JSON-lines renderer against the line format it replaced.

The oracle below is the per-entry renderer as it stood before rows were
batched: ``_entry_dict`` + ``JSONEncoder(sort_keys=True)``, with
``_jsonable``, copied verbatim.  Drawn rows are adversarial -- strings
holding the row boundary ``}, {"attrs": {``, braces, quotes, backslashes,
newlines and non-ASCII; nested dicts keyed by int, bool, None and tuple;
sets, frozensets, bytes and nested tuples; inf, -inf, nan, -0.0 and big
ints; int / str / float subclasses and an ``IntEnum`` -- mixed with runs
of plain scalar rows, so the batched path and the conversion path meet
in one dump.  Every public renderer must match the oracle byte for byte:
``entry_line``, ``dump_trace`` with and without ``VOLATILE_ATTRS``,
``stream_trace`` at three buffer sizes, ``traces_equal``, and the
explorer's ``_TraceDigest`` fed in random chunks, across a checkpoint
fork.

Two seeded mutants -- a batch split on ``}, {`` without the ``"attrs"``
anchor, and a scalar test that admits tuples and lists -- run against
the same property and must be killed.
"""

import enum
import hashlib
import io
import json

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.analysis import export
from repro.analysis.export import (VOLATILE_ATTRS, dump_trace, entry_line,
                                   stream_trace, traces_equal)
from repro.core.checkpoint import Checkpoint
from repro.core.orchestrator import make_env
from repro.netsim.trace import TraceEntry, TraceRecorder
from repro.oracle.explore import _TraceDigest


# ----------------------------------------------------------------------
# the oracle: the per-entry renderer, verbatim
# ----------------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, (str, int, float, bool, type(None))):
        return value
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def _entry_dict(entry, excluded):
    return {"t": entry.time, "kind": entry.kind,
            "attrs": {k: _jsonable(v) for k, v in entry.attrs.items()
                      if k not in excluded}}


_encode_line = json.JSONEncoder(sort_keys=True).encode


def oracle_line(entry, excluded=()):
    return _encode_line(_entry_dict(entry, excluded))


def oracle_dump(entries, excluded=()):
    return "\n".join(oracle_line(entry, excluded) for entry in entries)


# ----------------------------------------------------------------------
# adversarial rows
# ----------------------------------------------------------------------

class Int(int):
    pass


class Str(str):
    pass


class Float(float):
    pass


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


PIECES = ('}, {"attrs": {', "}, {", "}", "{", '"', "\\", "\n", '"attrs"',
          "é", "☃", "\x00", ", ", ": ", "]")
texts = st.one_of(st.sampled_from(PIECES),
                  st.lists(st.sampled_from(PIECES + ("a", "b")),
                           max_size=5).map("".join),
                  st.text(max_size=6))
floats = st.one_of(st.sampled_from([float("inf"), float("-inf"),
                                    float("nan"), -0.0, 0.0, 1e300]),
                   st.floats())
scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(-2 ** 100, 2 ** 100), floats, texts)
subclassed = st.one_of(st.integers().map(Int), texts.map(Str),
                       floats.map(Float), st.sampled_from(list(Level)))
keys = st.one_of(st.integers(-3, 3), st.booleans(), st.none(),
                 st.tuples(st.integers(0, 2), texts), texts)
values = st.recursive(
    st.one_of(scalars, subclassed, st.binary(max_size=4),
              st.frozensets(st.integers(-5, 5), max_size=3),
              st.sets(texts, max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(keys, inner, max_size=3)),
    max_leaves=8)
#: top-level attribute names: the volatile ones, plain ones, adversarial
#: ones -- never ``t`` or ``kind``, which ``record`` takes as arguments
names = st.one_of(st.sampled_from(VOLATILE_ATTRS + ("node", "seq", "n")),
                  texts).filter(lambda name: name not in ("t", "kind"))
scalar_attrs = st.dictionaries(names, scalars, max_size=5)
any_attrs = st.dictionaries(names, st.one_of(scalars, values), max_size=5)
times = st.one_of(floats, st.integers(), floats.map(Float))
#: mostly runs of scalar rows (the batched path), some of anything
rows = st.tuples(times, texts, st.one_of(scalar_attrs, scalar_attrs,
                                         any_attrs))
#: time and kind go to the encoder unconverted, so an odd one is any JSON
#: document -- lists of dicts included, which render to the boundary
documents = st.one_of(
    st.sampled_from([[{}, {"attrs": {}}], {"attrs": {"a": "}, {"}}]),
    st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(texts, inner, max_size=3)), max_leaves=6))
#: rows whose time or kind need not be scalars either
odd_rows = st.tuples(st.one_of(times, documents),
                     st.one_of(texts, documents),
                     st.one_of(scalar_attrs, any_attrs))
row_lists = st.lists(st.one_of(rows, rows, rows, odd_rows), max_size=8)


def _entries(row_list):
    return [TraceEntry(t, kind, attrs) for t, kind, attrs in row_list]


def _recorded(row_list, trace):
    for t, kind, attrs in row_list:
        trace.record(kind, t=t, **attrs)
    return trace


def _listified(value):
    """``value`` with every tuple a list: the same JSON."""
    if isinstance(value, tuple):
        return [_listified(v) for v in value]
    return value


# ----------------------------------------------------------------------
# every renderer == the oracle
# ----------------------------------------------------------------------

def _check_renderers(row_list, other):
    entries = _entries(row_list)
    for excluded in ((), VOLATILE_ATTRS):
        names_out = frozenset(excluded)
        expected = oracle_dump(entries, names_out)
        for entry in entries:
            assert entry_line(entry, names_out) == oracle_line(entry,
                                                               names_out)
        fp = io.StringIO()
        assert dump_trace(entries, fp, exclude_attrs=excluded) == expected
        assert fp.getvalue() == (expected + "\n" if entries else "")
        for buffer_lines in (1, 3, 1024):
            streamed = io.StringIO()
            assert stream_trace(entries, streamed, exclude_attrs=excluded,
                                buffer_lines=buffer_lines) == len(entries)
            assert streamed.getvalue() == fp.getvalue()
        # ``record`` interns the kind and reads ``t=None`` as "now"
        recordable = [row for row in row_list
                      if type(row[1]) is str and row[0] is not None]
        trace = _recorded(recordable, TraceRecorder())
        assert dump_trace(trace, exclude_attrs=excluded) == oracle_dump(
            _entries(recordable), names_out)

    relisted = _entries((t, kind, {k: _listified(v) for k, v in attrs.items()})
                        for t, kind, attrs in row_list)
    assert traces_equal(entries, relisted)
    others = _entries(other)
    assert traces_equal(entries, others) == (
        [oracle_line(e) for e in entries] == [oracle_line(e) for e in others])
    assert traces_equal(entries, entries[:-1]) == (not entries)


@given(row_lists, row_lists)
@settings(max_examples=60, deadline=None)
def test_renderers_match_the_per_entry_oracle(row_list, other):
    _check_renderers(row_list, other)


# ----------------------------------------------------------------------
# the explorer's digest == sha256 of the oracle dump, across a fork
# ----------------------------------------------------------------------

recordable_rows = st.lists(st.tuples(times, texts,
                                     st.one_of(scalar_attrs, any_attrs)),
                           max_size=10)


def _oracle_digest(trace):
    text = oracle_dump(list(trace), frozenset(VOLATILE_ATTRS))
    return hashlib.sha256(text.encode()).hexdigest()


def _feed(trace, digest, row_list, cuts):
    """Record ``row_list`` into ``trace``, absorbing after each cut."""
    for index, (t, kind, attrs) in enumerate(row_list, 1):
        trace.record(kind, t=t, **attrs)
        if index in cuts:
            digest.absorb(trace)
    digest.absorb(trace)
    assert digest.position == len(trace)
    assert digest.hexdigest() == _oracle_digest(trace)


@given(recordable_rows, recordable_rows, recordable_rows,
       st.sets(st.integers(1, 10)))
@settings(max_examples=30, deadline=None)
def test_digest_in_chunks_across_a_checkpoint_fork(prefix, branch, main,
                                                   cuts):
    env = make_env()
    digest = _TraceDigest()
    _feed(env.trace, digest, prefix, cuts)
    # what the explorer does: capture, fork, and let the fork continue
    # from a copy of the prefix's digest
    checkpoint = Checkpoint.capture(env)
    assert checkpoint.position == digest.position
    forked = checkpoint.fork()
    fork_digest = digest.copy()
    _feed(forked.env.trace, fork_digest, branch, cuts)
    _feed(env.trace, digest, main, cuts)
    assert forked.env.trace.position == len(prefix) + len(branch)
    # absorbing again with nothing new changes nothing
    before = fork_digest.hexdigest()
    fork_digest.absorb(forked.env.trace)
    assert fork_digest.hexdigest() == before


# ----------------------------------------------------------------------
# mutants
# ----------------------------------------------------------------------

def _split_without_the_attrs_anchor(monkeypatch):
    monkeypatch.setattr(export, "_ROW_BREAK", "}, {")        # the mutation
    monkeypatch.setattr(export, "_LINE_BREAK", "}\n{")


def _scalar_test_admitting_tuple_and_list(monkeypatch):
    monkeypatch.setattr(export, "_SCALARS",
                        export._SCALARS | {tuple, list})     # the mutation


@pytest.mark.parametrize("mutate", [_split_without_the_attrs_anchor,
                                    _scalar_test_admitting_tuple_and_list])
def test_mutant_renderer_is_killed(monkeypatch, mutate):
    mutate(monkeypatch)

    @given(row_lists, row_lists)
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None, phases=[Phase.generate])
    def mutated(row_list, other):
        _check_renderers(row_list, other)

    # a wrong split renders wrong lines; an unconverted container
    # renders differently or is refused by the encoder (bytes, sets)
    with pytest.raises((AssertionError, TypeError)):
        mutated()
