"""Model-based properties of the columnar ``TraceRecorder``.

A family of recorders (forks join it) is driven through random programs
of ``record`` (single rows and bursts, so the lazy indexes advance by
more than one row), ``rewind`` (a member replaced by its own fork at a
position, which truncates it), ``fork`` followed by a record on both
sides, ``clear`` and a pickle round trip, and compared after every step
with a reference model that is a plain list of ``(t, kind, attrs)``
tuples -- no columns, no indexes, every query a linear scan.  The
comparison goes through the whole public query surface, so a column that
falls out of step with the other two, or an index that outlives the rows
it was built over, shows up as a wrong answer.

Two seeded mutants of that truncation -- a fork that keeps the whole
kinds column, and one that hands its parent's indexes on -- run against
the same property and must be killed.
"""

import pickle

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.netsim.trace import TraceEntry, TraceRecorder

MAX_FAMILY = 4

#: recorded kinds: two dotted families sharing the prefix "tcp.s"
KINDS = ("tcp.send", "tcp.state", "tcp.drop", "gmp.beat", "gmp.commit")
#: queried kinds add one nobody records
QUERY_KINDS = KINDS + ("nope",)
PREFIXES = ("", "tcp.", "tcp.s", "gmp.", "zzz")
FILTERS = ({}, {"n": 0}, {"n": 1, "who": "a"}, {"missing": 1})
SUBSCRIPTIONS = (
    ((), ()),
    (("tcp.send",), ()),
    (("tcp.send", "gmp.beat", "nope"), ()),
    ((), ("tcp.",)),
    (("gmp.beat",), ("tcp.s",)),
    (("nope",), ("zzz",)),
    ((), ("",)),
)

member = st.integers(min_value=0, max_value=MAX_FAMILY - 1)
# loaded or merged traces need not be clock-ordered, so times are free
times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
attr_sets = st.fixed_dictionaries(
    {}, optional={"n": st.integers(0, 2), "who": st.sampled_from("ab"),
                  "path": st.tuples(st.integers(0, 3))})
rows = st.tuples(times, st.sampled_from(KINDS), attr_sets)
fraction = st.floats(min_value=0.0, max_value=1.0)

operations = st.one_of(
    st.tuples(st.just("record"), member, rows),
    st.tuples(st.just("burst"), member, st.lists(rows, max_size=6)),
    st.tuples(st.just("rewind"), member, fraction),
    st.tuples(st.just("fork"), member, st.none() | fraction, rows, rows),
    st.tuples(st.just("clear"), member),
    st.tuples(st.just("pickle"), member),
)
programs = (st.lists(rows, max_size=8),
            st.lists(operations, min_size=1, max_size=25))


def _record(trace, model, row):
    t, kind, attrs = row
    assert trace.record(kind, t=t, **attrs) is None
    model.append((t, kind, dict(attrs)))


def _matches(row, kind, wanted):
    return ((kind is None or row[1] == kind)
            and all(row[2].get(k) == v for k, v in wanted.items()))


def _entries(model_rows):
    return [TraceEntry(*row) for row in model_rows]


def _check(trace, model):
    assert len(trace) == trace.position == len(model)
    assert list(trace) == _entries(model)
    assert trace.entries() == _entries(model)
    for position in {0, len(model) // 2, len(model)}:
        assert list(trace.rows(position)) == model[position:]
    histogram = {}
    for _t, kind, _attrs in model:
        histogram[kind] = histogram.get(kind, 0) + 1
    by_kind = trace.count_by_kind()
    assert by_kind == histogram
    assert list(by_kind) == list(histogram)  # first-capture order
    for prefix in PREFIXES:
        assert trace.count_by_kind(prefix) == {
            kind: n for kind, n in histogram.items()
            if kind.startswith(prefix)}
    for wanted in FILTERS:
        for kind in QUERY_KINDS + (None,):
            expected = [row for row in model if _matches(row, kind, wanted)]
            assert trace.entries(kind, **wanted) == _entries(expected)
            if kind is None:
                continue
            assert trace.count(kind, **wanted) == len(expected)
            assert trace.times(kind, **wanted) == [row[0]
                                                   for row in expected]
            for query, end in ((trace.first, 0), (trace.last, -1)):
                assert query(kind, **wanted) == (
                    TraceEntry(*expected[end]) if expected else None)
        for prefix in PREFIXES:
            assert [entry for entry in trace.iter_subscribed(prefixes=[prefix])
                    if _matches((entry.time, entry.kind, entry.attrs), None,
                                wanted)] == _entries(
                row for row in model
                if row[1].startswith(prefix) and _matches(row, None, wanted))
    for kinds, prefixes in SUBSCRIPTIONS:
        assert list(trace.iter_subscribed(kinds, prefixes)) == _entries(
            row for row in model
            if row[1] in kinds or any(row[1].startswith(p)
                                      for p in prefixes))


def _run_program(initial, ops):
    trace, model = TraceRecorder(), []
    for row in initial:
        _record(trace, model, row)
    family = [(trace, model)]
    _check(trace, model)
    for op in ops:
        name, index = op[0], op[1] % len(family)
        trace, model = family[index]
        if name == "record":
            _record(trace, model, op[2])
        elif name == "burst":
            for row in op[2]:
                _record(trace, model, row)
        elif name == "rewind":
            position = round(op[2] * len(model))
            trace, model = trace.fork(position), model[:position]
            family[index] = (trace, model)
        elif name == "fork":
            position = None if op[2] is None else round(op[2] * len(model))
            fork, forked_model = trace.fork(position), list(model[:position])
            # the prefix is shared row for row, never copied
            assert all(a.attrs is b.attrs for a, b in zip(fork, trace))
            _record(trace, model, op[3])
            _record(fork, forked_model, op[4])
            _check(fork, forked_model)
            if len(family) < MAX_FAMILY:
                family.append((fork, forked_model))
        elif name == "clear":
            trace.clear()
            model.clear()
        elif name == "pickle":
            trace = pickle.loads(pickle.dumps(trace))
            family[index] = (trace, model)
        _check(trace, model)
    # nobody's writes reached anybody else
    for trace, model in family:
        _check(trace, model)


@given(*programs)
@settings(max_examples=150, deadline=None)
def test_recorder_matches_the_list_of_tuples_model(initial, ops):
    _run_program(initial, ops)


def _truncate_forgetting_the_kinds_column(monkeypatch):
    real_fork = TraceRecorder.fork

    def fork(self, position=None):
        clone = real_fork(self, position)
        clone._kinds = list(self._kinds)                # the mutation
        return clone

    monkeypatch.setattr(TraceRecorder, "fork", fork)


def _truncate_keeping_the_indexes(monkeypatch):
    real_fork = TraceRecorder.fork

    def fork(self, position=None):
        clone = real_fork(self, position)
        clone._kind_index = {kind: list(bucket)         # the mutation
                             for kind, bucket in self._kind_index.items()}
        clone._kind_upto = self._kind_upto
        return clone

    monkeypatch.setattr(TraceRecorder, "fork", fork)


@pytest.mark.parametrize("mutate", [_truncate_forgetting_the_kinds_column,
                                    _truncate_keeping_the_indexes])
def test_mutant_truncate_is_killed(monkeypatch, mutate):
    mutate(monkeypatch)

    @given(*programs)
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None, phases=[Phase.generate])
    def mutated(initial, ops):
        _run_program(initial, ops)

    # a stale index or a long column answers wrongly or points past the
    # end of the other columns, whichever the program reaches first
    with pytest.raises((AssertionError, IndexError)):
        mutated()
