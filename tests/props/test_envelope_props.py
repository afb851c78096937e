"""``unseal`` over damaged envelopes: the exact object or ``EnvelopeError``.

A campaign directory's store entries and ``spec.pkl`` are read back by
other processes, after torn writes and flipped bits.  Starting from
``seal(obj)`` for a few objects, every drawn damage -- bytes flipped,
inserted, deleted or appended, the blob truncated, several at once --
must either give back the sealed object exactly or raise
``EnvelopeError``: never another exception, never a different object,
and never a slow decode (each call finishes within 50 ms).
"""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.envelope import EnvelopeError, seal, unseal

OBJECTS = [
    {"seed": 5, "configs": [{"protocol": "gmp", "target": "fixed"}],
     "depth": 12.5, "label": "sweep ü", "blob": b"\x00\x80."},
    list(range(300)),
    ("tuple", None, True, -0.5, frozenset({1, 2})),
    "",
]

_AT = st.integers(0, 10**6)
_EDIT = st.one_of(
    st.tuples(st.just("flip"), _AT, st.integers(1, 255)),
    st.tuples(st.just("insert"), _AT, st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("delete"), _AT, st.integers(1, 8)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("truncate"), _AT),
)


def damage(blob: bytes, edits) -> bytes:
    data = bytearray(blob)
    for edit in edits:
        kind, *args = edit
        if kind == "append":
            data += args[0]
            continue
        at = args[0] % (len(data) + 1)
        if kind == "flip" and at < len(data):
            data[at] ^= args[1]
        elif kind == "insert":
            data[at:at] = args[1]
        elif kind == "delete":
            del data[at:at + args[1]]
        elif kind == "truncate":
            del data[at:]
    return bytes(data)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(range(len(OBJECTS))),
       st.lists(_EDIT, min_size=1, max_size=4))
def test_damaged_envelope_is_the_object_or_an_envelope_error(which, edits):
    obj = OBJECTS[which]
    blob = damage(seal(obj), edits)
    started = time.perf_counter()
    try:
        result = unseal(blob)
    except EnvelopeError:
        pass
    else:
        assert result == obj and type(result) is type(obj)
    assert time.perf_counter() - started < 0.05


@given(st.sampled_from(range(len(OBJECTS))))
def test_an_intact_envelope_unseals_to_its_object(which):
    assert unseal(seal(OBJECTS[which])) == OBJECTS[which]
