"""Property-based tests on whole-protocol invariants under fault injection.

These drive the real TCP machinery through randomized loss patterns and
assert the end-to-end reliability invariant: if the connection survives,
the receiver got exactly the sent bytes, in order, once.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.genscripts import FailureModel, is_at_least_as_severe
from tests.tcp.conftest import ConnPair


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.0, max_value=0.3))
@settings(max_examples=20, deadline=None)
def test_tcp_delivers_exactly_once_under_loss(seed, loss_rate):
    import random
    rng = random.Random(seed)
    pair = ConnPair().establish()
    pair.pipe.drop_a_to_b = lambda seg: rng.random() < loss_rate
    pair.pipe.drop_b_to_a = lambda seg: rng.random() < loss_rate
    payload = bytes(rng.randrange(256) for _ in range(1500))
    pair.a.send(payload)
    pair.run(600.0)
    if pair.a.state != "CLOSED":
        assert bytes(pair.b.delivered) == payload


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_tcp_survives_moderate_loss(seed):
    """With 10% loss and 12 retransmissions, transfers complete."""
    import random
    rng = random.Random(seed)
    pair = ConnPair().establish()
    pair.pipe.drop_a_to_b = lambda seg: rng.random() < 0.10
    payload = b"M" * 2048
    pair.a.send(payload)
    pair.run(900.0)
    assert bytes(pair.b.delivered) == payload


@given(st.sampled_from(list(FailureModel)),
       st.sampled_from(list(FailureModel)))
def test_severity_relation_is_antisymmetric(a, b):
    if a != b:
        assert not (is_at_least_as_severe(a, b)
                    and is_at_least_as_severe(b, a))


@given(st.sampled_from(list(FailureModel)))
def test_severity_relation_is_reflexive(model):
    assert is_at_least_as_severe(model, model)


@given(st.sampled_from(list(FailureModel)),
       st.sampled_from(list(FailureModel)),
       st.sampled_from(list(FailureModel)))
def test_severity_relation_is_transitive(a, b, c):
    if is_at_least_as_severe(a, b) and is_at_least_as_severe(b, c):
        assert is_at_least_as_severe(a, c)
