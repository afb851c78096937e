"""Metrics registry: get-or-create, labels, snapshots, pickling."""

import pickle

import pytest

from repro.obs.metrics import Counter, Gauge, MetricsRegistry


class TestGetOrCreate:
    def test_same_name_and_labels_share_one_counter(self):
        registry = MetricsRegistry()
        a = registry.counter("pfi_dropped", node="m1")
        b = registry.counter("pfi_dropped", node="m1")
        assert a is b

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("x", node="m1", direction="send")
        b = registry.counter("x", direction="send", node="m1")
        assert a is b

    def test_different_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        a = registry.counter("pfi_dropped", node="m1")
        b = registry.counter("pfi_dropped", node="m2")
        assert a is not b
        a.inc(3)
        assert b.value == 0

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", node="m1")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x", node="m1")


class TestValues:
    def test_counter_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_sets(self):
        gauge = Gauge("g")
        gauge.set(7.5)
        gauge.set(2)
        assert gauge.value == 2


class TestSnapshot:
    def test_snapshot_keys_carry_labels(self):
        registry = MetricsRegistry()
        registry.counter("pfi_dropped", node="m1").inc(2)
        registry.gauge("now").set(1.5)
        snap = registry.snapshot()
        assert snap["pfi_dropped{node=m1}"] == 2
        assert snap["now"] == 1.5

    def test_render_is_prefix_filterable(self):
        registry = MetricsRegistry()
        registry.counter("pfi_dropped", node="m1").inc()
        registry.gauge("scheduler_now_s").set(3.0)
        text = registry.render(prefix="pfi_")
        assert "pfi_dropped{node=m1}" in text
        assert "scheduler_now_s" not in text


class TestMerge:
    """What a registry is when it travels between processes."""

    def test_registry_pickles_across_processes(self):
        registry = MetricsRegistry()
        registry.counter("c", node="w0").inc(4)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.snapshot() == registry.snapshot()
