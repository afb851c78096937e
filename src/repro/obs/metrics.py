"""The metrics registry: labelled counters and gauges.

A :class:`MetricsRegistry` is what ``repro report`` builds from a trace
(:func:`repro.obs.report.trace_metrics`) and what an oracle verdict
fills (:meth:`repro.oracle.invariants.OracleReport.fill_metrics`).
Metrics are identified by a name plus a frozen label set, so
``registry.counter("pfi_dropped", node="machine1")`` and the same name on
``machine2`` are distinct series, exactly like a Prometheus exposition.
:meth:`MetricsRegistry.snapshot` is a plain dict keyed
``name{label=value,...}`` suitable for JSON, diffing, or assertions.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

LabelKey = Tuple[str, Tuple[Tuple[str, Any], ...]]


def _label_suffix(labels: Tuple[Tuple[str, Any], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: Tuple[Tuple[str, Any], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}{_label_suffix(self.labels)}={self.value})"


class Gauge:
    """A point-in-time value (pending events, cache size, clock)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: Tuple[Tuple[str, Any], ...] = ()):
        self.name = name
        self.labels = labels
        self.value: Any = 0

    def set(self, value: Any) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}{_label_suffix(self.labels)}={self.value})"


class MetricsRegistry:
    """Get-or-create store of metrics, keyed by (name, labels)."""

    def __init__(self):
        self._metrics: Dict[LabelKey, Any] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def _get(self, cls, name: str, labels: Dict[str, Any]):
        key = (name, tuple(sorted(labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1])
            self._metrics[key] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"cannot re-register as {cls.kind}")
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for (name, labels), created on first use."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge for (name, labels), created on first use."""
        return self._get(Gauge, name, labels)

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def snapshot(self) -> Dict[str, Any]:
        """Flat ``{"name{label=v,...}": value}`` dict of every metric.

        Keys sort stably.
        """
        out: Dict[str, Any] = {}
        for (name, labels), metric in sorted(self._metrics.items()):
            out[f"{name}{_label_suffix(labels)}"] = metric.value
        return out

    def render(self, *, prefix: str = "") -> str:
        """Human-readable table, optionally restricted by name prefix."""
        rows = [(key, str(value)) for key, value in self.snapshot().items()
                if key.startswith(prefix)]
        if not rows:
            return "(no metrics)"
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {text}" for name, text in rows)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"
