"""Serving metrics: counters, gauges and histograms on the simulated clock.

A :class:`MetricsRegistry` is the aggregate companion of the span tracer:
where spans answer "where did *this* request's time go", the registry
answers "how many, how deep, how skewed" -- dispatch counts, queue-depth
peaks, latency histograms -- snapshotted at simulated-time instants.  A
server shares one registry across all its replicas and nodes, and the
snapshot lands in ``ServingReport.metrics``.

Like the tracer, the registry never touches the simulation: updates are
plain Python bookkeeping, and a server without one (``metrics is None``)
pays a single attribute test per hook site.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

#: Default latency-histogram bucket upper bounds (ms); the last bucket is
#: the +inf overflow.
DEFAULT_LATENCY_BOUNDS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0)

#: Default batch-size bucket bounds.
DEFAULT_SIZE_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


class Counter:
    """Monotone event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value plus its running peak."""

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def as_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value, "peak": self.peak}


class Histogram:
    """Fixed-bound bucket histogram with count/sum/min/max."""

    __slots__ = ("name", "bounds", "buckets", "count", "sum", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(bounds)
        #: ``len(bounds) + 1`` buckets; the last one is the +inf overflow.
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.buckets[index] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "sum": round(self.sum, 6),
            "min": self.min,
            "max": self.max,
            "mean": round(self.mean, 6),
        }


class MetricsRegistry:
    """Named counters/gauges/histograms for one server (or replica)."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, bounds)
        return metric

    def snapshot(self, at_ms: float = 0.0) -> Dict[str, Any]:
        """One JSON-ready view of every metric, stamped with simulated time."""
        metrics: Dict[str, Any] = {}
        for store in (self._counters, self._gauges, self._histograms):
            for name in sorted(store):
                metrics[name] = store[name].as_dict()
        return {"at_ms": round(at_ms, 6), "metrics": metrics}


# -- server hook helpers ----------------------------------------------------
#
# The servers call these behind a single ``if self.metrics is not None``
# test, so the metric names stay consistent across the serving loops.


def record_dispatch(
    metrics: MetricsRegistry, batch_size: int, queue_depth: int
) -> None:
    """One batch left the batcher for a device."""
    metrics.counter("serve.batches").inc()
    metrics.histogram("serve.batch_size", DEFAULT_SIZE_BOUNDS).observe(float(batch_size))
    metrics.gauge("serve.queue_depth").set(float(queue_depth))


def record_completion(metrics: MetricsRegistry, request: Any) -> None:
    """One request completed; fold its latency split into the histograms."""
    metrics.counter("serve.requests").inc()
    if request.slo_violated:
        metrics.counter("serve.slo_violations").inc()
    metrics.histogram("serve.latency_total_ms").observe(request.total_ms)
    metrics.histogram("serve.latency_queue_ms").observe(request.queue_ms)
    metrics.histogram("serve.latency_service_ms").observe(request.service_ms)


__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BOUNDS",
    "DEFAULT_SIZE_BOUNDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "record_completion",
    "record_dispatch",
]
