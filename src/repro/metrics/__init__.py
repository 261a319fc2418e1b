"""Observability layer: counters, gauges, latency histograms, delivery lag.

Enabled with ``RuntimeConfig(metrics=True)``; disabled, the hot path pays
a single attribute check.
See :mod:`repro.metrics.registry` for the primitives and
``broker.stats()["metrics"]`` for the merged runtime snapshot.
"""

from repro.metrics.registry import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    snapshot_delta,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BOUNDS",
    "merge_snapshots",
    "snapshot_delta",
]
