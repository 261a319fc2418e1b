"""The observability layer: primitives, snapshots, and broker integration."""

from __future__ import annotations

import pytest

from repro import RuntimeConfig, open_broker
from repro.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    snapshot_delta,
)
from tests.conftest import make_blog_article, make_book_announcement

CROSS = (
    "S//book->x1[.//author->x2] "
    "FOLLOWED BY{x2=x5, 100} "
    "S//blog->x4[.//author->x5]"
)


# --------------------------------------------------------------------------- #
# histogram primitives
# --------------------------------------------------------------------------- #
def test_histogram_records_and_reports_tails():
    hist = Histogram()
    for value in (0.001, 0.002, 0.003, 0.010, 0.500):
        hist.record(value)
    assert hist.count == 5
    assert hist.max == 0.500
    assert hist.min == 0.001
    assert hist.mean == pytest.approx(0.1032)
    # Quantiles are clamped to the observed range and exact at the top.
    assert hist.percentile(1.0) == 0.500
    assert hist.min <= hist.percentile(0.5) <= hist.max
    assert hist.percentile(0.5) < 0.01


def test_histogram_empty_percentile_is_zero():
    assert Histogram().percentile(0.99) == 0.0
    assert Histogram().mean == 0.0


def test_histogram_snapshot_roundtrip_preserves_buckets():
    hist = Histogram()
    for value in (0.0005, 0.004, 0.004, 2.0):
        hist.record(value)
    rebuilt = Histogram.from_snapshot(hist.snapshot())
    assert rebuilt.counts == hist.counts
    assert rebuilt.count == hist.count
    assert rebuilt.total == pytest.approx(hist.total)
    assert rebuilt.min == pytest.approx(hist.min)
    assert rebuilt.max == pytest.approx(hist.max)
    assert rebuilt.percentile(0.95) == pytest.approx(hist.percentile(0.95))


def test_histogram_merge_requires_same_bounds():
    a, b = Histogram(), Histogram(bounds=(0.1, 1.0))
    with pytest.raises(ValueError):
        a.merge(b)


def test_histogram_merge_accumulates():
    a, b = Histogram(), Histogram()
    for v in (0.001, 0.002):
        a.record(v)
    for v in (0.5, 1.5):
        b.record(v)
    a.merge(b)
    assert a.count == 4
    assert a.max == 1.5
    assert a.min == 0.001
    assert sum(a.counts) == 4


def test_default_bounds_are_sorted_and_cover_seconds():
    assert list(DEFAULT_LATENCY_BOUNDS) == sorted(DEFAULT_LATENCY_BOUNDS)
    assert DEFAULT_LATENCY_BOUNDS[0] <= 1e-6
    assert DEFAULT_LATENCY_BOUNDS[-1] >= 100.0


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
def test_registry_counters_gauges_and_timer():
    registry = MetricsRegistry()
    registry.counter("docs").inc()
    registry.counter("docs").inc(2)
    registry.gauge("live").set(5)
    registry.gauge("live").dec()
    with registry.timer("stage:test"):
        pass
    snap = registry.snapshot()
    assert snap["counters"]["docs"] == 3
    assert snap["gauges"]["live"] == 4
    assert snap["histograms"]["stage:test"]["count"] == 1


def test_registry_delivery_lag_per_subscription():
    registry = MetricsRegistry()
    assert registry.subscription_lag("missing") is None
    registry.record_delivery_lag("s1", 0.010)
    registry.record_delivery_lag("s1", 0.030)
    registry.record_delivery_lag("s2", 0.001)
    lag = registry.subscription_lag("s1")
    assert lag["count"] == 2
    assert lag["mean_ms"] == pytest.approx(20.0)
    assert lag["max_ms"] == pytest.approx(30.0)
    assert registry.snapshot()["histograms"]["delivery_lag"]["count"] == 3


def test_registry_snapshot_trims_to_worst_subscriptions():
    registry = MetricsRegistry()
    for i in range(20):
        registry.record_delivery_lag(f"s{i}", i / 1000.0)
    lag = registry.snapshot(worst_subscriptions=3)["subscription_lag"]
    assert lag["tracked"] == 20
    assert set(lag["worst"]) == {"s19", "s18", "s17"}


# --------------------------------------------------------------------------- #
# merge and delta
# --------------------------------------------------------------------------- #
def test_merge_snapshots_sums_and_merges():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("docs").inc(2)
    b.counter("docs").inc(3)
    a.gauge("rows").set(10)
    b.gauge("rows").set(4)
    a.histogram("lat").record(0.001)
    b.histogram("lat").record(1.0)
    a.record_delivery_lag("s1", 0.5)
    b.record_delivery_lag("s2", 0.1)
    merged = merge_snapshots([a.snapshot(), None, b.snapshot()])
    assert merged["counters"]["docs"] == 5
    assert merged["gauges"]["rows"] == 14
    lat = merged["histograms"]["lat"]
    assert lat["count"] == 2
    assert lat["max_ms"] == pytest.approx(1000.0)
    assert merged["subscription_lag"]["tracked"] == 2
    # The union is re-trimmed to the longest input list (1 entry here),
    # keeping the worst subscription overall.
    assert set(merged["subscription_lag"]["worst"]) == {"s1"}


def test_snapshot_delta_isolates_an_interval():
    registry = MetricsRegistry()
    registry.counter("docs").inc(2)
    registry.histogram("lat").record(0.001)
    before = registry.snapshot()
    registry.counter("docs").inc(5)
    for _ in range(3):
        registry.histogram("lat").record(0.010)
    delta = snapshot_delta(before, registry.snapshot())
    assert delta["counters"]["docs"] == 5
    lat = delta["histograms"]["lat"]
    assert lat["count"] == 3
    # Quantiles come from the difference buckets: only the 10ms samples.
    assert lat["p50_ms"] > 5.0


def test_snapshot_delta_without_previous_is_identity():
    registry = MetricsRegistry()
    registry.counter("docs").inc()
    snap = registry.snapshot()
    assert snapshot_delta(None, snap) is snap


# --------------------------------------------------------------------------- #
# config knob
# --------------------------------------------------------------------------- #
def test_metrics_follow_the_config():
    assert RuntimeConfig.__dataclass_fields__["metrics"].default is False
    for metrics in (False, True):
        with open_broker(RuntimeConfig(metrics=metrics, executor="serial")) as broker:
            assert (broker.metrics is not None) is metrics
            assert (broker.engine.metrics is not None) is metrics


# --------------------------------------------------------------------------- #
# broker integration
# --------------------------------------------------------------------------- #
def _run_broker(config: RuntimeConfig):
    with open_broker(config) as broker:
        broker.subscribe(CROSS, subscription_id="cross")
        deliveries = []
        deliveries.extend(broker.publish(make_book_announcement("b1", 1.0)))
        deliveries.extend(
            broker.publish_many(
                [
                    make_blog_article("g1", 2.0),
                    make_blog_article("g2", 3.0),
                ]
            )
        )
        stats = broker.stats()
        snapshot = broker.metrics_snapshot()
    return deliveries, stats, snapshot


@pytest.mark.parametrize("shards", [1, 2])
def test_broker_metrics_off_by_default(shards):
    deliveries, stats, snapshot = _run_broker(RuntimeConfig(shards=shards))
    assert len(deliveries) == 2
    assert stats["metrics"] is None
    assert snapshot is None


@pytest.mark.parametrize("shards", [1, 2])
def test_broker_metrics_snapshot_counts_documents_and_lag(shards):
    deliveries, stats, snapshot = _run_broker(
        RuntimeConfig(shards=shards, metrics=True)
    )
    assert len(deliveries) == 2
    assert snapshot["counters"]["documents_published"] == 3
    assert snapshot["counters"]["results_delivered"] == 2
    assert snapshot["histograms"]["publish_latency"]["count"] == 1
    assert snapshot["histograms"]["publish_batch_latency"]["count"] == 1
    lag = snapshot["histograms"]["delivery_lag"]
    assert lag["count"] == 2
    assert lag["max_ms"] > 0.0
    worst = snapshot["subscription_lag"]["worst"]
    assert set(worst) == {"cross"}
    assert worst["cross"]["count"] == 2
    assert stats["metrics"]["counters"] == snapshot["counters"]


def test_broker_metrics_include_engine_stage_timers():
    _, _, snapshot = _run_broker(RuntimeConfig(metrics=True))
    assert snapshot["histograms"]["stage:stage1"]["count"] == 3


def test_delivery_lag_crosses_the_process_pipe():
    _, _, snapshot = _run_broker(
        RuntimeConfig(shards=2, executor="processes", metrics=True)
    )
    # Worker-side stage timers are fetched over the pipe and merged...
    assert snapshot["histograms"]["stage:stage1"]["count"] == 3
    # ...and matches carry their publish stamps across the wire, so lag
    # is measured publish→sink even with process-isolated shards.
    lag = snapshot["histograms"]["delivery_lag"]
    assert lag["count"] == 2
    assert lag["max_ms"] > 0.0
    assert snapshot["subscription_lag"]["worst"]["cross"]["count"] == 2


@pytest.mark.parametrize("engine", ["mmqjp", "sequential"])
@pytest.mark.parametrize("shards", [1, 2])
def test_metrics_do_not_change_match_sets(engine, shards):
    def keys(metrics: bool):
        with open_broker(
            RuntimeConfig(engine=engine, shards=shards, metrics=metrics)
        ) as broker:
            broker.subscribe(CROSS, subscription_id="cross")
            out = []
            out.extend(broker.publish(make_book_announcement("b1", 1.0)))
            out.extend(broker.publish_many([make_blog_article("g1", 2.0)]))
            return [(d.subscription_id, d.match.key()) for d in out if d.match]

    assert keys(False) == keys(True)
