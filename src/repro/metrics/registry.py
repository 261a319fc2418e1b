"""Lightweight runtime metrics: counters, gauges and fixed-bucket histograms.

The observability layer behind ``RuntimeConfig(metrics=True)``.  Every
primitive is a plain Python object with O(1) record cost and no locks (the
brokers record from the delivery thread; worker processes own independent
registries whose snapshots are merged broker-side):

* :class:`Counter` / :class:`Gauge` — monotone and instantaneous values.
* :class:`Histogram` — a fixed-bucket latency histogram (log-spaced bounds,
  microseconds to minutes) reporting p50/p95/p99 and max by bucket
  interpolation.  Snapshots carry the raw bucket counts, so per-shard and
  per-process snapshots merge exactly (:func:`merge_snapshots`).
* :class:`MetricsRegistry` — the named collection threaded through the
  engines and brokers, with a :meth:`~MetricsRegistry.timer` context
  manager generalizing :class:`repro.core.costs.CostBreakdown` (which can
  mirror its per-phase measurements into a registry, see
  :meth:`repro.core.costs.CostBreakdown.attach_metrics`) and compact
  per-subscription delivery-lag accounting
  (:meth:`~MetricsRegistry.record_delivery_lag`) that stays cheap at 10⁵+
  live subscriptions.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from time import perf_counter
from typing import Iterable, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BOUNDS",
    "merge_snapshots",
    "snapshot_delta",
]


def _latency_bounds() -> tuple[float, ...]:
    """Log-spaced bucket upper bounds: 1µs .. 100s, four buckets per decade."""
    bounds = []
    for exponent in range(-6, 2):
        for mantissa in (1.0, 1.778, 3.162, 5.623):
            bounds.append(round(mantissa * 10.0**exponent, 12))
    bounds.append(100.0)
    return tuple(bounds)


#: Default histogram bounds (seconds): every latency histogram in the stack
#: uses these, so snapshots from different processes merge bucket-for-bucket.
DEFAULT_LATENCY_BOUNDS = _latency_bounds()


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.value}>"


class Gauge:
    """An instantaneous value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.value}>"


class Histogram:
    """A fixed-bucket histogram of non-negative samples (seconds by default).

    ``bounds`` are the bucket *upper* bounds; samples above the last bound
    land in an overflow bucket.  Quantiles are estimated by linear
    interpolation inside the covering bucket and clamped to the observed
    ``[min, max]`` range, so they are exact at the tails that matter
    (``max`` is tracked directly) and within one bucket's resolution
    (~±30% with the default four-buckets-per-decade bounds) elsewhere.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def record(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def percentile(self, q: float) -> float:
        """The estimated ``q``-quantile (``q`` in [0, 1]) of the samples."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.min), self.max)
            cumulative += bucket_count
        return self.max  # pragma: no cover - unreachable (rank <= count)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> "Histogram":
        """Accumulate another histogram (same bounds) into this one."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def snapshot(self) -> dict:
        """A JSON-safe summary carrying the raw (nonzero) bucket counts.

        ``buckets`` maps bucket index → count, so snapshots taken in
        different processes (same default bounds) merge exactly via
        :func:`merge_snapshots`; quantiles are always recomputed from the
        merged buckets, never averaged.
        """
        return {
            "count": self.count,
            "sum_s": self.total,
            "mean_ms": self.mean * 1000.0,
            "min_ms": (self.min if self.count else 0.0) * 1000.0,
            "max_ms": self.max * 1000.0,
            "p50_ms": self.percentile(0.50) * 1000.0,
            "p95_ms": self.percentile(0.95) * 1000.0,
            "p99_ms": self.percentile(0.99) * 1000.0,
            "buckets": {str(i): c for i, c in enumerate(self.counts) if c},
        }

    @classmethod
    def from_snapshot(cls, snap: dict, bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS) -> "Histogram":
        """Rebuild a histogram from a :meth:`snapshot` (for merging)."""
        hist = cls(bounds)
        for index, count in snap.get("buckets", {}).items():
            hist.counts[int(index)] += count
        hist.count = snap.get("count", 0)
        hist.total = snap.get("sum_s", 0.0)
        if hist.count:
            hist.min = snap.get("min_ms", 0.0) / 1000.0
            hist.max = snap.get("max_ms", 0.0) / 1000.0
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Histogram n={self.count} p50={self.percentile(0.5) * 1e3:.3f}ms "
            f"p99={self.percentile(0.99) * 1e3:.3f}ms max={self.max * 1e3:.3f}ms>"
        )


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    One registry lives on each broker (publish latency, delivery lag,
    delivery counters) and one on each engine (per-stage timers — in the
    process runtime these live in the worker and are fetched as snapshots);
    :meth:`snapshot` output from any number of registries merges through
    :func:`merge_snapshots`.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        # subscription id -> [deliveries, total lag seconds, max lag seconds]
        self._subscription_lag: dict[str, list] = {}

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge()
        return gauge

    def histogram(self, name: str, bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(bounds)
        return histogram

    @contextmanager
    def timer(self, name: str):
        """Time a block of code into the histogram ``name`` (seconds)."""
        start = perf_counter()
        try:
            yield
        finally:
            self.histogram(name).record(perf_counter() - start)

    # ------------------------------------------------------------------ #
    # delivery lag
    # ------------------------------------------------------------------ #
    def record_delivery_lag(self, subscription_id: str, seconds: float) -> None:
        """Record one publish→sink-delivery lag sample for a subscription.

        Feeds the global ``delivery_lag`` histogram (quantiles) plus a
        compact per-subscription ``[count, total, max]`` triple — full
        per-subscription histograms would not stay cheap at 10⁵+ live
        subscriptions.
        """
        self.histogram("delivery_lag").record(seconds)
        slot = self._subscription_lag.get(subscription_id)
        if slot is None:
            self._subscription_lag[subscription_id] = [1, seconds, seconds]
            return
        slot[0] += 1
        slot[1] += seconds
        if seconds > slot[2]:
            slot[2] = seconds

    def subscription_lag(self, subscription_id: str) -> Optional[dict]:
        """Lag summary of one subscription (``None`` before any delivery)."""
        slot = self._subscription_lag.get(subscription_id)
        if slot is None:
            return None
        count, total, worst = slot
        return {
            "count": count,
            "mean_ms": total / count * 1000.0,
            "max_ms": worst * 1000.0,
        }

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #
    def snapshot(self, worst_subscriptions: int = 10) -> dict:
        """A JSON-safe snapshot of every metric in this registry.

        ``subscription_lag`` reports only the ``worst_subscriptions``
        highest-max-lag subscriptions (plus the total tracked count), so a
        million-subscription registry snapshots in bounded space.
        """
        worst = sorted(
            self._subscription_lag.items(), key=lambda kv: kv[1][2], reverse=True
        )[: max(worst_subscriptions, 0)]
        return {
            "counters": {name: c.value for name, c in self.counters.items()},
            "gauges": {name: g.value for name, g in self.gauges.items()},
            "histograms": {
                name: h.snapshot() for name, h in self.histograms.items()
            },
            "subscription_lag": {
                "tracked": len(self._subscription_lag),
                "worst": {
                    sid: {
                        "count": slot[0],
                        "mean_ms": slot[1] / slot[0] * 1000.0,
                        "max_ms": slot[2] * 1000.0,
                    }
                    for sid, slot in worst
                },
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetricsRegistry counters={len(self.counters)} "
            f"gauges={len(self.gauges)} histograms={len(self.histograms)}>"
        )


def merge_snapshots(snapshots: Iterable[Optional[dict]]) -> dict:
    """Merge registry snapshots (shards, workers, broker) into one.

    Counters sum, gauges sum (every gauge in the stack is a size, so the
    across-shards total is the meaningful aggregate), histograms merge
    bucket-for-bucket and recompute their quantiles, and the worst-lag
    subscription lists union (re-trimmed to the longest input list).
    ``None`` entries (metrics disabled somewhere) are skipped.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, Histogram] = {}
    lag_tracked = 0
    lag_worst: dict[str, dict] = {}
    worst_limit = 0
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            gauges[name] = gauges.get(name, 0.0) + value
        for name, hist_snap in snap.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = Histogram.from_snapshot(hist_snap)
            else:
                merged.merge(Histogram.from_snapshot(hist_snap))
        lag = snap.get("subscription_lag")
        if lag:
            lag_tracked += lag.get("tracked", 0)
            worst = lag.get("worst", {})
            worst_limit = max(worst_limit, len(worst))
            # Subscriptions are owned by exactly one broker/shard, so the
            # per-sid entries never collide; keep the worse one defensively.
            for sid, entry in worst.items():
                seen = lag_worst.get(sid)
                if seen is None or entry["max_ms"] > seen["max_ms"]:
                    lag_worst[sid] = entry
    trimmed = dict(
        sorted(lag_worst.items(), key=lambda kv: kv[1]["max_ms"], reverse=True)[
            :worst_limit
        ]
    )
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": {name: h.snapshot() for name, h in histograms.items()},
        "subscription_lag": {"tracked": lag_tracked, "worst": trimmed},
    }


def snapshot_delta(prev: Optional[dict], cur: dict) -> dict:
    """The metrics accumulated between two snapshots (``cur`` minus ``prev``).

    Counters subtract, and histograms subtract bucket-for-bucket with the
    quantiles recomputed from the difference buckets — per-phase
    p50/p95/p99 from one cumulative registry.  ``min_ms``/``max_ms`` cannot be un-merged and are carried
    from ``cur`` (a conservative envelope over the interval).  Gauges and
    the subscription-lag summary are instantaneous views and carried from
    ``cur`` unchanged.  ``prev=None`` returns ``cur`` as-is.
    """
    if not prev:
        return cur
    counters = {
        name: value - prev.get("counters", {}).get(name, 0)
        for name, value in cur.get("counters", {}).items()
    }
    histograms: dict[str, dict] = {}
    prev_hists = prev.get("histograms", {})
    for name, cur_snap in cur.get("histograms", {}).items():
        hist = Histogram.from_snapshot(cur_snap)
        prev_snap = prev_hists.get(name)
        if prev_snap:
            before = Histogram.from_snapshot(prev_snap)
            for i, c in enumerate(before.counts):
                hist.counts[i] -= c
            hist.count -= before.count
            hist.total -= before.total
        histograms[name] = hist.snapshot()
    return {
        "counters": counters,
        "gauges": dict(cur.get("gauges", {})),
        "histograms": histograms,
        "subscription_lag": cur.get("subscription_lag", {}),
    }
