"""The million-user stress harness: ramp, steady, burst and churn phases.

:func:`run_stress` drives one broker through the lifecycle a large pub/sub
deployment actually sees:

* **ramp** — subscribe in chunks up to the target population, publishing a
  probe batch between chunks (the per-chunk wall times expose any
  super-linear per-subscribe cost);
* **steady** — single-document publishes against the full population (the
  interactive latency path);
* **burst** — ``publish_many`` batches (the high-rate ingestion path);
* **churn** — interleaved cancel + resubscribe cycles with publishes mixed
  in (the retraction path at scale).

Latency tails come from the broker's metrics registry
(``RuntimeConfig(metrics=True)`` is required): per phase, the harness
reports p50/p95/p99 publish latency and delivery lag computed from
snapshot *deltas* (:func:`repro.metrics.snapshot_delta`), so each phase's
distribution is isolated even though the registry accumulates.

The workload is the DBLP-style corpus of :mod:`repro.workloads.dblp`:
venues as streams, Zipf venue/author reuse, a handful of subscription
shapes sharing a handful of templates.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.config import RuntimeConfig
from repro.metrics import snapshot_delta
from repro.workloads.dblp import (
    DblpWorkloadConfig,
    ZipfSampler,
    generate_article,
    generate_dblp_subscription,
)

__all__ = ["StressConfig", "run_stress"]


@dataclass
class StressConfig:
    """Parameters of one stress run.

    The defaults are the headline configuration: 10⁵ subscriptions with
    every phase exercised.  Smoke runs shrink every knob (see
    ``tests/test_stress.py``); scaling ``subscriptions`` to 10⁶ is a
    matter of patience, not code.
    """

    subscriptions: int = 100_000
    runtime: Optional[RuntimeConfig] = None
    workload: DblpWorkloadConfig = field(default_factory=DblpWorkloadConfig)
    ramp_chunk: int = 10_000
    ramp_probe_documents: int = 10
    steady_documents: int = 300
    burst_count: int = 10
    burst_size: int = 100
    churn_cycles: int = 500
    churn_publish_every: int = 25
    seed: int = 23

    def resolve_runtime(self) -> RuntimeConfig:
        """The broker config (metrics forced on — the harness needs tails)."""
        config = self.runtime
        if config is None:
            config = RuntimeConfig(construct_outputs=False)
        if not config.metrics:
            config = config.replace(metrics=True)
        return config


class _Corpus:
    """A continuous article stream plus a subscription generator."""

    def __init__(self, config: DblpWorkloadConfig, seed: int):
        self.config = config
        self.rng = random.Random(seed)
        self.venues = ZipfSampler(config.num_venues, config.venue_theta, self.rng)
        self.authors = ZipfSampler(config.num_authors, config.author_theta, self.rng)
        self.doc_sequence = 0
        self.sub_sequence = 0

    def next_document(self):
        document = generate_article(
            self.config, self.doc_sequence, self.rng, self.venues, self.authors
        )
        self.doc_sequence += 1
        return document

    def next_documents(self, count: int) -> list:
        return [self.next_document() for _ in range(count)]

    def next_subscription(self) -> str:
        query = generate_dblp_subscription(
            self.config, self.sub_sequence, self.rng, self.venues
        )
        self.sub_sequence += 1
        return query


def _phase_summary(delta: dict, seconds: float) -> dict:
    """Compress one phase's metrics delta into the reported summary."""
    histograms = delta.get("histograms", {})
    counters = delta.get("counters", {})

    def latency(name: str) -> Optional[dict]:
        snap = histograms.get(name)
        if not snap or not snap.get("count"):
            return None
        return {
            key: snap[key]
            for key in ("count", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms")
        }

    return {
        "seconds": round(seconds, 3),
        "documents_published": counters.get("documents_published", 0),
        "results_delivered": counters.get("results_delivered", 0),
        "publish_latency": latency("publish_latency"),
        "publish_batch_latency": latency("publish_batch_latency"),
        "delivery_lag": latency("delivery_lag"),
    }


def run_stress(stress: Optional[StressConfig] = None) -> dict:
    """Run the four-phase stress workload; returns the JSON-safe report.

    The report carries, per phase, wall time, document/delivery counts and
    the p50/p95/p99/max publish-latency and delivery-lag tails — plus the
    ramp's per-chunk subscribe timings (flat = per-subscribe cost is
    O(1) in the live population) and the broker's final merged metrics
    snapshot.
    """
    stress = stress if stress is not None else StressConfig()
    from repro import open_broker  # deferred: repro imports this module's package

    corpus = _Corpus(stress.workload, stress.seed)
    broker = open_broker(stress.resolve_runtime())
    phases: dict[str, dict] = {}
    live: list[str] = []
    sid_counter = 0
    try:
        # ------------------------------------------------------------- ramp
        chunk_seconds: list[float] = []
        chunk_size = max(1, min(stress.ramp_chunk, stress.subscriptions))
        previous = broker.metrics_snapshot()
        phase_start = time.perf_counter()
        while len(live) < stress.subscriptions:
            take = min(chunk_size, stress.subscriptions - len(live))
            chunk_start = time.perf_counter()
            for _ in range(take):
                sid = f"stress{sid_counter}"
                sid_counter += 1
                broker.subscribe(corpus.next_subscription(), subscription_id=sid)
                live.append(sid)
            chunk_seconds.append(round(time.perf_counter() - chunk_start, 3))
            if stress.ramp_probe_documents:
                broker.publish_many(corpus.next_documents(stress.ramp_probe_documents))
        ramp_seconds = time.perf_counter() - phase_start
        snapshot = broker.metrics_snapshot()
        phases["ramp"] = _phase_summary(
            snapshot_delta(previous, snapshot), ramp_seconds
        )
        phases["ramp"]["chunk_seconds"] = chunk_seconds
        phases["ramp"]["subscriptions"] = len(live)
        previous = snapshot

        # ----------------------------------------------------------- steady
        phase_start = time.perf_counter()
        for _ in range(stress.steady_documents):
            broker.publish(corpus.next_document())
        steady_seconds = time.perf_counter() - phase_start
        snapshot = broker.metrics_snapshot()
        phases["steady"] = _phase_summary(
            snapshot_delta(previous, snapshot), steady_seconds
        )
        previous = snapshot

        # ------------------------------------------------------------ burst
        phase_start = time.perf_counter()
        for _ in range(stress.burst_count):
            broker.publish_many(corpus.next_documents(stress.burst_size))
        burst_seconds = time.perf_counter() - phase_start
        snapshot = broker.metrics_snapshot()
        phases["burst"] = _phase_summary(
            snapshot_delta(previous, snapshot), burst_seconds
        )
        previous = snapshot

        # ------------------------------------------------------------ churn
        churn_rng = random.Random(stress.seed + 1)
        phase_start = time.perf_counter()
        for cycle in range(stress.churn_cycles):
            if live:
                # Swap-pop a random live subscription and retract it.
                index = churn_rng.randrange(len(live))
                victim = live[index]
                live[index] = live[-1]
                live.pop()
                broker.cancel(victim)
            sid = f"stress{sid_counter}"
            sid_counter += 1
            broker.subscribe(corpus.next_subscription(), subscription_id=sid)
            live.append(sid)
            if stress.churn_publish_every and cycle % stress.churn_publish_every == 0:
                broker.publish(corpus.next_document())
        churn_seconds = time.perf_counter() - phase_start
        snapshot = broker.metrics_snapshot()
        phases["churn"] = _phase_summary(
            snapshot_delta(previous, snapshot), churn_seconds
        )
        phases["churn"]["cycles"] = stress.churn_cycles

        stats = broker.stats()
        return {
            "live_subscriptions": len(live),
            "documents_published": corpus.doc_sequence,
            "num_templates": stats["engine_stats"].get("num_templates"),
            "phases": phases,
            "final_metrics": snapshot,
        }
    finally:
        broker.close()
