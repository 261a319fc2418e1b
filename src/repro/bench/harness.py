"""Low-level benchmark runners.

The technical benchmark (Section 6.1) measures only Stage 2: the witness
relations of the two fixed documents are constructed directly and the
timed quantity is the evaluation of the conjunctive queries — per template
for MMQJP, per query for Sequential.  The RSS benchmark (Section 6.3)
streams documents through the full two-stage engines and reports
throughput.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.config import RuntimeConfig
from repro.core.engine import make_engine
from repro.core.materialize import ViewCache
from repro.core.processor import MMQJPJoinProcessor, SequentialJoinProcessor
from repro.core.state import JoinState
from repro.pubsub.broker import Broker
from repro.templates.registry import TemplateRegistry
from repro.workloads.synthetic import (
    DeltaScalingData,
    PlanScalingData,
    StateScalingData,
    TechnicalBenchmarkData,
    build_technical_benchmark_data,
)
from repro.xmlmodel.document import XmlDocument
from repro.xmlmodel.schema import DocumentSchema
from repro.xscl.ast import XsclQuery

#: Approach identifiers used throughout the harness and the benchmarks.
APPROACH_MMQJP = "mmqjp"
APPROACH_MMQJP_VM = "mmqjp-vm"
APPROACH_SEQUENTIAL = "sequential"
ALL_APPROACHES = (APPROACH_MMQJP, APPROACH_MMQJP_VM, APPROACH_SEQUENTIAL)


@dataclass
class ApproachResult:
    """Timing result of one approach on one workload configuration."""

    approach: str
    num_queries: int
    elapsed_ms: float
    num_matches: int
    num_templates: Optional[int] = None
    breakdown_ms: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)

    def as_row(self) -> dict:
        """Flatten to a reporting row."""
        row = {
            "approach": self.approach,
            "num_queries": self.num_queries,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "num_matches": self.num_matches,
        }
        if self.num_templates is not None:
            row["num_templates"] = self.num_templates
        for phase, ms in self.breakdown_ms.items():
            row[f"{phase}_ms"] = round(ms, 3)
        row.update(self.extra)
        return row


# --------------------------------------------------------------------------- #
# registration helpers
# --------------------------------------------------------------------------- #
def register_mmqjp(queries: Sequence[XsclQuery]) -> TemplateRegistry:
    """Register a (canonically named) query workload with a fresh template registry."""
    registry = TemplateRegistry()
    for i, query in enumerate(queries):
        registry.add_query(f"q{i}", query)
    return registry


def register_sequential(
    queries: Sequence[XsclQuery], state=None, config: Optional[RuntimeConfig] = None
) -> SequentialJoinProcessor:
    """Register a query workload with a fresh sequential processor.

    ``config`` carries the knobs (``plan_cache``, ``prune_dispatch``,
    ``delta_join``, ...), so every benchmark constructs the baseline
    through this one path.
    """
    processor = SequentialJoinProcessor(state=state, config=config)
    for i, query in enumerate(queries):
        processor.add_query(f"q{i}", query)
    return processor


def _time_probe_loop(processor, probes) -> tuple[float, int, frozenset]:
    """The timed quantity shared by the scaling benchmarks.

    Processes (and folds into the state) every probe document in order;
    returns ``(elapsed seconds, total matches, frozen match-key set)``.
    """
    start = time.perf_counter()
    match_keys: set[tuple] = set()
    num_matches = 0
    for witness in probes:
        matches = processor.process(witness)
        processor.maintain_state(witness)
        num_matches += len(matches)
        match_keys.update(m.key() for m in matches)
    elapsed = time.perf_counter() - start
    return elapsed, num_matches, frozenset(match_keys)


# --------------------------------------------------------------------------- #
# the technical benchmark (Section 6.1 / 6.2)
# --------------------------------------------------------------------------- #
def run_technical_benchmark(
    schema: DocumentSchema,
    queries: Sequence[XsclQuery],
    approaches: Sequence[str] = (APPROACH_MMQJP, APPROACH_SEQUENTIAL),
    view_cache_size: Optional[int] = None,
    data: Optional[TechnicalBenchmarkData] = None,
) -> list[ApproachResult]:
    """Join the two fixed benchmark documents under every requested approach.

    Only the join processing (``process`` call) is timed; registration and
    witness construction are excluded, matching the paper's measurement.
    """
    data = data if data is not None else build_technical_benchmark_data(schema)
    results: list[ApproachResult] = []

    for approach in approaches:
        if approach == APPROACH_SEQUENTIAL:
            processor = register_sequential(queries, state=data.fresh_state())
            start = time.perf_counter()
            matches = processor.process(data.witness)
            elapsed = (time.perf_counter() - start) * 1000.0
            results.append(
                ApproachResult(
                    approach=approach,
                    num_queries=len(queries),
                    elapsed_ms=elapsed,
                    num_matches=len(matches),
                    breakdown_ms=processor.costs.as_milliseconds(),
                )
            )
        elif approach in (APPROACH_MMQJP, APPROACH_MMQJP_VM):
            registry = register_mmqjp(queries)
            view_cache = None
            if approach == APPROACH_MMQJP_VM and view_cache_size is not None:
                view_cache = ViewCache(max_entries=view_cache_size)
            processor = MMQJPJoinProcessor(
                registry,
                state=data.fresh_state(),
                use_view_materialization=(approach == APPROACH_MMQJP_VM),
                view_cache=view_cache,
            )
            start = time.perf_counter()
            matches = processor.process(data.witness)
            elapsed = (time.perf_counter() - start) * 1000.0
            results.append(
                ApproachResult(
                    approach=approach,
                    num_queries=len(queries),
                    elapsed_ms=elapsed,
                    num_matches=len(matches),
                    num_templates=registry.num_templates,
                    breakdown_ms=processor.costs.as_milliseconds(),
                )
            )
        else:
            raise ValueError(f"unknown approach {approach!r}")
    return results


# --------------------------------------------------------------------------- #
# the RSS stream benchmark (Section 6.3)
# --------------------------------------------------------------------------- #
def run_rss_throughput(
    queries: Sequence[XsclQuery],
    documents: Iterable[XmlDocument],
    approach: str,
    view_cache_size: Optional[int] = 4096,
    indexing: str = "eager",
) -> ApproachResult:
    """Stream feed items through a full two-stage engine and report throughput.

    The registration phase is excluded from the timing; the streaming phase
    (Stage 1 + Stage 2 + state maintenance for every item) is included.
    Throughput in events/second is reported in ``extra["events_per_second"]``.
    """
    documents = list(documents)
    engine = make_engine(
        config=RuntimeConfig(
            engine=approach,
            view_cache_size=view_cache_size,
            store_documents=False,
            auto_timestamp=False,
            indexing=indexing,
        )
    )
    for i, query in enumerate(queries):
        engine.register_query(query, qid=f"q{i}")

    start = time.perf_counter()
    total_matches = 0
    for document in documents:
        total_matches += len(engine.process_document(document))
    elapsed = time.perf_counter() - start

    throughput = len(documents) / elapsed if elapsed > 0 else float("inf")
    return ApproachResult(
        approach=approach,
        num_queries=len(queries),
        elapsed_ms=elapsed * 1000.0,
        num_matches=total_matches,
        num_templates=engine.num_templates,
        breakdown_ms=engine.costs.as_milliseconds(),
        extra={"events_per_second": round(throughput, 2), "num_events": len(documents)},
    )


# --------------------------------------------------------------------------- #
# the state-scaling benchmark (incremental indexed join state)
# --------------------------------------------------------------------------- #
def run_state_scaling(
    queries: Sequence[XsclQuery],
    data: StateScalingData,
    approach: str = APPROACH_MMQJP,
    indexing: str = "eager",
) -> tuple[ApproachResult, frozenset]:
    """Per-document join cost against a large preloaded state.

    The state documents are loaded directly (the technical-benchmark path),
    so the timing isolates exactly the per-document Stage 2 work the
    incremental indexing targets: the probe documents are processed — and
    merged into the state — one after another against ``num_state_docs``
    retained documents.  Per-document throughput is reported in
    ``extra["docs_per_second"]``; the second return value is the frozen set
    of match keys, which must be identical across every ``indexing`` mode,
    engine and shard count (the benchmark and CI smoke assert this).
    """
    state = JoinState(indexing=indexing)
    data.load_state(state)
    # delta_join is pinned off: this benchmark isolates the indexing knob
    # (the PR-2 measurement); the delta-scaling benchmark owns delta_join.
    config = RuntimeConfig(delta_join=False)
    if approach == APPROACH_SEQUENTIAL:
        processor = register_sequential(queries, state=state, config=config)
        num_templates = None
    elif approach == APPROACH_MMQJP:
        registry = register_mmqjp(queries)
        processor = MMQJPJoinProcessor(registry, state=state, config=config)
        num_templates = registry.num_templates
    else:
        raise ValueError(f"unsupported state-scaling approach {approach!r}")

    elapsed, num_matches, match_keys = _time_probe_loop(processor, data.probes)

    throughput = len(data.probes) / elapsed if elapsed > 0 else float("inf")
    result = ApproachResult(
        approach=f"{approach}-{indexing}",
        num_queries=len(queries),
        elapsed_ms=elapsed * 1000.0,
        num_matches=num_matches,
        num_templates=num_templates,
        breakdown_ms=processor.costs.as_milliseconds(),
        extra={
            "indexing": indexing,
            "num_state_docs": len(data.state_docs),
            "num_probe_docs": len(data.probes),
            "docs_per_second": round(throughput, 3),
        },
    )
    return result, match_keys


# --------------------------------------------------------------------------- #
# the plan-scaling benchmark (compiled plans + relevance-pruned dispatch)
# --------------------------------------------------------------------------- #
def run_plan_scaling(
    queries: Sequence[XsclQuery],
    data: PlanScalingData,
    approach: str = APPROACH_MMQJP,
    indexing: str = "eager",
    plan_cache: bool = True,
    prune_dispatch: bool = True,
    columnar: bool = True,
    registry: Optional[TemplateRegistry] = None,
) -> tuple[ApproachResult, frozenset]:
    """Per-document join cost on the topic-sharded relevance workload.

    Identical in shape to :func:`run_state_scaling` — the probes are
    processed and merged against a preloaded state and only that loop is
    timed — but over the :class:`~repro.workloads.synthetic.PlanScalingData`
    workload, where each probe is relevant to ≈ ``1 / num_topics`` of the
    registered templates.  ``plan_cache=False, prune_dispatch=False``
    reproduces the pre-compiled-plan behavior (the PR-2 baseline); the
    returned match-key set must be identical across every knob combination,
    engine and shard count.

    Registration (template matching) is excluded from the timing, so a
    prebuilt ``registry`` over the same ``queries`` may be passed to share
    that cost across knob configurations (MMQJP only).
    """
    state = JoinState(indexing=indexing)
    data.load_state(state)
    # delta_join is pinned off: this benchmark isolates plan_cache ×
    # prune_dispatch against the PR-2 baseline; the delta-scaling benchmark
    # owns delta_join.
    config = RuntimeConfig(
        plan_cache=plan_cache,
        prune_dispatch=prune_dispatch,
        delta_join=False,
        columnar=columnar,
    )
    if approach == APPROACH_SEQUENTIAL:
        processor = register_sequential(queries, state=state, config=config)
        num_templates = None
    elif approach == APPROACH_MMQJP:
        if registry is None:
            registry = register_mmqjp(queries)
        processor = MMQJPJoinProcessor(registry, state=state, config=config)
        num_templates = registry.num_templates
    else:
        raise ValueError(f"unsupported plan-scaling approach {approach!r}")

    elapsed, num_matches, match_keys = _time_probe_loop(processor, data.probes)

    throughput = len(data.probes) / elapsed if elapsed > 0 else float("inf")
    label = "compiled" if plan_cache else "plan-per-call"
    if prune_dispatch:
        label += "+pruned"
    extra = {
        "plan_cache": plan_cache,
        "prune_dispatch": prune_dispatch,
        "columnar": processor.columnar,
        "indexing": indexing,
        "num_topics": data.num_topics,
        "num_state_docs": len(data.state_docs),
        "num_probe_docs": len(data.probes),
        "docs_per_second": round(throughput, 3),
    }
    if isinstance(processor, MMQJPJoinProcessor):
        extra["templates_skipped"] = processor.templates_skipped
    if processor.plan_cache is not None:
        extra.update(
            {f"plan_{k}": v for k, v in processor.plan_cache.stats().items()}
        )
    result = ApproachResult(
        approach=f"{approach}-{label}",
        num_queries=len(queries),
        elapsed_ms=elapsed * 1000.0,
        num_matches=num_matches,
        num_templates=num_templates,
        breakdown_ms=processor.costs.as_milliseconds(),
        extra=extra,
    )
    return result, match_keys


# --------------------------------------------------------------------------- #
# the delta-scaling benchmark (delta-driven Stage-2 joins)
# --------------------------------------------------------------------------- #
def run_delta_scaling(
    queries: Sequence[XsclQuery],
    data: DeltaScalingData,
    approach: str = APPROACH_MMQJP,
    indexing: str = "eager",
    plan_cache: bool = True,
    prune_dispatch: bool = True,
    delta_join: bool = True,
    columnar: bool = True,
    registry: Optional[TemplateRegistry] = None,
) -> tuple[ApproachResult, frozenset]:
    """Per-document join cost on the growing-state / fixed-delta workload.

    Identical in shape to :func:`run_plan_scaling`, but over
    :class:`~repro.workloads.synthetic.DeltaScalingData`: the retained state
    grows while the delta-connected state (and the probes) stay fixed, so
    ``delta_join=False`` pays per-document cost proportional to the total
    value-matching state and ``delta_join=True`` only to the alive slice.
    The returned match-key set must be identical across every knob
    combination, engine and shard count.
    """
    state = JoinState(indexing=indexing)
    data.load_state(state)
    config = RuntimeConfig(
        plan_cache=plan_cache,
        prune_dispatch=prune_dispatch,
        delta_join=delta_join,
        columnar=columnar,
    )
    if approach == APPROACH_SEQUENTIAL:
        processor = register_sequential(queries, state=state, config=config)
        num_templates = None
    elif approach == APPROACH_MMQJP:
        if registry is None:
            registry = register_mmqjp(queries)
        processor = MMQJPJoinProcessor(registry, state=state, config=config)
        num_templates = registry.num_templates
    else:
        raise ValueError(f"unsupported delta-scaling approach {approach!r}")

    elapsed, num_matches, match_keys = _time_probe_loop(processor, data.probes)

    throughput = len(data.probes) / elapsed if elapsed > 0 else float("inf")
    extra = {
        "delta_join": delta_join,
        "plan_cache": plan_cache,
        "prune_dispatch": prune_dispatch,
        "columnar": processor.columnar,
        "indexing": indexing,
        "num_state_docs": len(data.state_docs),
        "num_alive_docs": data.num_alive_docs,
        "num_probe_docs": len(data.probes),
        "docs_per_second": round(throughput, 3),
        "ms_per_doc": round(elapsed * 1000.0 / max(1, len(data.probes)), 4),
    }
    extra.update({f"delta_{k}": v for k, v in processor.delta_stats.items()})
    result = ApproachResult(
        approach=f"{approach}-delta-{'on' if delta_join else 'off'}",
        num_queries=len(queries),
        elapsed_ms=elapsed * 1000.0,
        num_matches=num_matches,
        num_templates=num_templates,
        breakdown_ms=processor.costs.as_milliseconds(),
        extra=extra,
    )
    return result, match_keys


# --------------------------------------------------------------------------- #
# the sharded-runtime throughput benchmark
# --------------------------------------------------------------------------- #
def _routing_extra(broker: Broker) -> dict:
    """Routing counters of one finished run, flattened for reporting.

    ``pct_shards_skipped`` is the fraction of (document, candidate shard)
    dispatches the router pruned; ``num_active_shards`` counts the shards
    that owned at least one subscription (an all-on-one-shard placement
    gives routing nothing to skip, so gates key off this).
    """
    stats = broker.stats()
    routing = stats.get("routing")
    extra: dict = {
        "route_dispatch": routing is not None,
        "workers": stats.get("workers") or 0,
        "num_active_shards": sum(1 for shard in broker.shards if shard.num_queries),
    }
    if routing is not None:
        considered = routing["shards_dispatched"] + routing["shards_skipped"]
        extra["shards_skipped"] = routing["shards_skipped"]
        extra["pct_shards_skipped"] = round(
            100.0 * routing["shards_skipped"] / considered if considered else 0.0, 2
        )
    return extra


def run_sharded_rss_throughput(
    queries: Sequence[XsclQuery],
    documents: Iterable[XmlDocument],
    shards: int,
    approach: str = APPROACH_MMQJP,
    partitioner: str = "hash",
    executor: str = "serial",
    route_dispatch: bool = True,
    max_workers: Optional[int] = None,
    batch_size: Optional[int] = None,
    view_cache_size: Optional[int] = 4096,
    indexing: str = "eager",
) -> ApproachResult:
    """Stream feed items through a multi-shard :class:`~repro.pubsub.Broker`.

    Subscription registration is excluded from the timing; the streaming
    phase uses batched ingestion (``publish_many``), dispatching the stream
    in batches of ``batch_size`` documents (the whole stream at once when
    ``None``).  The result's ``approach`` is tagged
    ``"<engine>-sharded<N>-<executor>"`` and the shard/executor/partitioner/
    routing configuration is reported in ``extra``.
    """
    documents = list(documents)
    broker = Broker(
        RuntimeConfig(
            engine=approach,
            view_cache_size=view_cache_size,
            construct_outputs=False,
            shards=shards,
            partitioner=partitioner,
            executor=executor,
            route_dispatch=route_dispatch,
            max_workers=max_workers,
            store_documents=False,
            auto_timestamp=False,
            indexing=indexing,
        )
    )
    try:
        for i, query in enumerate(queries):
            broker.subscribe(query, subscription_id=f"q{i}")

        if batch_size is None or batch_size >= len(documents):
            batches = [documents]
        else:
            batches = [
                documents[i : i + batch_size]
                for i in range(0, len(documents), batch_size)
            ]

        start = time.perf_counter()
        total_matches = 0
        for batch in batches:
            total_matches += len(broker.publish_many(batch))
        elapsed = time.perf_counter() - start

        stats = broker.merged_engine_stats()
        routing_extra = _routing_extra(broker)
    finally:
        broker.close()

    throughput = len(documents) / elapsed if elapsed > 0 else float("inf")
    return ApproachResult(
        approach=f"{approach}-sharded{shards}-{executor}",
        num_queries=len(queries),
        elapsed_ms=elapsed * 1000.0,
        num_matches=total_matches,
        num_templates=stats.num_templates,
        breakdown_ms=dict(stats.costs),
        extra={
            "events_per_second": round(throughput, 2),
            "num_events": len(documents),
            "shards": shards,
            "partitioner": partitioner,
            "executor": executor,
            "batch_size": batch_size if batch_size is not None else len(documents),
            **routing_extra,
        },
    )


# --------------------------------------------------------------------------- #
# the parallel-scaling benchmark (process shards + relevance routing)
# --------------------------------------------------------------------------- #
def run_parallel_topic_throughput(
    queries: Sequence[XsclQuery],
    documents: Iterable[XmlDocument],
    shards: int,
    approach: str = APPROACH_MMQJP,
    executor: str = "serial",
    route_dispatch: bool = True,
    max_workers: Optional[int] = None,
    batch_size: Optional[int] = None,
    indexing: str = "eager",
) -> tuple[ApproachResult, frozenset]:
    """Stream a topic-sharded document workload through a sharded broker.

    The end-to-end measurement of the parallel runtime: topic-disjoint
    templates spread across shards, and every document both probes the
    retained same-topic state and becomes state itself (both query-block
    roles), so routing decisions affect correctness if they are wrong —
    which is why the runner also returns the frozen match-key set, asserted
    identical across every executor × shards × routing cell by the
    benchmark.  ``extra`` reports ``ms_per_doc`` (the scaling quantity) and
    the routing counters (``pct_shards_skipped``).
    """
    documents = list(documents)
    broker = Broker(
        RuntimeConfig(
            engine=approach,
            construct_outputs=False,
            shards=shards,
            executor=executor,
            route_dispatch=route_dispatch,
            max_workers=max_workers,
            store_documents=False,
            auto_timestamp=False,
            indexing=indexing,
        )
    )
    try:
        for i, query in enumerate(queries):
            broker.subscribe(query, subscription_id=f"q{i}")

        if batch_size is None or batch_size >= len(documents):
            batches = [documents]
        else:
            batches = [
                documents[i : i + batch_size]
                for i in range(0, len(documents), batch_size)
            ]

        match_keys: set[tuple] = set()
        start = time.perf_counter()
        num_matches = 0
        for batch in batches:
            deliveries = broker.publish_many(batch)
            num_matches += len(deliveries)
            match_keys.update(d.match.key() for d in deliveries)
        elapsed = time.perf_counter() - start

        stats = broker.merged_engine_stats()
        routing_extra = _routing_extra(broker)
    finally:
        broker.close()

    throughput = len(documents) / elapsed if elapsed > 0 else float("inf")
    result = ApproachResult(
        approach=f"{approach}-parallel{shards}-{executor}",
        num_queries=len(queries),
        elapsed_ms=elapsed * 1000.0,
        num_matches=num_matches,
        num_templates=stats.num_templates,
        breakdown_ms=dict(stats.costs),
        extra={
            "events_per_second": round(throughput, 2),
            "ms_per_doc": round(elapsed * 1000.0 / max(1, len(documents)), 4),
            "num_events": len(documents),
            "shards": shards,
            "executor": executor,
            "max_workers": max_workers,
            "batch_size": batch_size if batch_size is not None else len(documents),
            **routing_extra,
        },
    )
    return result, frozenset(match_keys)
