"""What each per-layer metric is: spans, ``stats()`` and engine counters in, numbers out.

Times ending in ``_ms`` are mean self milliseconds per timed document under
publish roots; times ending in ``_us`` are mean self microseconds per call over
the whole session; ``perf/README.md`` says which end-to-end metric each one
should move and on which workload it should not.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from perf import trace


def percentile(ordered: list, share: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for an empty one)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(len(ordered) * share / 100.0))]


def midmean(values: list) -> float:
    """Mean of the middle half of the values (the interquartile mean).

    A burst of slow calls does not move it, as it would a mean; and where the
    values fall into a few distinct classes - the eight fan-out topics cost
    eight amounts - it does not jump between two of them, as a median does.
    """
    ordered = sorted(values)
    middle = ordered[len(ordered) // 4 : len(ordered) - len(ordered) // 4]
    return statistics.fmean(middle)


def probe(obj, path: str):
    """``obj.a.b.c`` (calling what is callable), or ``None`` once anything is missing."""
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
        if callable(obj):
            obj = obj()
    return obj


def ratio(numerator, denominator) -> float:
    """``numerator / denominator``; unmeasured if either is unknown, 0 over 0 calls."""
    if numerator is None or denominator is None:
        return trace.UNMEASURED
    return numerator / denominator if denominator else 0.0


def known(value) -> float:
    return trace.UNMEASURED if value is None else float(value)


def introspect(session) -> dict:
    """What the traced run reads from the live broker: ``stats()`` and engine counters."""
    broker = session.broker
    state = probe(broker, "engine._processor.state.relations")
    store_mb = 0.0
    if session.storage_path is not None:
        store_mb = sum(f.stat().st_size for f in Path(session.storage_path).iterdir()) / 1e6
    return {
        "stats": broker.stats(),
        "delta": probe(broker, "engine.delta_stats") or {},
        "plans": probe(broker, "engine.plan_cache.stats") or {},
        "state_rows": None if state is None else sum(len(r) for r in state.values()),
        "nfa_states": probe(broker, "engine.evaluator.num_nfa_states"),
        "store_mb": store_mb,
    }


def total(counters: dict, *keys: str):
    """Sum of ``counters[key]``, or ``None`` when the counters could not be read."""
    return sum(counters[key] for key in keys) if counters else None


def per_layer(section, spec, summary, seen, busy_s, recovery) -> dict:
    """Layer metrics of the traced run's timed section (a ``run.TimedSection``)."""
    stats, delta, plans = seen["stats"], seen["delta"], seen["plans"]
    documents, lag = section.documents, section.lag
    seconds = section.end - section.start
    megabytes = sum(len(doc.text) for e in section.publishes for doc in e[1]) / 1e6
    ms = lambda *span_names: summary.ms_per(documents, *span_names)  # noqa: E731
    us = summary.us_per_call
    timed_calls = summary.timed_calls
    engine = stats.get("engine_stats", {})
    routing = stats.get("routing") or {}
    transport = stats.get("transport") or {}
    shard_docs = [s["num_documents_processed"] for s in stats.get("per_shard", ())]
    templates = engine.get("num_templates")
    ingest = ("xmlmodel.scan", "xmlmodel.validate", "xmlmodel.parse")
    ingest_calls = sum(timed_calls.get(name, 0) for name in ingest)
    ingest_s = sum(summary.timed_self_s.get(name, 0.0) for name in ingest)
    witness_rows = None
    if "core.witness_build" in trace.names:
        witness_rows = trace.counts.get(trace.names.index("core.witness_build"), 0)
    resume_s = summary.duration_s.get("resume", 0.0)
    catalog_s = summary.duration_s.get("storage.recover_catalog", 0.0)
    restore_s = summary.duration_s.get("storage.restore_state", 0.0)
    return {
        "xscl.parse_query_us": (us("xscl.parse_query"), "us"),
        "templates.add_query_us": (us("templates.add_query"), "us"),
        "templates.remove_query_us": (us("templates.remove_query"), "us"),
        "templates.num_templates": (known(templates), "count"),
        "templates.queries_per_template": (ratio(engine.get("num_queries"), templates), "count"),
        "xmlmodel.scan_ms": (ms("xmlmodel.scan"), "ms"),
        "xmlmodel.validate_ms": (ms("xmlmodel.validate"), "ms"),
        "xmlmodel.parse_ms": (ms("xmlmodel.parse"), "ms"),
        "xmlmodel.mb_per_s": (
            ratio(megabytes, ingest_s) if summary.measured(*ingest) else trace.UNMEASURED,
            "MB/s",
        ),
        "xmlmodel.validate_only_share": (
            ratio(timed_calls.get("xmlmodel.validate", 0), ingest_calls)
            if summary.measured(*ingest) else trace.UNMEASURED,
            "ratio",
        ),
        "xpath.stage1_ms": (ms("xpath.stage1"), "ms"),
        "xpath.witness_rows_per_doc": (
            ratio(witness_rows, summary.calls.get("core.witness_build", 0)), "count"
        ),
        "xpath.nfa_states": (known(seen["nfa_states"]), "count"),
        "core.witness_build_ms": (ms("core.witness_build"), "ms"),
        "core.relevance_ms": (ms("core.relevance"), "ms"),
        "core.templates_evaluated_share": (
            ratio(
                timed_calls.get("relational.plan_cache", 0),
                None if templates is None else templates * timed_calls.get("core.process", 0),
            )
            if summary.measured("relational.plan_cache", "core.process")
            else trace.UNMEASURED,
            "ratio",
        ),
        "core.process_self_ms": (ms("core.process"), "ms"),
        "core.matches_per_doc": (
            ratio(engine.get("num_matches"), engine.get("num_documents_processed")), "count"
        ),
        "core.engine_self_ms": (ms("core.engine"), "ms"),
        "core.register_query_us": (us("core.register_query"), "us"),
        "core.deregister_query_us": (us("core.deregister_query"), "us"),
        "core.maintain_state_ms": (ms("core.maintain_state"), "ms"),
        "core.prune_ms": (ms("core.prune"), "ms"),
        "core.state_docs": (known(engine.get("state_documents")), "count"),
        "core.state_rows": (known(seen["state_rows"]), "count"),
        "relational.delta_reduce_ms": (ms("relational.delta_reduce"), "ms"),
        "relational.delta_rows_kept_share": (
            ratio(delta.get("rows_kept"), delta.get("rows_scanned")), "ratio"
        ),
        "relational.reductions_reused_share": (
            ratio(
                delta.get("reductions_reused"),
                total(delta, "reductions_reused", "reductions_computed"),
            ),
            "ratio",
        ),
        "relational.columnar_sync_ms": (ms("relational.columnar_sync"), "ms"),
        "relational.plan_execute_ms": (ms("relational.plan_execute"), "ms"),
        "relational.plan_cache_self_ms": (ms("relational.plan_cache"), "ms"),
        "relational.plan_cache_hit_share": (
            ratio(plans.get("hits"), total(plans, "hits", "misses", "replans")), "ratio"
        ),
        "relational.replans": (known(plans.get("replans")), "count"),
        "pubsub.deliver_ms": (ms("pubsub.deliver"), "ms"),
        "pubsub.deliveries_per_doc": (len(lag) / documents, "count"),
        "pubsub.publish_self_ms": (ms("publish"), "ms"),
        "pubsub.publish_self_share": (
            ratio(summary.timed_self_s.get("publish"), summary.timed_publish_s)
            if summary.measured("publish") else trace.UNMEASURED,
            "ratio",
        ),
        "pubsub.subscribe_self_us": (us("subscribe"), "us"),
        "pubsub.cancel_self_us": (us("cancel"), "us"),
        "pubsub.publish_tail_ms": (
            percentile(section.latency, spec.tail_percentile) * 1e3, "ms"
        ),
        "pubsub.delivery_lag_p50_ms": (percentile(lag, 50) * 1e3, "ms"),
        "pubsub.delivery_lag_p99_ms": (percentile(lag, 99) * 1e3, "ms"),
        "runtime.route_us": (us("runtime.route"), "us"),
        "runtime.shards_skipped_share": (
            ratio(
                routing.get("shards_skipped", 0),
                routing.get("shards_skipped", 0) + routing.get("shards_dispatched", 0),
            ),
            "ratio",
        ),
        "runtime.shard_skew": (
            ratio(max(shard_docs), statistics.mean(shard_docs)) if shard_docs else 0.0, "ratio"
        ),
        "runtime.wire_encode_ms": (ms("runtime.wire_encode"), "ms"),
        "runtime.wire_bytes_per_doc": (
            ratio(transport.get("wire_bytes", 0), transport.get("documents_encoded", 0)), "B"
        ),
        "runtime.worker_decodes_per_doc": (
            ratio(transport.get("decodes", 0), transport.get("documents_encoded", 0)), "count"
        ),
        "runtime.dispatch_wait_ms": (ms("runtime.dispatch_wait"), "ms"),
        "runtime.worker_busy_share": (
            busy_s / (seconds * stats["workers"]) if stats.get("workers") else 0.0,
            "ratio",
        ),
        "runtime.match_decode_ms": (ms("runtime.match_decode"), "ms"),
        "storage.commit_epoch_ms": (ms("storage.commit_epoch"), "ms"),
        "storage.write_ms": (ms("storage.write"), "ms"),
        "storage.save_subscription_us": (us("storage.save_subscription"), "us"),
        "storage.remove_subscription_us": (us("storage.remove_subscription"), "us"),
        "storage.db_mb": (seen["store_mb"], "MB"),
        "storage.recovery_s": (recovery, "s"),
        "storage.registry_replay_s": (
            resume_s - catalog_s - restore_s
            if summary.measured("resume", "storage.recover_catalog", "storage.restore_state")
            else trace.UNMEASURED,
            "s",
        ),
        "storage.state_restore_s": (
            restore_s if summary.measured("storage.restore_state") else trace.UNMEASURED, "s"
        ),
        "trace.overhead_share": (summary.section_spans * trace.span_cost() / seconds, "ratio"),
        "trace.missing_targets": (float(len(trace.missing)), "count"),
    }


def stage_seconds(broker) -> float:
    """Summed worker-side stage timers (``metrics=True``), or 0 without them."""
    snapshot = broker.metrics_snapshot() or {}
    return sum(
        histogram["sum_s"]
        for name, histogram in snapshot.get("histograms", {}).items()
        if name.startswith("stage:")
    )
