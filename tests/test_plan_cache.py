"""Plan-cache and relevance-dispatch invariants at the engine level.

Property tests interleave register / process / prune and assert that the
compiled-plan path and the relevance-pruned path produce exactly the same
matches as the plan-per-call, visit-everything baseline — and that a cached
plan is re-planned once the state's statistics drift across an NDV epoch.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro import RuntimeConfig
from repro.core import MMQJPEngine, SequentialEngine, make_engine
from repro.pubsub import Broker
from repro.workloads.querygen import generate_query, generate_topic_queries
from repro.workloads.synthetic import build_document, topic_schemas
from repro.xmlmodel.schema import two_level_schema

SCHEMA = two_level_schema(4)

query_specs = st.lists(
    st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10_000)),
    min_size=1,
    max_size=6,
)
doc_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=2,
    max_size=6,
)


def _make_queries(specs, window=10.0):
    return [generate_query(SCHEMA, k, random.Random(seed), window=window) for k, seed in specs]


def _make_documents(specs):
    return [
        build_document(
            SCHEMA,
            docid=f"doc{i}",
            timestamp=float(i + 1),
            leaf_values=[f"v{x}" for x in leaf_values],
        )
        for i, leaf_values in enumerate(specs)
    ]


def _interleaved_run(engine, queries, d_specs):
    """Register half the queries, stream, register the rest, stream again.

    ``auto_prune`` is on and every window is finite, so pruning interleaves
    with processing; the per-document match keys are collected in order.
    """
    half = max(1, len(queries) // 2)
    for i, query in enumerate(queries[:half]):
        engine.register_query(query, qid=f"q{i}")
    per_doc = []
    documents = _make_documents(d_specs)
    split = len(documents) // 2
    for document in documents[:split]:
        per_doc.append(sorted(m.key() for m in engine.process_document(document)))
    for i, query in enumerate(queries[half:], start=half):
        engine.register_query(query, qid=f"q{i}")
    for document in documents[split:]:
        per_doc.append(sorted(m.key() for m in engine.process_document(document)))
    return per_doc


@given(query_specs, doc_specs)
@settings(max_examples=20, deadline=None)
def test_plan_cache_equivalent_to_plan_per_call(q_specs, d_specs):
    queries = _make_queries(q_specs)
    cached = _interleaved_run(
        MMQJPEngine(RuntimeConfig(store_documents=False, plan_cache=True, prune_dispatch=False)),
        queries, d_specs,
    )
    baseline = _interleaved_run(
        MMQJPEngine(RuntimeConfig(store_documents=False, plan_cache=False, prune_dispatch=False)),
        queries, d_specs,
    )
    assert cached == baseline


@given(query_specs, doc_specs)
@settings(max_examples=20, deadline=None)
def test_prune_dispatch_equivalent_to_full_dispatch(q_specs, d_specs):
    queries = _make_queries(q_specs)
    pruned = _interleaved_run(
        MMQJPEngine(RuntimeConfig(store_documents=False, plan_cache=True, prune_dispatch=True)),
        queries, d_specs,
    )
    baseline = _interleaved_run(
        MMQJPEngine(RuntimeConfig(store_documents=False, plan_cache=False, prune_dispatch=False)),
        queries, d_specs,
    )
    assert pruned == baseline


@given(query_specs, doc_specs)
@settings(max_examples=15, deadline=None)
def test_sequential_knobs_equivalent(q_specs, d_specs):
    queries = _make_queries(q_specs)
    full = _interleaved_run(
        SequentialEngine(
            RuntimeConfig(store_documents=False, plan_cache=True, prune_dispatch=True)
        ),
        queries, d_specs,
    )
    baseline = _interleaved_run(
        SequentialEngine(
            RuntimeConfig(store_documents=False, plan_cache=False, prune_dispatch=False)
        ),
        queries, d_specs,
    )
    assert full == baseline


def test_plan_replanned_after_ndv_epoch_drift():
    """Growing the state across power-of-two buckets re-optimizes the plans."""
    engine = MMQJPEngine(RuntimeConfig(store_documents=False, prune_dispatch=False))
    queries = _make_queries([(2, 1), (3, 2)], window=float("inf"))
    for i, query in enumerate(queries):
        engine.register_query(query, qid=f"q{i}")
    rng = random.Random(5)
    baseline = MMQJPEngine(
        RuntimeConfig(store_documents=False, plan_cache=False, prune_dispatch=False)
    )
    for i, query in enumerate(queries):
        baseline.register_query(query, qid=f"q{i}")
    for i in range(40):
        document = build_document(
            SCHEMA,
            docid=f"d{i}",
            timestamp=float(i + 1),
            leaf_values=[f"v{rng.randrange(3)}" for _ in range(SCHEMA.num_leaves)],
        )
        cached_keys = {m.key() for m in engine.process_document(document)}
        baseline_keys = {
            m.key()
            for m in baseline.process_document(
                build_document(
                    SCHEMA,
                    docid=f"d{i}",
                    timestamp=float(i + 1),
                    leaf_values=[document.string_value(j + 1) for j in range(SCHEMA.num_leaves)],
                )
            )
        }
        assert cached_keys == baseline_keys
    stats = engine.plan_cache.stats()
    # 40 documents merged into the state cross several size buckets.
    assert stats["replans"] >= 1
    assert stats["hits"] > stats["replans"]


def test_relevance_pruning_skips_foreign_topics():
    schemas = topic_schemas(3)
    queries = generate_topic_queries(schemas, 9, window=float("inf"), seed=1)
    engine = MMQJPEngine(RuntimeConfig(store_documents=False))
    for i, query in enumerate(queries):
        engine.register_query(query, qid=f"q{i}")
    # A topic-0 document binds no other topic's variables.
    document = build_document(
        schemas[0], docid="d0", timestamp=1.0,
        leaf_values=["x"] * schemas[0].num_leaves,
    )
    engine.process_document(document)
    assert engine.processor.templates_skipped >= 2


def test_prune_state_clears_interleaved_with_processing():
    """register/process/prune interleavings stay consistent across knobs."""
    engines = [
        make_engine("mmqjp", RuntimeConfig(store_documents=False, plan_cache=pc, prune_dispatch=pd))
        for pc in (True, False) for pd in (True, False)
    ]
    queries = _make_queries([(1, 3), (2, 4)], window=3.0)
    specs = [(0, 1, 0, 1), (1, 0, 1, 0), (0, 0, 1, 1), (1, 1, 0, 0), (0, 1, 1, 0)]
    streams = [
        _interleaved_run(engine, queries, specs) for engine in engines
    ]
    assert all(stream == streams[0] for stream in streams)
    for engine in engines:
        # The finite window pruned old documents along the way.
        assert engine.processor.state.num_documents <= len(specs)


def test_knobs_thread_through_brokers():
    broker = Broker(
        RuntimeConfig(construct_outputs=False, plan_cache=False, prune_dispatch=False)
    )
    assert broker.engine.plan_cache is None
    assert broker.engine.prune_dispatch is False
    broker = Broker(RuntimeConfig(engine="mmqjp", construct_outputs=False))
    assert broker.engine.plan_cache is not None
    assert broker.engine.prune_dispatch is True

    sharded = Broker(
        RuntimeConfig(
            construct_outputs=False, shards=2, plan_cache=False, prune_dispatch=False
        )
    )
    try:
        for shard in sharded.shards:
            assert shard.engine.plan_cache is None
            assert shard.engine.prune_dispatch is False
    finally:
        sharded.close()
