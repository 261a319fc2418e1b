"""Property-based tests for the engine-level invariants.

The central invariant (shared template evaluation ≡ per-query evaluation ≡
what ``tests/oracle.py`` delivers) is exercised with hypothesis-generated
workloads: random queries over a small schema and random document streams
with colliding values.
"""

from __future__ import annotations

import random
from functools import partial

from hypothesis import given, settings, strategies as st

from repro import RuntimeConfig, open_broker
from repro.core import MMQJPEngine, SequentialEngine
from repro.templates import JoinGraph, reduce_join_graph
from repro.workloads.querygen import generate_query
from repro.xscl.ast import ValueJoinPredicate
from tests import oracle
from tests.conftest import (
    SMALL_SCHEMA as SCHEMA,
    doc_specs,
    make_document,
    make_documents,
    make_queries,
    query_specs,
)
from tests.test_oracle_agreement import run_script


def _run(engine, queries, d_specs):
    for i, query in enumerate(queries):
        engine.register_query(query, qid=f"q{i}")
    keys = set()
    for document in make_documents(d_specs):
        keys.update(m.key() for m in engine.process_document(document))
    return keys


@given(query_specs, doc_specs)
@settings(max_examples=25, deadline=None)
def test_mmqjp_equivalent_to_sequential(q_specs, d_specs):
    queries = make_queries(q_specs)
    mmqjp = _run(MMQJPEngine(RuntimeConfig(store_documents=False)), queries, d_specs)
    sequential = _run(SequentialEngine(RuntimeConfig(store_documents=False)), queries, d_specs)
    assert mmqjp == sequential


@given(query_specs, doc_specs)
@settings(max_examples=15, deadline=None)
def test_view_materialization_equivalent_to_plain(q_specs, d_specs):
    queries = make_queries(q_specs)
    plain = _run(MMQJPEngine(RuntimeConfig(store_documents=False)), queries, d_specs)
    materialized = _run(
        MMQJPEngine(RuntimeConfig(engine="mmqjp-vm", store_documents=False)),
        queries,
        d_specs,
    )
    assert plain == materialized


@given(query_specs, doc_specs)
@settings(max_examples=15, deadline=None)
def test_matches_respect_window_and_order(q_specs, d_specs):
    queries = make_queries(q_specs)
    engine = MMQJPEngine(RuntimeConfig(store_documents=False))
    for i, query in enumerate(queries):
        engine.register_query(query, qid=f"q{i}")
    for document in make_documents(d_specs):
        for match in engine.process_document(document):
            assert match.rhs_timestamp > match.lhs_timestamp
            assert match.rhs_timestamp - match.lhs_timestamp <= match.window
            assert match.rhs_docid == document.docid


@given(query_specs)
@settings(max_examples=30, deadline=None)
def test_template_count_bounded_by_schema(q_specs):
    """The Figure 17 workload creates at most one template per value-join count."""
    queries = make_queries(q_specs)
    engine = MMQJPEngine(RuntimeConfig(store_documents=False))
    for i, query in enumerate(queries):
        engine.register_query(query, qid=f"q{i}")
    assert engine.num_templates <= SCHEMA.num_leaves


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=5000))
@settings(max_examples=40, deadline=None)
def test_reduction_preserves_value_joins_and_removes_unused_leaves(k, seed):
    query = generate_query(SCHEMA, k, random.Random(seed))
    graph = JoinGraph.from_query(query)
    reduced = reduce_join_graph(graph)
    assert reduced.value_edges == graph.value_edges
    assert reduced.nodes <= graph.nodes
    participants = {n for edge in graph.value_edges for n in edge}
    assert participants <= reduced.nodes
    # Every kept node is a participant or an ancestor (LCA) of participants.
    for node in reduced.nodes:
        assert node in participants or any(
            node in set(graph.ancestors(p)) for p in participants
        )


# --------------------------------------------------------------------------- #
# delta-driven evaluation ≡ what the oracle delivers
# --------------------------------------------------------------------------- #
def _script(queries, d_specs, cut=()):
    """Subscribe every query, publish half the documents, apply ``cut``, publish the rest."""
    split = len(d_specs) // 2
    subscribe = [("subscribe", f"q{i}", query, None) for i, query in enumerate(queries)]
    publish = [("publish", partial(make_document, i, values)) for i, values in enumerate(d_specs)]
    return subscribe + publish[:split] + list(cut) + publish[split:]


def _assert_agree_with_the_oracle(script, num_docs: int) -> None:
    """Both engines deliver the oracle's sets; ``num_docs`` reached the processor."""
    expected = run_script(oracle.Oracle(), script)
    for engine in ("mmqjp", "sequential"):
        config = RuntimeConfig(engine=engine, construct_outputs=False, executor="serial")
        with open_broker(config) as broker:
            assert run_script(broker, script) == expected
            # The skipped/reduced-state-row counters must add up.
            stats = broker.engine.delta_stats
            assert stats["documents"] == num_docs
            assert 0 <= stats["rows_kept"] <= stats["rows_scanned"]
            assert stats["reductions_computed"] >= 0 and stats["reductions_reused"] >= 0
            assert stats["executions_skipped"] == stats["short_circuits"] >= 0


@given(query_specs, doc_specs)
@settings(max_examples=20, deadline=None)
def test_delta_join_equivalent_on_both_engines(q_specs, d_specs):
    """Delta-reduced evaluation delivers the oracle's matches on MMQJP and Sequential."""
    _assert_agree_with_the_oracle(_script(make_queries(q_specs), d_specs), len(d_specs))


@given(query_specs, doc_specs)
@settings(max_examples=8, deadline=None)
def test_delta_join_equivalent_under_interleavings(q_specs, d_specs):
    """Register/process/prune/deregister interleavings deliver the oracle's matches.

    Half the documents are processed, then the oldest state is pruned and
    the first query deregistered, then the rest of the stream runs — the
    delta-reduced path must track every state mutation exactly.
    """
    split = len(d_specs) // 2  # the last document before the cut is stamped ``split``
    cut = [("prune", split - 2.0), ("cancel", "q0")]
    # With its only subscription cancelled, a broker hands the engine nothing.
    processed = len(d_specs) if len(q_specs) > 1 else split
    _assert_agree_with_the_oracle(_script(make_queries(q_specs), d_specs, cut), processed)


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True))
@settings(max_examples=20, deadline=None)
def test_duplicate_queries_share_templates(leaf_tags):
    """Registering the same query twice reuses the template and doubles RT."""
    from repro.xpath.pattern import simple_pattern
    from repro.xscl.ast import JoinOperator, JoinSpec, QueryBlock, XsclQuery

    leaves = {f"v_{tag}": f".//{tag}" for tag in leaf_tags}
    block = QueryBlock(simple_pattern("S", "v_root", "//item", leaves))
    predicates = tuple(ValueJoinPredicate(f"v_{t}", f"v_{t}") for t in leaf_tags)
    query = XsclQuery(
        left=block,
        right=QueryBlock(simple_pattern("S", "v_root", "//item", dict(leaves))),
        join=JoinSpec(JoinOperator.FOLLOWED_BY, predicates, 5.0),
    )
    engine = MMQJPEngine(RuntimeConfig(store_documents=False))
    engine.register_query(query, qid="first")
    engine.register_query(query, qid="second")
    assert engine.num_templates == 1
    template = engine.registry.templates[0]
    assert len(engine.registry.rt_relation(template)) == 2
