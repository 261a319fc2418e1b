"""Plan-cache and relevance-dispatch invariants at the engine level.

Property tests interleave subscribe / publish / prune and check the two
mechanisms where they act, on every unit of every document: a compiled,
delta-reduced plan returns the rows the plan-per-call evaluator
(:func:`~repro.relational.conjunctive.evaluate_conjunctive`, no delta)
returns over the same environment, and a unit the relevance index skips has
no rows to return.  Because these runs subscribe mid-stream, outside the
oracle's conditions, their deliveries are compared with the Sequential
baseline, and one such run in every configuration.
"""

from __future__ import annotations

import random
from functools import partial

from hypothesis import given, settings

from repro import RuntimeConfig, open_broker
from repro.config import ENGINES
from repro.relational.conjunctive import evaluate_conjunctive
from repro.workloads.querygen import generate_topic_queries
from repro.workloads.synthetic import build_document, topic_schemas
from tests import oracle
from tests.conftest import doc_specs, make_document, make_queries, query_specs
from tests.test_oracle_agreement import run_script


def _interleaved_script(queries, d_specs):
    """Subscribe half the queries, publish half the documents, then the rest of both.

    ``auto_prune`` is on and every window is finite, so pruning interleaves
    with processing.
    """
    half, split = max(1, len(queries) // 2), len(d_specs) // 2
    subscribe = [("subscribe", f"q{i}", query, None) for i, query in enumerate(queries)]
    publish = [("publish", partial(make_document, i, values)) for i, values in enumerate(d_specs)]
    return subscribe[:half] + publish[:split] + subscribe[half:] + publish[split:]


def _run(engine: str, script, *checks):
    """The script's deliveries on one in-process engine, ``checks`` installed on it."""
    config = RuntimeConfig(engine=engine, construct_outputs=False, executor="serial")
    with open_broker(config) as broker:
        for check in checks:
            check(broker.engine.processor)
        return run_script(broker, script)


def _check_plans(processor) -> None:
    """Make every plan execution also run the plan-per-call evaluator and compare."""
    evaluate = processor.plan_cache.evaluate

    def checked(cq, env, delta=None):
        out = evaluate(cq, env, delta=delta)
        assert sorted(out.rows) == sorted(evaluate_conjunctive(cq, env).rows)
        return out

    processor.plan_cache.evaluate = checked


def _check_dispatch(processor) -> None:
    """Make every document check that the units it skips would return nothing."""
    units = processor._units

    def checked(relevant):
        chosen = units(relevant)
        kept = {id(unit) for unit in chosen}
        every = (
            {template.template_id for template in processor.registry.templates}
            if processor.registry is not None
            else set(processor._queries)
        )
        for unit in units(every):
            if id(unit) not in kept:
                assert not evaluate_conjunctive(unit.cq, processor.env).rows
        return chosen

    processor._units = checked


@given(query_specs, doc_specs)
@settings(max_examples=20, deadline=None)
def test_plan_cache_equivalent_to_plan_per_call(q_specs, d_specs):
    script = _interleaved_script(make_queries(q_specs), d_specs)
    assert _run("mmqjp", script, _check_plans) == _run("sequential", script)


@given(query_specs, doc_specs)
@settings(max_examples=20, deadline=None)
def test_prune_dispatch_equivalent_to_full_dispatch(q_specs, d_specs):
    script = _interleaved_script(make_queries(q_specs), d_specs)
    assert _run("mmqjp", script, _check_dispatch) == _run("sequential", script)


@given(query_specs, doc_specs)
@settings(max_examples=15, deadline=None)
def test_sequential_knobs_equivalent(q_specs, d_specs):
    script = _interleaved_script(make_queries(q_specs), d_specs)
    assert _run("sequential", script, _check_plans, _check_dispatch) == _run("mmqjp", script)


def test_plan_replanned_after_ndv_epoch_drift():
    """Growing the state across power-of-two buckets re-optimizes the plans."""
    rng = random.Random(5)
    queries = make_queries([(2, 1), (3, 2)], window=float("inf"))
    script = [("subscribe", f"q{i}", query, None) for i, query in enumerate(queries)] + [
        ("publish", partial(make_document, i, [rng.randrange(3) for _ in range(4)]))
        for i in range(40)
    ]
    config = RuntimeConfig(construct_outputs=False, executor="serial")
    with open_broker(config) as broker:
        assert run_script(broker, script) == run_script(oracle.Oracle(), script)
        stats = broker.engine.plan_cache.stats()
    # 40 documents merged into the state cross several size buckets.
    assert stats["replans"] >= 1
    assert stats["hits"] > stats["replans"]


def test_relevance_pruning_skips_foreign_topics():
    schemas = topic_schemas(3)
    queries = generate_topic_queries(schemas, 9, window=float("inf"), seed=1)
    with open_broker(RuntimeConfig(construct_outputs=False, executor="serial")) as broker:
        for i, query in enumerate(queries):
            broker.subscribe(query, subscription_id=f"q{i}")
        # A topic-0 document binds no other topic's variables.
        broker.publish(
            build_document(schemas[0], "d0", 1.0, leaf_values=["x"] * schemas[0].num_leaves)
        )
        assert broker.engine.processor.templates_skipped >= 2


def test_prune_state_clears_interleaved_with_processing():
    """subscribe/publish/prune interleavings agree in every configuration."""
    specs = [(0, 1, 0, 1), (1, 0, 1, 0), (0, 0, 1, 1), (1, 1, 0, 0), (0, 1, 1, 0)]
    script = _interleaved_script(make_queries([(1, 3), (2, 4)], window=3.0), specs)
    reference = _run("mmqjp", script)
    assert any(reference) and _run("sequential", script) == reference
    for engine in ENGINES:
        for shards in (1, 2):
            config = RuntimeConfig(engine=engine, shards=shards, construct_outputs=False)
            with open_broker(config) as broker:
                assert run_script(broker, script) == reference, config
                # The finite window pruned old documents along the way.
                assert broker.merged_engine_stats().state_documents < len(specs)


def test_knobs_thread_through_brokers():
    config = RuntimeConfig(construct_outputs=False, executor="serial")
    with open_broker(config) as broker:
        assert broker.engine.plan_cache is not None
        assert broker.engine.processor.relevance is not None
    with open_broker(config.replace(shards=2)) as sharded:
        for shard in sharded.shards:
            assert shard.engine.plan_cache is not None
            assert shard.engine.processor.env.dictionary is not None


def test_plan_cache_counts_probe_and_head_rows():
    """``probe_rows`` / ``head_rows``: the plans' intermediate solutions and their output."""
    coauthor = "S//blog->b[.//author->a] FOLLOWED BY{a=a, INF} S//blog->b[.//author->a]"
    config = RuntimeConfig(construct_outputs=False, executor="serial")
    with open_broker(config) as broker:
        broker.subscribe(coauthor)
        delivered = []
        for i in range(4):
            delivered += broker.publish(f"<blog><author>A</author><title>T{i}</title></blog>")
        stats = broker.engine.plan_cache.stats()
    # An unbounded window admits every head row: one delivery each.
    assert stats["head_rows"] == len(delivered) == 1 + 2 + 3
    assert stats["probe_rows"] >= stats["head_rows"]
