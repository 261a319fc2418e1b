"""Tests for the parallel runtime (`repro.runtime`) under the broker.

The central property mirrors the engine-equivalence suite: partitioning the
subscription workload across shards — any shard count, any
executor — must not change the match set produced for a document stream.
"""

from __future__ import annotations

import pytest

from repro import RuntimeConfig
from repro.core import EngineStats, CostBreakdown, SequentialEngine, merge_engine_stats
from repro.pubsub import Broker
from repro.runtime import (
    EngineShard,
    Partitioner,
    ProcessExecutor,
    template_key,
)
from repro.workloads.querygen import QueryWorkloadConfig, generate_queries
from repro.workloads.rss import RssStreamConfig, generate_rss_queries, generate_rss_stream
from repro.xmlmodel.schema import two_level_schema
from repro.xscl import parse_query
from tests.conftest import make_blog_article
from tests.test_oracle_agreement import generated_script

CROSS_POST = (
    "S//blog->b[.//author->a][.//title->t] "
    "FOLLOWED BY{a=a AND t=t, 10} "
    "S//blog->b[.//author->a][.//title->t]"
)


# --------------------------------------------------------------------------- #
# workloads shared by the equivalence tests
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def rss_workload():
    queries = generate_rss_queries(60, seed=5)
    documents = list(
        generate_rss_stream(
            RssStreamConfig(num_items=40, num_channels=4, title_pool_size=12)
        )
    )
    return queries, documents


@pytest.fixture(scope="module")
def synthetic_workload():
    schema = two_level_schema(4)
    workload = QueryWorkloadConfig(schema=schema, num_queries=40, zipf_theta=0.8, window=6.0, seed=3)
    script = generated_script(schema, workload, num_docs=10, pool=3)
    return generate_queries(workload), lambda: [step[1]() for step in script if step[0] == "publish"]


def _broker_match_keys(broker, queries, documents):
    for i, query in enumerate(queries):
        broker.subscribe(query, subscription_id=f"q{i}")
    deliveries = broker.publish_many(list(documents))
    return sorted(r.match.key() for r in deliveries if r.match is not None)


# --------------------------------------------------------------------------- #
# partitioners
# --------------------------------------------------------------------------- #
def test_template_key_invariant_under_variable_renaming():
    a = parse_query(
        "S//item->i[.//title->t] FOLLOWED BY{t=t, 5} S//item->i[.//title->t]"
    )
    b = parse_query(
        "S//item->x[.//title->y] FOLLOWED BY{y=y, 5} S//item->x[.//title->y]"
    )
    assert template_key(a) == template_key(b)


def test_partitioner_keeps_templates_together(rss_workload):
    queries, _ = rss_workload
    partitioner = Partitioner(4)
    by_key: dict[tuple, set[int]] = {}
    for query in queries:
        shard = partitioner.shard_for(query)
        by_key.setdefault(template_key(query), set()).add(shard)
    assert by_key  # the workload produced join queries
    for shards in by_key.values():
        assert len(shards) == 1  # template cohesion
    assert sum(partitioner.loads) == len(queries)
    assert partitioner.num_template_keys == len(by_key)


def test_partitioner_is_deterministic(rss_workload):
    queries, _ = rss_workload
    a = Partitioner(4)
    b = Partitioner(4)
    assert [a.shard_for(q) for q in queries] == [b.shard_for(q) for q in queries]


def test_partitioner_puts_a_new_template_on_the_least_loaded_shard():
    partitioner = Partitioner(3)
    # Three structurally different RSS queries -> three distinct templates.
    texts = [
        "S//item->i[.//title->t] FOLLOWED BY{t=t, 5} S//item->i[.//title->t]",
        "S//item->i[.//title->t][.//channel_url->c] FOLLOWED BY{t=t AND c=c, 5} "
        "S//item->i[.//title->t][.//channel_url->c]",
        "S//item->i[.//title->t][.//channel_url->c][.//description->d] "
        "FOLLOWED BY{t=t AND c=c AND d=d, 5} "
        "S//item->i[.//title->t][.//channel_url->c][.//description->d]",
    ]
    shards = [partitioner.shard_for(parse_query(t)) for t in texts]
    assert sorted(shards) == [0, 1, 2]  # one new template per empty shard
    assert partitioner.loads == [1, 1, 1]


def test_partitioner_release_takes_the_shard_not_the_query():
    partitioner = Partitioner(2)
    query = parse_query(CROSS_POST)
    shard = partitioner.shard_for(query)
    assert partitioner.loads[shard] == 1
    partitioner.release(shard)
    assert partitioner.loads == [0, 0]
    partitioner.release(shard)  # never below zero
    assert partitioner.loads == [0, 0]
    # the template keeps its placement across a cancel -> resubscribe cycle
    assert partitioner.shard_for(query) == shard


def test_partitioner_validation():
    with pytest.raises(ValueError, match="at least one shard"):
        Partitioner(0)
    with pytest.raises(ValueError, match="out of range"):
        Partitioner(2).restore_assignment(parse_query(CROSS_POST), 2)


# --------------------------------------------------------------------------- #
# executors
# --------------------------------------------------------------------------- #
class _FakeHandle:
    """A process-shard stand-in: ``submit`` records, ``collect`` replies or raises."""

    def __init__(self, log, name, fail_on=None):
        self.log, self.name, self.fail_on = log, name, fail_on

    def submit(self, method, args):
        if self.fail_on == "submit":
            raise RuntimeError(f"submit {self.name}")
        self.log.append(("submit", self.name))

    def collect(self):
        self.log.append(("collect", self.name))
        if self.fail_on == "collect":
            raise RuntimeError(f"collect {self.name}")
        return self.name * 2


def test_process_executor_submits_to_every_worker_before_reading_a_reply():
    log = []
    handles = [_FakeHandle(log, n) for n in (1, 2, 3)]
    results = ProcessExecutor().invoke([(h, "wire_batch", (None, b"")) for h in handles])
    assert results == [2, 4, 6]
    assert log == [("submit", 1), ("submit", 2), ("submit", 3),
                   ("collect", 1), ("collect", 2), ("collect", 3)]


@pytest.mark.parametrize("fail_on", ["submit", "collect"])
def test_process_executor_reads_every_reply_in_flight_before_raising(fail_on):
    log = []
    handles = [_FakeHandle(log, 1), _FakeHandle(log, 2, fail_on), _FakeHandle(log, 3)]
    with pytest.raises(RuntimeError, match=f"{fail_on} 2"):
        ProcessExecutor().invoke([(h, "wire_one", (None, b"")) for h in handles])
    submitted = [name for step, name in log if step == "submit"]
    collected = [name for step, name in log if step == "collect"]
    # a failed submit stops the submits; whatever was sent is read back
    assert submitted == ([1] if fail_on == "submit" else [1, 2, 3])
    assert collected == submitted


def test_the_thread_pool_executor_is_gone():
    with pytest.raises(ValueError, match="executor"):
        RuntimeConfig(executor="threads")


# --------------------------------------------------------------------------- #
# result equivalence: sharded vs. unsharded, on the RSS workload
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def rss_baseline(rss_workload):
    queries, documents = rss_workload
    keys = _broker_match_keys(
        Broker(RuntimeConfig(engine="mmqjp", construct_outputs=False)), queries, documents
    )
    assert keys  # the workload is dense enough that something matches
    return keys


@pytest.mark.parametrize("executor", ["serial", "processes"])
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_equivalence_on_rss(shards, executor, rss_workload, rss_baseline):
    queries, documents = rss_workload
    config = RuntimeConfig(
        engine="mmqjp",
        construct_outputs=False,
        shards=shards,
        executor=executor,
    )
    with Broker(config) as broker:
        keys = _broker_match_keys(broker, queries, documents)
    assert keys == rss_baseline


def test_sharded_equivalence_vs_sequential_on_rss(rss_workload, rss_baseline):
    queries, documents = rss_workload
    engine = SequentialEngine(RuntimeConfig(store_documents=False, auto_timestamp=False))
    for i, query in enumerate(queries):
        engine.register_query(query, qid=f"q{i}")
    keys = sorted(
        m.key() for document in documents for m in engine.process_document(document)
    )
    assert keys == rss_baseline


# --------------------------------------------------------------------------- #
# result equivalence on the synthetic workload (finite windows -> pruning on)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("engine", ["mmqjp", "sequential"])
@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_equivalence_on_synthetic(shards, engine, synthetic_workload):
    queries, make_documents = synthetic_workload
    baseline = _broker_match_keys(
        Broker(RuntimeConfig(engine=engine, construct_outputs=False)), queries, make_documents()
    )
    config = RuntimeConfig(engine=engine, construct_outputs=False, shards=shards)
    with Broker(config) as broker:
        keys = _broker_match_keys(broker, queries, make_documents())
    assert keys == baseline
    assert keys


def test_publish_many_equals_publish_loop(rss_workload):
    queries, documents = rss_workload
    batched = Broker(RuntimeConfig(engine="mmqjp", construct_outputs=False, shards=3))
    looped = Broker(RuntimeConfig(engine="mmqjp", construct_outputs=False, shards=3))
    for i, query in enumerate(queries):
        batched.subscribe(query, subscription_id=f"q{i}")
        looped.subscribe(query, subscription_id=f"q{i}")
    many = [r.match.key() for r in batched.publish_many(documents)]
    one_by_one = [r.match.key() for d in documents for r in looped.publish(d)]
    assert many == one_by_one


# --------------------------------------------------------------------------- #
# pruning (satellite: window-based pruning on the publish path, opt-out)
# --------------------------------------------------------------------------- #
def _publish_windowed_stream(broker, n=30):
    broker.subscribe(CROSS_POST)  # window 10
    for i in range(n):
        broker.publish(make_blog_article(docid=f"b{i}", timestamp=float(i + 1)))


def test_broker_auto_prunes_finite_window_state():
    broker = Broker(RuntimeConfig(engine="mmqjp", construct_outputs=False))
    _publish_windowed_stream(broker)
    # Horizon is 10 time units; the state must not retain all 30 documents.
    assert broker.stats()["engine_stats"]["state_documents"] <= 12


def test_broker_auto_prune_opt_out_and_manual_prune():
    broker = Broker(RuntimeConfig(engine="mmqjp", construct_outputs=False, auto_prune=False))
    _publish_windowed_stream(broker)
    assert broker.stats()["engine_stats"]["state_documents"] == 30
    removed = broker.prune(min_timestamp=21.0)
    assert removed == 20
    assert broker.stats()["engine_stats"]["state_documents"] == 10


def test_sharded_broker_prunes_like_unsharded():
    with Broker(RuntimeConfig(engine="mmqjp", construct_outputs=False, shards=2)) as broker:
        _publish_windowed_stream(broker)
        merged = broker.merged_engine_stats()
        assert merged.state_documents <= 12

    with Broker(
        RuntimeConfig(engine="mmqjp", construct_outputs=False, shards=2, auto_prune=False)
    ) as broker:
        _publish_windowed_stream(broker)
        assert broker.merged_engine_stats().state_documents == 30
        assert broker.prune(min_timestamp=21.0) > 0
        assert broker.merged_engine_stats().state_documents == 10


# --------------------------------------------------------------------------- #
# stats aggregation (satellite)
# --------------------------------------------------------------------------- #
def test_merge_engine_stats():
    a = EngineStats(2, 1, 10, 4, 10, {"conjunctive_query": 1.0})
    b = EngineStats(3, 2, 10, 6, 8, {"conjunctive_query": 2.5, "rvj": 0.5})
    merged = merge_engine_stats([a, b])
    assert merged.num_queries == 5
    assert merged.num_templates == 3
    assert merged.num_documents_processed == 10  # fan-out: max, not sum
    assert merged.num_matches == 10
    assert merged.state_documents == 10
    assert merged.costs == {"conjunctive_query": 3.5, "rvj": 0.5}
    empty = merge_engine_stats([])
    assert empty.num_queries == 0 and empty.num_templates is None


def test_cost_breakdown_combined():
    a = CostBreakdown({"x": 1.0})
    b = CostBreakdown({"x": 0.5, "y": 2.0})
    combined = CostBreakdown.combined([a, b])
    assert combined.seconds == {"x": 1.5, "y": 2.0}
    assert a.seconds == {"x": 1.0}  # inputs untouched


def test_sharded_broker_stats_shape(rss_workload):
    queries, documents = rss_workload
    with Broker(RuntimeConfig(engine="mmqjp", construct_outputs=False, shards=4)) as broker:
        for i, query in enumerate(queries):
            broker.subscribe(query, subscription_id=f"q{i}")
        broker.publish_many(documents)
        stats = broker.stats()
    assert stats["shards"] == 4
    assert stats["streams"] == {"S": len(documents)}
    assert stats["num_documents_published"] == len(documents)
    assert stats["num_subscriptions"] == len(queries)
    assert len(stats["per_shard"]) == 4
    assert sum(s["num_queries"] for s in stats["per_shard"]) == len(queries)
    # Every shard with subscriptions saw every document (empty shards skip).
    assert all(
        s["num_documents_processed"] == len(documents)
        for s in stats["per_shard"]
        if s["num_queries"]
    )
    merged = stats["engine_stats"]
    assert merged["num_queries"] == len(queries)
    assert merged["num_matches"] == sum(s["num_matches"] for s in stats["per_shard"])
    assert sum(stats["partition"]["loads"]) == len(queries)


def test_engine_shard_repr_and_counts():
    from repro.core import MMQJPEngine

    shard = EngineShard(1, MMQJPEngine(RuntimeConfig(store_documents=False)))
    shard.register("q0", parse_query(CROSS_POST))
    assert shard.num_queries == 1
    assert "queries=1" in repr(shard)
