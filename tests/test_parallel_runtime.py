"""Process-parallel shards and relevance-aware routing.

The oracle throughout is *dispatch equivalence*: the match set a document
stream produces must be byte-identical across executors (serial /
processes), shard counts, the default/ablation knob matrix,
and routing on/off — routing and process placement change which shards see
a document and where its engine lives, never what matches.

The workload is the topic-sharded one of the plan-scaling benchmark
(:func:`repro.workloads.synthetic.topic_schemas`): topic ``t`` has ``t+1``
leaves, so each topic's queries reduce to a template shape no other topic
produces — templates spread across shards, and a document of one topic is
irrelevant to every other topic's shard, which is exactly the regime the
router prunes.  All documents carry explicit docids: auto-docids come from
a process-global counter, which would make match keys differ between the
compared runs.
"""

from __future__ import annotations

import pytest

from repro import RuntimeConfig, open_broker
from repro.pubsub import Broker
from repro.runtime import ShardRouter, ShardWorkerError
from repro.workloads.querygen import generate_topic_queries
from repro.workloads.synthetic import build_document, topic_schemas
from repro.xmlmodel import to_xml
from tests.conftest import (
    PAPER_Q1,
    PAPER_WINDOWS,
    make_blog_article,
    make_book_announcement,
)

NUM_TOPICS = 4
WINDOW = 200.0


@pytest.fixture(scope="module")
def topic_workload():
    schemas = topic_schemas(NUM_TOPICS)
    queries = generate_topic_queries(schemas, 2 * NUM_TOPICS, window=WINDOW)
    documents = []
    n = 0
    for rnd in range(6):
        for t, schema in enumerate(schemas):
            documents.append(
                build_document(
                    schema,
                    docid=f"d{n}",
                    timestamp=float(n + 1),
                    leaf_values=[f"t{t}v{rnd % 2}"] * schema.num_leaves,
                )
            )
            n += 1
    return schemas, queries, documents


def _subscribe_all(broker, queries):
    for i, query in enumerate(queries):
        broker.subscribe(query, subscription_id=f"q{i}")


def _keys(deliveries):
    return sorted((d.subscription_id,) + d.match.key() for d in deliveries)


def _run(config, queries, documents, batched=False):
    with open_broker(config) as broker:
        _subscribe_all(broker, queries)
        if batched:
            deliveries = broker.publish_many(documents)
        else:
            deliveries = [d for doc in documents for d in broker.publish(doc)]
        stats = broker.stats()
    return _keys(deliveries), stats


@pytest.fixture(scope="module")
def topic_baseline(topic_workload):
    _, queries, documents = topic_workload
    keys, _ = _run(
        RuntimeConfig(construct_outputs=False, auto_timestamp=False),
        queries,
        documents,
    )
    assert keys, "the topic workload must produce matches"
    return keys


# --------------------------------------------------------------------------- #
# equivalence matrix
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("executor", ["serial", "processes"])
@pytest.mark.parametrize("shards", [1, 2, 4, 8])
def test_executor_equivalence(executor, shards, topic_workload, topic_baseline):
    _, queries, documents = topic_workload
    config = RuntimeConfig(
        construct_outputs=False,
        auto_timestamp=False,
        shards=shards,
        executor=executor,
    )
    keys, stats = _run(config, queries, documents)
    assert keys == topic_baseline
    if executor == "processes":
        assert stats["executor"] == "processes"
        assert stats["workers"] == shards  # one engine per worker process


@pytest.mark.parametrize("base", ["default", "ablation"], ids=["default", "ablation"])
def test_process_equivalence_config_matrix(base, topic_workload, topic_baseline):
    _, queries, documents = topic_workload
    make = RuntimeConfig.ablation if base == "ablation" else RuntimeConfig
    config = make(
        construct_outputs=False,
        auto_timestamp=False,
        shards=4,
        executor="processes",
    )
    keys, _ = _run(config, queries, documents)
    assert keys == topic_baseline


@pytest.mark.parametrize("executor", ["serial", "processes"])
@pytest.mark.parametrize("route", [True, False], ids=["routed", "replicated"])
@pytest.mark.parametrize("batched", [False, True], ids=["publish", "publish_many"])
def test_routing_equivalence(
    executor, route, batched, topic_workload, topic_baseline
):
    _, queries, documents = topic_workload
    config = RuntimeConfig(
        construct_outputs=False,
        auto_timestamp=False,
        shards=4,
        executor=executor,
        route_dispatch=route,
    )
    keys, stats = _run(config, queries, documents, batched=batched)
    assert keys == topic_baseline
    if route:
        routing = stats["routing"]
        assert routing["documents_routed"] == len(documents)
        assert routing["shards_skipped"] > 0, (
            "distinct topic templates must spread over shards, so routing "
            "must skip the off-topic ones"
        )
    else:
        assert stats["routing"] is None


# --------------------------------------------------------------------------- #
# register -> publish -> cancel -> publish interleavings
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("executor", ["serial", "processes"])
def test_cancel_unroutes_retracted_templates(executor, topic_workload):
    schemas, queries, documents = topic_workload
    half = len(documents) // 2
    base = RuntimeConfig(construct_outputs=False, auto_timestamp=False, shards=4)
    cancelled = [f"q{i}" for i, q in enumerate(queries) if i % NUM_TOPICS == 0]

    with open_broker(base.replace(executor=executor)) as broker:
        _subscribe_all(broker, queries)
        for doc in documents[:half]:
            broker.publish(doc)
        for sid in cancelled:
            assert broker.cancel(sid)
        before = broker.stats()["routing"]
        churned = _keys(
            [d for doc in documents[half:] for d in broker.publish(doc)]
        )
        after = broker.stats()["routing"]
        assert broker._router.num_queries == len(queries) - len(cancelled)

    # Topic-0 documents in the second half can no longer bind any query, so
    # the router must skip *every* candidate shard for them.
    topic0_docs = sum(
        1 for i in range(half, len(documents)) if i % NUM_TOPICS == 0
    )
    assert topic0_docs > 0
    skipped = after["shards_skipped"] - before["shards_skipped"]
    dispatched = after["shards_dispatched"] - before["shards_dispatched"]
    assert skipped > 0
    assert dispatched + skipped >= after["documents_routed"] - before["documents_routed"]
    assert all(sid not in {k[0] for k in churned} for sid in cancelled)

    # A broker that never had the cancelled queries sees the same stream.
    with open_broker(base) as fresh:
        for i, query in enumerate(queries):
            if f"q{i}" not in cancelled:
                fresh.subscribe(query, subscription_id=f"q{i}")
        for doc in documents[:half]:
            fresh.publish(doc)
        reference = _keys(
            [d for doc in documents[half:] for d in fresh.publish(doc)]
        )
    assert churned == reference


# --------------------------------------------------------------------------- #
# process runtime: parent-side delivery, pruning, crash safety
# --------------------------------------------------------------------------- #
def test_outputs_callbacks_and_sinks_fire_in_parent():
    from repro.pubsub import CollectingSink

    received = []
    sink = CollectingSink()
    with Broker(RuntimeConfig(shards=2, executor="processes")) as broker:
        broker.subscribe(
            PAPER_Q1,
            callback=received.append,
            window_symbols=PAPER_WINDOWS,
            subscription_id="q1",
            sink=sink,
        )
        assert broker.publish(make_book_announcement(docid="bk0", timestamp=1.0)) == []
        deliveries = broker.publish(make_blog_article(docid="bl0", timestamp=2.0))
        assert len(deliveries) == 1
        assert deliveries[0].output is not None
        assert deliveries[0].output.root.tag == "result"
        assert [d.subscription_id for d in received] == ["q1"]
        assert len(sink.results) == 1
        # output construction round-trips through the owning worker
        again = broker.output_document(deliveries[0].match)
        assert again.root.tag == "result"


def test_prune_reaches_worker_engines(topic_workload):
    _, queries, documents = topic_workload
    config = RuntimeConfig(
        construct_outputs=False, auto_timestamp=False, shards=2, executor="processes"
    )
    with open_broker(config) as broker:
        _subscribe_all(broker, queries)
        for doc in documents:
            broker.publish(doc)
        assert broker.prune(float(len(documents) + WINDOW + 1)) > 0
        assert broker.merged_engine_stats().num_documents_processed > 0


def test_worker_death_raises_cleanly_and_close_does_not_hang(topic_workload):
    _, queries, documents = topic_workload
    config = RuntimeConfig(
        construct_outputs=False,
        auto_timestamp=False,
        shards=2,
        executor="processes",
        route_dispatch=False,
    )
    broker = Broker(config)
    try:
        _subscribe_all(broker, queries)
        broker.publish(documents[0])
        victim = broker._shard_of["q0"]
        victim.process.kill()
        victim.process.join(timeout=10)
        with pytest.raises(ShardWorkerError):
            for doc in documents[1:]:
                broker.publish(doc)
    finally:
        broker.close()  # must return promptly despite the dead worker


# --------------------------------------------------------------------------- #
# recovery under the process runtime
# --------------------------------------------------------------------------- #
def test_restart_equivalence_under_processes(tmp_path, topic_workload):
    _, queries, documents = topic_workload
    half = len(documents) // 2
    durable = RuntimeConfig(
        construct_outputs=False,
        auto_timestamp=False,
        shards=2,
        executor="processes",
        storage="sqlite",
        storage_path=str(tmp_path),
    )
    reference, _ = _run(
        durable.replace(storage="memory", storage_path=None), queries, documents
    )

    broker = open_broker(durable)
    _subscribe_all(broker, queries)
    out = [d for doc in documents[:half] for d in broker.publish(doc)]
    broker.close()

    resumed = open_broker(resume_from=str(tmp_path))
    assert resumed.num_shards == 2
    assert resumed.stats()["executor"] == "processes"
    out.extend(d for doc in documents[half:] for d in resumed.publish(doc))
    resumed.close()
    assert _keys(out) == reference


# --------------------------------------------------------------------------- #
# executor plumbing (satellites)
# --------------------------------------------------------------------------- #
def test_config_knobs():
    assert RuntimeConfig(executor="processes").executor == "processes"
    assert RuntimeConfig.ablation().route_dispatch is False
    assert RuntimeConfig().route_dispatch is True
    with pytest.raises(ValueError):
        RuntimeConfig(route_dispatch="yes")


# --------------------------------------------------------------------------- #
# router unit tests
# --------------------------------------------------------------------------- #
def _record(document):
    """The ``(text, docid, timestamp, stream)`` record a broker routes."""
    return (to_xml(document, pretty=False), document.docid, document.timestamp, document.stream)


def test_router_routes_by_topic_and_unroutes_on_cancel(topic_workload):
    schemas, queries, documents = topic_workload
    router = ShardRouter()
    for i, query in enumerate(queries):
        router.register(f"q{i}", query, shard_id=i % NUM_TOPICS)
    assert router.num_queries == len(queries)
    assert router.stats()["variables"] > 0

    for i, doc in enumerate(documents[:NUM_TOPICS]):
        assert router.route(_record(doc)) == {i % NUM_TOPICS}

    # an off-stream document binds nothing and routes nowhere
    foreign = make_book_announcement(docid="bk-x", timestamp=1.0)
    foreign.stream = "other-stream"
    assert router.route(_record(foreign)) == set()

    # cancelling every topic-0 query stops topic-0 documents entirely
    for i in range(len(queries)):
        if i % NUM_TOPICS == 0:
            assert router.cancel(f"q{i}")
    assert not router.cancel("q0"), "cancel is idempotent"
    assert router.route(_record(documents[0])) == set()
    assert router.route(_record(documents[1])) == {1}
    assert router.num_queries == len(queries) - len(queries) // NUM_TOPICS


def test_router_edge_widening_keeps_paper_queries_routable():
    # PAPER_Q1's reduced graph keeps structural edges whose descendants the
    # NFA binds through their ancestors; the widened bound set must keep the
    # owning shard reachable for both sides of the join.
    router = ShardRouter()
    from repro.xscl.parser import parse_query

    router.register("q1", parse_query(PAPER_Q1, window_symbols=PAPER_WINDOWS), 0)
    assert router.route(_record(make_book_announcement(docid="b", timestamp=1.0))) == {0}
    assert router.route(_record(make_blog_article(docid="a", timestamp=2.0))) == {0}
