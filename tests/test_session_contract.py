"""The session contract: one broker class, whatever the topology.

Every test runs over ``shards ∈ {1, 2}`` × ``executor ∈ {serial, threads,
processes}``.  ``open_broker`` returns the same class with the same
``stats()`` key set for all six, and what a subscriber observes —
deliveries, their order, their timestamps, the clock after a restart — is
that of the one-shard serial run.  Only what is *derived* from the topology
differs: the text fast path exists on one in-process shard, and process
shards cannot take the broker's match filter across the pipe.

The workload is the topic-sharded one of ``test_parallel_runtime``: each
topic's queries reduce to a template no other topic produces, so templates
spread across shards and a document matches on exactly one of them — which
is what makes the delivery *order* comparable across shard counts (within a
document, join matches arrive in shard order).
"""

from __future__ import annotations

import warnings

import pytest

import repro
from repro import Broker, RuntimeConfig, ShardedBroker, open_broker
from repro.workloads.querygen import generate_topic_queries
from repro.workloads.synthetic import build_document, topic_schemas
from repro.xmlmodel.serialize import to_xml
from tests.conftest import (
    PAPER_Q1,
    PAPER_WINDOWS,
    make_blog_article,
    make_book_announcement,
)

TOPOLOGIES = [
    pytest.param(shards, executor, id=f"{shards}-{executor}")
    for shards in (1, 2)
    for executor in ("serial", "threads", "processes")
]
topologies = pytest.mark.parametrize("shards, executor", TOPOLOGIES)

STATS_KEYS = {
    "engine", "storage", "shards", "executor", "workers", "streams",
    "num_subscriptions", "num_filter_subscriptions", "num_cancelled_subscriptions",
    "num_documents_published", "routing", "transport", "columnar", "delta",
    "engine_stats", "per_shard", "partition", "metrics",
}

CROSS_POST = (
    "S//blog->b[.//author->a][.//title->t] "
    "FOLLOWED BY{a=a AND t=t, 10} "
    "S//blog->b[.//author->a][.//title->t]"
)
BLOG_TEXT = "<blog><author>A</author><title>T</title></blog>"
NUM_TOPICS = 3


def _config(shards, executor, **fields) -> RuntimeConfig:
    return RuntimeConfig(shards=shards, executor=executor, **fields)


def _topic_documents(rounds: int = 4):
    documents = []
    for rnd in range(rounds):
        for t, schema in enumerate(topic_schemas(NUM_TOPICS)):
            documents.append(
                build_document(
                    schema,
                    docid=f"d{len(documents)}",
                    timestamp=0.0,  # unstamped: the broker's clock assigns n to the n-th
                    leaf_values=[f"t{t}v{rnd % 2}"] * schema.num_leaves,
                )
            )
    return documents


def _observe(result):
    """What a subscriber can tell one delivery from another by."""
    if result.match is None:
        return (result.subscription_id, result.document.docid)
    return (result.subscription_id,) + result.match.key()


def _run_session(config, how: str):
    """Subscribe joins, a filter and a paused join; publish; report what was seen."""
    schemas = topic_schemas(NUM_TOPICS)
    seen = []
    with open_broker(config) as broker:
        for i, query in enumerate(generate_topic_queries(schemas, 2 * NUM_TOPICS, window=50.0)):
            broker.subscribe(query, subscription_id=f"q{i}", callback=seen.append)
        root = schemas[0].root_tag
        broker.subscribe(f"S//{root}->r", subscription_id="filter", callback=seen.append)
        broker.subscription("q1").pause()
        documents = _topic_documents()
        if how == "publish":
            returned = [r for document in documents for r in broker.publish(document)]
        else:
            returned = getattr(broker, how)(documents)
        stats = broker.stats()
    assert [_observe(r) for r in returned] == [_observe(r) for r in seen]
    return [_observe(r) for r in returned], stats


# --------------------------------------------------------------------------- #
# one class, one stats() schema
# --------------------------------------------------------------------------- #
@topologies
def test_open_broker_returns_the_one_class(shards, executor):
    with open_broker(_config(shards, executor)) as broker:
        assert type(broker) is Broker is repro.Broker
        assert broker.num_shards == shards
        stats = broker.stats()
    assert set(stats) == STATS_KEYS
    assert stats["shards"] == shards and len(stats["per_shard"]) == shards
    assert (stats["routing"] is None) == (shards == 1)
    assert (stats["partition"] is None) == (shards == 1)
    if executor == "processes":
        assert stats["executor"] == "processes" and stats["workers"] == shards
    else:
        assert stats["workers"] is None
        assert not any(stats["transport"].values())


def test_open_broker_accepts_engine_names_and_overrides():
    with open_broker(executor="serial") as broker:
        assert broker.num_shards == 1 and broker.engine is not None
    with open_broker("sequential", shards=2) as broker:
        assert broker.num_shards == 2 and broker.engine_name == "sequential"
        assert broker.engine is None  # no single engine to hand out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with open_broker(construct_outputs=False, shards=2) as broker:
            assert broker.num_shards == 2 and not broker.construct_outputs
    with pytest.raises(TypeError):
        open_broker(42)


def test_broker_session_surface():
    for method in ("subscribe", "cancel", "unsubscribe", "mute", "publish", "publish_many",
                   "publish_stream", "prune", "stats", "close", "__enter__", "__exit__"):
        assert callable(getattr(Broker, method, None)), method
    # the second name adds nothing: a subclass (so that tools patching both
    # names wrap each once) with an empty body
    assert ShardedBroker.__bases__ == (Broker,)
    assert all(name.startswith("__") for name in vars(ShardedBroker))
    with ShardedBroker(RuntimeConfig(shards=2)) as broker:
        assert isinstance(broker, Broker) and broker.num_shards == 2


def test_validation_is_the_configs():
    with pytest.raises(ValueError):
        RuntimeConfig(shards=0)
    with pytest.raises(ValueError):
        Broker(RuntimeConfig(shards=2, construct_outputs=True, store_documents=False))
    with pytest.raises(ValueError):
        Broker(RuntimeConfig(engine="turbo"))


# --------------------------------------------------------------------------- #
# identical deliveries, delivery order and timestamps
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def reference():
    runs = {
        how: _run_session(_config(1, "serial", construct_outputs=False), how)[0]
        for how in ("publish", "publish_many", "publish_stream")
    }
    assert runs["publish"], "the contract workload must deliver something"
    assert runs["publish"] == runs["publish_many"] == runs["publish_stream"]
    assert {seen[0] for seen in runs["publish"]} >= {"q0", "filter"}
    return runs


@pytest.mark.parametrize("how", ["publish", "publish_many", "publish_stream"])
@topologies
def test_deliveries_and_their_order_match_the_one_shard_run(shards, executor, how, reference):
    seen, stats = _run_session(_config(shards, executor, construct_outputs=False), how)
    assert seen == reference[how]
    assert not any(observed[0] == "q1" for observed in seen)  # paused
    assert stats["num_documents_published"] == 4 * NUM_TOPICS
    assert stats["streams"] == {"S": 4 * NUM_TOPICS}
    if stats["executor"] != "processes":
        # a paused subscription costs no Match construction on any
        # in-process shard, so only delivered matches are counted
        joins = sum(1 for observed in seen if observed[0] != "filter")
        assert stats["engine_stats"]["num_matches"] == joins
    else:
        # the filter cannot cross the pipe: workers materialize, the parent drops
        assert stats["engine_stats"]["num_matches"] > sum(
            1 for observed in seen if observed[0] != "filter"
        )


@topologies
def test_publish_stream_interleaves_per_document(shards, executor):
    """A callback that subscribes mid-stream sees the rest of the stream."""
    late = []
    with open_broker(_config(shards, executor, construct_outputs=False)) as broker:
        def on_first(result):
            if not broker.subscription("first").cancelled:
                broker.cancel("first")
                broker.subscribe(CROSS_POST, subscription_id="late", callback=late.append)

        broker.subscribe(CROSS_POST, subscription_id="first", callback=on_first)
        broker.publish_stream(
            make_blog_article(docid=f"b{i}", timestamp=float(i + 1)) for i in range(4)
        )
    # b0, b1 fire "first"; "late" registers before b2 is read and joins b2 with b3
    assert [(r.match.lhs_docid, r.match.rhs_docid) for r in late] == [("b2", "b3")]


@topologies
def test_constructs_outputs(shards, executor):
    with open_broker(_config(shards, executor)) as broker:
        broker.subscribe(PAPER_Q1, window_symbols=PAPER_WINDOWS, subscription_id="q1")
        assert broker.publish(make_book_announcement()) == []
        deliveries = broker.publish(make_blog_article())
        assert len(deliveries) == 1
        assert deliveries[0].output is not None
        assert deliveries[0].output.root.tag == "result"
        assert broker.output_document(deliveries[0].match).root.tag == "result"


@topologies
def test_filter_subscriptions_and_shard_of(shards, executor):
    with open_broker(_config(shards, executor)) as broker:
        hits = []
        broker.subscribe("S//blog->b[.//author->a]", callback=hits.append)
        broker.subscribe(CROSS_POST, subscription_id="join")
        broker.publish(make_blog_article(docid="b1", timestamp=1.0))
        assert len(hits) == 1
        assert broker.shard_of("join") in range(shards)
        assert broker.shard_of(hits[0].subscription_id) is None
        broker.cancel("join")
        assert broker.shard_of("join") is None
        assert broker.shard_of("never-registered") is None


@topologies
def test_unsubscribe_and_lookup(shards, executor):
    with open_broker(_config(shards, executor)) as broker:
        sub = broker.subscribe(CROSS_POST)
        assert broker.subscription(sub.subscription_id) is sub
        assert broker.subscriptions == [sub]
        broker.publish(make_blog_article(docid="b1", timestamp=1.0))
        broker.unsubscribe(sub.subscription_id)
        broker.publish(make_blog_article(docid="b2", timestamp=2.0))
        assert sub.num_results == 0
        with pytest.raises(ValueError):
            broker.subscribe(CROSS_POST, subscription_id=sub.subscription_id)


@topologies
def test_central_auto_timestamping(shards, executor):
    """The n-th published document has timestamp n, stamped or routed or not."""
    with open_broker(_config(shards, executor)) as broker:
        broker.subscribe(CROSS_POST)
        broker.publish(BLOG_TEXT)
        broker.publish(make_book_announcement(docid="k", timestamp=0.0))  # reaches no query
        deliveries = broker.publish_many([BLOG_TEXT])
        assert len(deliveries) == 1
        match = deliveries[0].match
        assert (match.lhs_timestamp, match.rhs_timestamp) == (1.0, 3.0)
        # an explicit stamp is kept and does not advance the clock
        broker.publish(BLOG_TEXT, timestamp=3.5)
        pairs = sorted(
            (r.match.lhs_timestamp, r.match.rhs_timestamp) for r in broker.publish(BLOG_TEXT)
        )
        assert pairs == [(1.0, 4.0), (3.0, 4.0), (3.5, 4.0)]


# --------------------------------------------------------------------------- #
# the text fast path: derived from the topology, never an option
# --------------------------------------------------------------------------- #
@pytest.fixture
def parses(monkeypatch):
    """Count ``parse_document`` calls made by the broker and by the engines."""
    import repro.core.engine as engine_module
    import repro.pubsub.broker as broker_module

    calls = []
    original = broker_module.parse_document

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(broker_module, "parse_document", counted)
    monkeypatch.setattr(engine_module, "parse_document", counted)
    return calls


@topologies
def test_text_publish_parses_only_where_the_topology_needs_a_document(shards, executor, parses):
    config = _config(shards, executor, construct_outputs=False, storage="memory")
    with open_broker(config) as broker:
        broker.subscribe(CROSS_POST)
        broker.publish(BLOG_TEXT)
        assert len(broker.publish(BLOG_TEXT)) == 1
        one_in_process_shard = shards == 1 and executor != "processes"
        assert broker._text_fast_path() == one_in_process_shard
        assert (broker.engine is not None) == one_in_process_shard
    assert len(parses) == (0 if one_in_process_shard else 2)


@pytest.mark.parametrize(
    "fields, subscribe_filter",
    [
        ({}, True),
        ({"stream_history": 2}, False),
        ({"storage": "sqlite"}, False),
        ({"construct_outputs": True}, False),
        ({"store_documents": True}, False),
    ],
    ids=["filter-subscription", "stream-history", "sqlite", "outputs", "stored-documents"],
)
def test_one_shard_fast_path_turns_off_when_the_document_is_needed(
    fields, subscribe_filter, parses, tmp_path
):
    if fields.get("storage") == "sqlite":
        fields = dict(fields, storage_path=str(tmp_path))
    base = {"construct_outputs": False, "executor": "serial", "storage": "memory"}
    with open_broker(RuntimeConfig(**{**base, **fields})) as broker:
        broker.subscribe(CROSS_POST)
        if subscribe_filter:
            filter_sub = broker.subscribe("S//blog->b")
        assert not broker._text_fast_path()
        broker.publish(BLOG_TEXT)
        assert len(parses) == 1
        if subscribe_filter:
            filter_sub.cancel()  # ... and back on once nothing needs the tree
            assert broker._text_fast_path()
            broker.publish(BLOG_TEXT)
            assert len(parses) == 1


# --------------------------------------------------------------------------- #
# durability: the central clock survives close() + resume_from
# --------------------------------------------------------------------------- #
@topologies
def test_clock_continues_at_n_plus_one_after_resume(shards, executor, tmp_path):
    config = _config(
        shards, executor, construct_outputs=False, storage="sqlite", storage_path=str(tmp_path)
    )
    with open_broker(config) as broker:
        broker.subscribe(CROSS_POST, subscription_id="q")
        writes = []
        set_meta = broker._store.set_meta
        broker._store.set_meta = lambda key, value: (writes.append(key), set_meta(key, value))
        broker.publish(BLOG_TEXT)
        broker.publish_many([to_xml(make_book_announcement()), BLOG_TEXT])
        # at most one broker-store meta write per publish *call*
        assert writes == ["clock", "clock"]

    with open_broker(resume_from=str(tmp_path)) as resumed:
        assert type(resumed) is Broker and resumed.num_shards == shards
        assert resumed.stats()["num_documents_published"] == 3
        deliveries = resumed.publish(BLOG_TEXT)
        stamps = sorted((r.match.lhs_timestamp, r.match.rhs_timestamp) for r in deliveries)
        assert stamps == [(1.0, 4.0), (3.0, 4.0)]
        assert resumed.stats()["num_documents_published"] == 4
