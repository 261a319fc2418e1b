"""The session contract: one broker class, whatever the topology.

Every test runs over ``shards ∈ {1, 2, 4}`` × ``executor ∈ {serial,
processes}``.  ``open_broker`` returns the same class with the same
``stats()`` key set for all six, and what a subscriber observes —
deliveries, their order, their timestamps, the clock after a restart — is
that of the one-shard serial run.  Only what is *derived* from the topology
differs: only one in-process shard exposes ``broker.engine``, and process
shards cannot take the broker's match filter across the pipe.

The workload is the topic-sharded one of ``test_parallel_runtime``: each
topic's queries reduce to a template no other topic produces, so templates
spread across shards and a document matches on exactly one of them — which
is what makes the delivery *order* comparable across shard counts (within a
document, join matches arrive in shard order).  Four shards outnumber the
three topic templates, so at least one shard hosts no join template.
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
    for shards in (1, 2, 4)
    for executor in ("serial", "processes")
]
topologies = pytest.mark.parametrize("shards, executor", TOPOLOGIES)

STATS_KEYS = {
    "engine", "storage", "shards", "executor", "workers", "streams",
    "num_subscriptions", "num_filter_subscriptions", "num_cancelled_subscriptions",
    "num_documents_published", "routing", "transport", "columnar", "delta",
    "plans", "engine_stats", "per_shard", "partition", "metrics",
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
# one Stage-1 path: a tree is parsed only where one is kept or delivered
# --------------------------------------------------------------------------- #
@pytest.fixture
def parses(monkeypatch):
    """Count the ``parse_document`` calls of every module a publish reaches."""
    import repro.core.engine as engine_module
    import repro.pubsub.broker as broker_module
    import repro.pubsub.filters as filters_module
    import repro.pubsub.stream as stream_module

    calls = []
    original = engine_module.parse_document

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (engine_module, broker_module, filters_module, stream_module):
        monkeypatch.setattr(module, "parse_document", counted)
    return calls


@topologies
def test_text_publish_parses_only_where_the_topology_needs_a_document(
    shards, executor, parses, tmp_path
):
    one_in_process_shard = shards == 1 and executor != "processes"
    # One parse per document, shared by every in-process shard it reaches;
    # process shards keep their trees in the worker, out of this count.
    kept_here = 2 if executor != "processes" else 0
    cells = [
        # (cell, config fields, parses over two text publishes)
        ("memory", {}, 0),
        ("sqlite", {"storage": "sqlite", "storage_path": str(tmp_path / "db")}, 0),
        ("stream-history", {"stream_history": 2}, 0),
        ("stored-documents", {"construct_outputs": True}, kept_here),
    ]
    for cell, fields, expected in cells:
        parses.clear()
        fields = {"construct_outputs": False, "storage": "memory", **fields}
        with open_broker(_config(shards, executor, **fields)) as broker:
            assert (broker.engine is not None) == one_in_process_shard
            broker.subscribe(CROSS_POST)
            broker.subscribe("S//book->k")  # a filter subscription no blog matches
            broker.publish(BLOG_TEXT)
            deliveries = broker.publish_many([BLOG_TEXT])
            assert len(deliveries) == 1
            assert (deliveries[0].output is not None) == fields["construct_outputs"]
            assert len(parses) == expected, cell

    # Parses only for a filter match and a history read; a published tree
    # is delivered as it is.
    parses.clear()
    with open_broker(
        _config(shards, executor, construct_outputs=False, storage="memory", stream_history=2)
    ) as broker:
        broker.subscribe(CROSS_POST)
        broker.subscribe("S//blog->b")
        (filtered,) = broker.publish(BLOG_TEXT)
        assert filtered.match is None and filtered.document.root.tag == "blog"
        assert len(parses) == 1
        tree = make_blog_article(author="A", title="T", timestamp=0.0)
        delivered = broker.publish(tree)
        assert [r.document for r in delivered if r.match is None] == [tree]
        assert len(delivered) == 2 and len(parses) == 1
        history = broker.streams.get_or_create("S").history()
        assert [d.docid for d in history] == [filtered.document.docid, tree.docid]
        assert [d.timestamp for d in history] == [1.0, 2.0]
        assert len(parses) == 3


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
    # One in-process shard: a text publish is parsed once for each consumer
    # that keeps or delivers its tree, and not at all otherwise.
    if fields.get("storage") == "sqlite":
        fields = dict(fields, storage_path=str(tmp_path))
    base = {"construct_outputs": False, "executor": "serial", "storage": "memory"}
    with open_broker(RuntimeConfig(**{**base, **fields})) as broker:
        broker.subscribe(CROSS_POST)
        if subscribe_filter:
            filter_sub = broker.subscribe("S//blog->b")
        broker.publish(BLOG_TEXT)
        deliveries = broker.publish(BLOG_TEXT)
        joined = [r for r in deliveries if r.match is not None]
        assert len(joined) == 1
        keeps_tree = subscribe_filter or fields.get("construct_outputs") or fields.get(
            "store_documents"
        )
        assert len(parses) == (2 if keeps_tree else 0)
        if subscribe_filter:
            (filtered,) = [r for r in deliveries if r.match is None]
            assert filtered.document.root.tag == "blog"
            filter_sub.cancel()  # ... and no parse once nothing needs the tree
            broker.publish(BLOG_TEXT)
            assert len(parses) == 2
        if fields.get("construct_outputs"):
            assert joined[0].output is not None
        if fields.get("store_documents"):
            assert len(broker.engine.documents) == 2
        if fields.get("stream_history"):
            history = broker.streams.get_or_create("S").history()
            assert [d.timestamp for d in history] == [1.0, 2.0]
            assert len(parses) == 2  # parsed on the read, not on the publish


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


#: A second template; it lands on the shard CROSS_POST leaves free (the least-loaded one).
BY_AUTHOR = "S//blog->b[.//author->a] FOLLOWED BY{a=a, 10} S//blog->b[.//author->a]"


def test_in_process_shards_share_one_tree_per_document(parses):
    """Stored documents: one parse per published text, whatever it reaches."""
    config = RuntimeConfig(
        shards=2, executor="serial", construct_outputs=True
    )
    with open_broker(config) as broker:
        joins = {broker.subscribe(query).subscription_id for query in (CROSS_POST, BY_AUTHOR)}
        broker.subscribe("S//blog->b")  # a filter every blog matches
        assert sorted(shard.num_queries for shard in broker.shards) == [1, 1]
        broker.publish(BLOG_TEXT)
        deliveries = broker.publish_many([BLOG_TEXT])
        assert len(parses) == 2
        (filtered,) = [d for d in deliveries if d.match is None]
        kept = [shard.engine.documents[filtered.document.docid] for shard in broker.shards]
        assert kept == [filtered.document, filtered.document]
        assert all(tree is filtered.document for tree in kept)
        assert {d.subscription_id for d in deliveries if d.match is not None} == joins

        tree = make_blog_article(author="A", title="T", timestamp=0.0)
        broker.publish(tree)
        assert len(parses) == 2  # a published tree is kept as it is
        assert all(shard.engine.documents[tree.docid] is tree for shard in broker.shards)


MALFORMED = "<blog><author>A</author><title>T</blog>"


@topologies
def test_a_malformed_publish_changes_nothing(shards, executor, tmp_path):
    """A rejected publish leaves clock, state, streams and deliveries as they were."""
    from repro.xmlmodel.parser import XmlParseError

    cells = [
        ("joins", [CROSS_POST], {}),
        ("joins-sqlite", [CROSS_POST], {"storage": "sqlite", "storage_path": str(tmp_path / "db")}),
        ("joins-stored", [CROSS_POST], {"construct_outputs": True}),
        # Both shards busy: a process worker's rejection must not strand the other's reply.
        ("unrouted", [CROSS_POST, BY_AUTHOR], {"route_dispatch": False}),
        ("filter-only", ["S//blog->b"], {}),
        ("nothing", [], {}),
    ]
    for cell, queries, fields in cells:
        fields = {"construct_outputs": False, "stream_history": 4, **fields}
        with open_broker(_config(shards, executor, **fields)) as broker:
            for query in queries:
                broker.subscribe(query)
            first = broker.publish(BLOG_TEXT)
            before = broker.stats()
            for attempt in (
                lambda: broker.publish(MALFORMED),
                lambda: broker.publish_many([BLOG_TEXT, MALFORMED]),
            ):
                with pytest.raises(XmlParseError):
                    attempt()
                assert broker.stats()["num_documents_published"] == 1, cell
                assert broker.stats()["engine_stats"] == before["engine_stats"], cell
                history = broker.streams.get_or_create("S").history()
                assert [d.timestamp for d in history] == [1.0], cell
            # Nothing of the rejected batch joins later, and the clock goes on at 2.
            second = broker.publish(BLOG_TEXT)
            pairs = [
                (r.match.lhs_timestamp, r.match.rhs_timestamp)
                for r in second
                if r.match is not None
            ]
            joins = [query for query in queries if "FOLLOWED BY" in query]
            assert pairs == [(1.0, 2.0)] * len(joins), cell
            assert len(second) == len(first) + len(pairs), cell
