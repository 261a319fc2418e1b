"""Unit tests for the publish/subscribe layer (broker, streams, subscriptions)."""

import pytest

from repro import RuntimeConfig
from repro.pubsub import Broker
from repro.pubsub.stream import Stream, StreamRegistry
from repro.pubsub.subscription import Subscription, SubscriptionResult
from repro.xmlmodel import to_xml
from repro.xscl import parse_query
from tests.conftest import make_blog_article, make_book_announcement, PAPER_Q1, PAPER_WINDOWS

CROSS_POST = (
    "S//blog->b[.//author->a][.//title->t] "
    "FOLLOWED BY{a=a AND t=t, 10} "
    "S//blog->b[.//author->a][.//title->t]"
)


# --------------------------------------------------------------------------- #
# streams
# --------------------------------------------------------------------------- #
def test_stream_records_documents():
    stream = Stream(name="S", history_size=2)
    for i in range(3):
        doc = make_blog_article(docid=f"b{i}", timestamp=float(i))
        stream.record((to_xml(doc, pretty=False), doc.docid, doc.timestamp, doc.stream))
    assert stream.num_documents == 3
    assert stream.last_timestamp == 2.0
    assert [d.docid for d in stream.history()] == ["b1", "b2"]


def test_stream_registry_lazy_creation():
    registry = StreamRegistry()
    stream = registry.get_or_create("feeds")
    assert registry.get_or_create("feeds") is stream
    assert "feeds" in registry
    assert registry.names() == ["feeds"]
    assert registry.stats() == {"feeds": 0}


# --------------------------------------------------------------------------- #
# subscriptions
# --------------------------------------------------------------------------- #
def test_subscription_delivery_and_deactivation():
    received = []
    sub = Subscription("s1", parse_query("blog//entry->e"), callback=received.append)
    result = SubscriptionResult(subscription_id="s1")
    sub.deliver(result)
    assert received == [result]
    assert sub.num_results == 1
    sub.active = False
    sub.deliver(result)
    assert sub.num_results == 1


# --------------------------------------------------------------------------- #
# broker
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("engine", ["mmqjp", "mmqjp-vm", "sequential"])
def test_broker_join_subscription_delivers_matches(engine):
    broker = Broker(RuntimeConfig(engine=engine, construct_outputs=engine == "mmqjp"))
    received = []
    broker.subscribe(PAPER_Q1, callback=received.append, window_symbols=PAPER_WINDOWS)
    assert broker.publish(make_book_announcement()) == []
    deliveries = broker.publish(make_blog_article())
    assert len(deliveries) == 1
    assert received and received[0].match.qid == deliveries[0].subscription_id
    if engine == "mmqjp":
        assert received[0].output is not None
        assert received[0].output.root.tag == "result"


def test_broker_unknown_engine_rejected():
    with pytest.raises(ValueError):
        Broker(RuntimeConfig(engine="turbo"))


def test_broker_filter_subscription():
    broker = Broker()
    blogs = []
    broker.subscribe("S//blog->b[.//author->a]", callback=blogs.append)
    broker.publish(make_blog_article())
    broker.publish(make_book_announcement())
    assert len(blogs) == 1
    assert blogs[0].document.root.tag == "blog"


def test_broker_unsubscribe_mutes_deliveries():
    broker = Broker()
    sub = broker.subscribe(CROSS_POST)
    broker.publish(make_blog_article(docid="b1", timestamp=1.0))
    broker.unsubscribe(sub.subscription_id)
    broker.publish(make_blog_article(docid="b2", timestamp=2.0))
    assert sub.num_results == 0


def test_broker_duplicate_subscription_id_rejected():
    broker = Broker()
    broker.subscribe(CROSS_POST, subscription_id="dup")
    with pytest.raises(ValueError):
        broker.subscribe(CROSS_POST, subscription_id="dup")


def test_broker_results_collected_without_callback():
    broker = Broker()
    sub = broker.subscribe(CROSS_POST)
    broker.publish(make_blog_article(docid="b1", timestamp=1.0))
    broker.publish(make_blog_article(docid="b2", timestamp=2.0))
    assert sub.num_results == 1
    assert sub.results[0].match.lhs_docid == "b1"


def test_broker_publish_stream_and_stats():
    broker = Broker(RuntimeConfig(stream_history=5))
    broker.subscribe(CROSS_POST)
    broker.publish_stream(
        [make_blog_article(docid=f"b{i}", timestamp=float(i + 1)) for i in range(3)]
    )
    stats = broker.stats()
    assert stats["engine"] == "mmqjp"
    assert stats["streams"] == {"S": 3}
    assert stats["num_subscriptions"] == 1
    assert stats["engine_stats"]["num_matches"] == 3


def test_broker_publish_text_with_timestamp_and_stream():
    broker = Broker()
    broker.subscribe(CROSS_POST)
    broker.publish("<blog><author>A</author><title>T</title></blog>", timestamp=1.0)
    deliveries = broker.publish(
        "<blog><author>A</author><title>T</title></blog>", timestamp=2.0
    )
    assert len(deliveries) == 1
    assert "S" in broker.streams.names()


def test_broker_subscription_lookup():
    broker = Broker()
    sub = broker.subscribe(CROSS_POST)
    assert broker.subscription(sub.subscription_id) is sub
    assert broker.subscriptions == [sub]


def test_broker_stats_aggregates_per_stream_counts():
    broker = Broker()
    broker.subscribe(CROSS_POST)
    broker.publish(make_blog_article(docid="b1", timestamp=1.0), stream="blogs")
    broker.publish(make_book_announcement(docid="k1", timestamp=2.0), stream="books")
    broker.publish(make_blog_article(docid="b2", timestamp=3.0), stream="blogs")
    stats = broker.stats()
    assert stats["streams"] == {"blogs": 2, "books": 1}
    assert stats["num_documents_published"] == 3
    assert stats["engine_stats"]["num_documents_processed"] == 3


def test_broker_publish_many_matches_publish_loop():
    batched = Broker()
    looped = Broker()
    batched.subscribe(CROSS_POST)
    looped.subscribe(CROSS_POST)
    documents = [make_blog_article(docid=f"b{i}", timestamp=float(i + 1)) for i in range(3)]
    many = [r.match.key() for r in batched.publish_many(documents)]
    copies = [make_blog_article(docid=f"b{i}", timestamp=float(i + 1)) for i in range(3)]
    one_by_one = [r.match.key() for d in copies for r in looped.publish(d)]
    assert many == one_by_one and len(many) == 3
