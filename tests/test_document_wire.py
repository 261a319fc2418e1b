"""Encode-once document transport (`repro.runtime.wire`).

A published batch crosses to the workers as its ``(text, docid, timestamp,
stream)`` records, framed once into a reusable pickle buffer, and the
*same* bytes are shipped to every routed shard.  These tests pin the
framing round trip, the buffer-reuse semantics, and the parent/worker
transport counters surfaced under ``stats()["transport"]``.
"""

from __future__ import annotations

import pickle
import sys

import pytest

from repro import RuntimeConfig, open_broker
from repro.runtime.wire import WireBuffer, decode_document_batch, encode_document_batch
from repro.xmlmodel import parse_document, to_xml
from tests.conftest import (
    PAPER_Q1,
    PAPER_Q2,
    PAPER_WINDOWS,
    make_blog_article,
    make_book_announcement,
)

CROSS_POST = (
    "S//blog->b[.//author->a][.//title->t] "
    "FOLLOWED BY{a=a AND t=t, 100} "
    "S//blog->b[.//author->a][.//title->t]"
)


def _record(document):
    """The ``(text, docid, timestamp, stream)`` record the broker encodes."""
    return (to_xml(document, pretty=False), document.docid, document.timestamp, document.stream)


ATTR_TEXT = (
    '<feed lang="en"><entry id="1">first</entry><entry id="2"/>'
    "<meta><tag>rss</tag></meta></feed>"
)
ATTR_RECORD = (ATTR_TEXT, "attr-doc", 3.5, "T")


# --------------------------------------------------------------------------- #
# codec round trip
# --------------------------------------------------------------------------- #
def test_document_batch_roundtrip():
    originals = [
        _record(make_book_announcement()), _record(make_blog_article()), ATTR_RECORD
    ]
    records, stamps = decode_document_batch(
        encode_document_batch(originals, [None, 7.0, 123.25])
    )
    assert records == originals
    assert stamps == [None, 7.0, 123.25]
    # Without stamps the decode says so once, not per record.
    assert decode_document_batch(encode_document_batch(originals)) == (originals, None)


def test_decode_indices_selects_documents():
    batch = [_record(make_book_announcement(docid="a")), _record(make_blog_article(docid="b"))]
    payload = encode_document_batch(batch, [1.0, 2.0])
    only_blog, stamps = decode_document_batch(payload, indices=[1])
    assert [record[1] for record in only_blog] == ["b"] and stamps == [2.0]
    both, _ = decode_document_batch(payload, indices=[1, 0])
    assert [record[1] for record in both] == ["b", "a"]


def test_entries_frame_the_published_text():
    # No tree crosses the wire: an entry is the identity, the stamp and the
    # text exactly as published.
    (entry,) = encode_document_batch([ATTR_RECORD], [9.5])
    assert entry == ("attr-doc", 3.5, "T", 9.5, ATTR_TEXT)


def test_roundtrip_survives_pickle():
    # The wire payload crosses a pipe as pickled bytes: decode after a
    # real pickle round trip, exactly as the worker sees it.
    payload = pickle.loads(pickle.dumps(encode_document_batch([ATTR_RECORD])))
    ((text, docid, timestamp, stream),), _ = decode_document_batch(payload)
    assert (text, docid, timestamp, stream) == ATTR_RECORD
    assert docid is sys.intern("attr-doc")  # the engines expect interned docids
    document = parse_document(text)
    assert document.root.attributes == {"lang": "en"}
    assert document.root.children[0].text == "first"


# --------------------------------------------------------------------------- #
# the reusable buffer
# --------------------------------------------------------------------------- #
def test_wire_buffer_roundtrip_and_reuse():
    buffer = WireBuffer()
    first = buffer.pack(("hello", 1))
    assert pickle.loads(bytes(first)) == ("hello", 1)
    first.release()
    second = buffer.pack(["smaller"])
    assert pickle.loads(bytes(second)) == ["smaller"]
    second.release()


def test_wire_buffer_unreleased_view_falls_back():
    buffer = WireBuffer()
    held = buffer.pack(("payload", "one"))
    # Packing again while the previous view is still exported must not
    # corrupt it: the buffer falls back to a fresh allocation.
    fresh = buffer.pack(("payload", "two"))
    assert pickle.loads(bytes(held)) == ("payload", "one")
    assert pickle.loads(bytes(fresh)) == ("payload", "two")
    held.release()
    fresh.release()


# --------------------------------------------------------------------------- #
# transport counters
# --------------------------------------------------------------------------- #
_TRANSPORT_KEYS = {
    "encodes",
    "documents_encoded",
    "encode_ms",
    "wire_bytes",
    "shard_sends",
    "shipped_bytes",
    "decodes",
    "decode_ms",
}


def _subscribe_all(broker):
    broker.subscribe(PAPER_Q1, window_symbols=PAPER_WINDOWS, subscription_id="q1")
    broker.subscribe(PAPER_Q2, window_symbols=PAPER_WINDOWS, subscription_id="q2")
    broker.subscribe(CROSS_POST, subscription_id="q3")


def _texts(n=6):
    docs = []
    for i in range(n):
        doc = (
            make_book_announcement(docid=f"d{i}")
            if i % 2
            else make_blog_article(docid=f"d{i}")
        )
        docs.append(to_xml(doc, pretty=False))
    return docs


def test_in_process_shards_report_zero_transport():
    with open_broker(
        RuntimeConfig(shards=2, executor="serial", construct_outputs=False)
    ) as broker:
        _subscribe_all(broker)
        for text in _texts():
            broker.publish(text)
        transport = broker.stats()["transport"]
    assert set(transport) == _TRANSPORT_KEYS
    assert all(value == 0 for value in transport.values())


@pytest.mark.slow
def test_process_transport_encodes_once_per_publish():
    with open_broker(
        RuntimeConfig(shards=4, executor="processes", construct_outputs=False)
    ) as broker:
        _subscribe_all(broker)
        texts = _texts()
        for text in texts:
            broker.publish(text)
        transport = broker.stats()["transport"]
    assert set(transport) == _TRANSPORT_KEYS
    # One encode per routed publish — never one per shard; documents the
    # doc routed to zero shards simply skip the wire.
    assert 0 < transport["encodes"] <= len(texts)
    assert transport["documents_encoded"] == transport["encodes"]
    assert transport["shard_sends"] >= transport["encodes"]
    assert transport["shipped_bytes"] >= transport["wire_bytes"] > 0
    # Each worker hosts one shard and decodes what it is sent, once.
    assert transport["decodes"] == transport["shard_sends"]


@pytest.mark.slow
def test_process_transport_batches_encode_once():
    with open_broker(
        RuntimeConfig(shards=4, executor="processes", construct_outputs=False)
    ) as broker:
        _subscribe_all(broker)
        broker.publish_many(_texts())
        transport = broker.stats()["transport"]
    # The whole batch crosses the wire as a single encode, regardless of
    # how many shard/worker assignments it fans out to.
    assert transport["encodes"] == 1
    assert transport["documents_encoded"] == len(_texts())
    assert transport["shard_sends"] >= 1
    assert transport["decodes"] == transport["shard_sends"]


@pytest.mark.slow
def test_process_wire_matches_serial():
    keys = {}
    for executor in ("serial", "processes"):
        with open_broker(
            RuntimeConfig(shards=4, executor=executor, construct_outputs=False)
        ) as broker:
            _subscribe_all(broker)
            deliveries = broker.publish_many(_texts(10))
            # Text publishes draw fresh auto docids per broker, so the
            # comparison keys use timestamps + bindings instead.
            keys[executor] = sorted(
                (
                    r.subscription_id,
                    r.match.lhs_timestamp,
                    r.match.rhs_timestamp,
                    tuple(sorted(r.match.lhs_bindings.items())),
                    tuple(sorted(r.match.rhs_bindings.items())),
                )
                for r in deliveries
                if r.match is not None
            )
    assert keys["processes"] == keys["serial"]
    assert keys["serial"]
