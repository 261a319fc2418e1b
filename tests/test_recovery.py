"""Crash recovery: ``open_broker(resume_from=path)`` rebuilds a session.

The oracle throughout is *restart equivalence*: a broker that publishes,
closes (or crashes), and resumes must produce exactly the same match set on
the remaining documents as a broker that never restarted — across engines,
shard counts and the default/ablation knob matrix.  The retraction
machinery supplies the adversarial case: cancel-before-crash leaves a
registry whose naive replay would re-derive *different* canonical variable
names than the persisted state rows use.
"""

from __future__ import annotations

import random

import pytest

from repro import RecoveryError, RuntimeConfig, open_broker, to_xml
from repro.pubsub import Broker
from repro.xmlmodel.parser import parse_document
from tests.conftest import make_blog_article, make_book_announcement

Q_AUTHOR = (
    "S//book->x1[.//author->x2] "
    "FOLLOWED BY{x2=x5, 100} "
    "S//blog->x4[.//author->x5]"
)
Q_CAT = (
    "S//book->x1[.//category->x7] "
    "FOLLOWED BY{x7=x8, 100} "
    "S//blog->x4[.//category->x8]"
)
#: Single-pattern query: registered as a Stage-1 filter, not a join.
Q_FILTER = "S//book->x1[.//publisher->x9]"

CONFIG_MATRIX = [
    RuntimeConfig(construct_outputs=False, auto_timestamp=False),
    RuntimeConfig.ablation(construct_outputs=False, auto_timestamp=False, shards=1),
    # outputs are built from stored documents, which the resumed session reloads
    RuntimeConfig(auto_timestamp=False),
]


def _docs(n, start=0):
    out = []
    for i in range(start, start + n):
        out.append(make_book_announcement(docid=f"bk{i}", timestamp=float(2 * i + 1)))
        out.append(make_blog_article(docid=f"bl{i}", timestamp=float(2 * i + 2)))
    return out


def _keys(deliveries):
    """Order-insensitive delivery identity: join matches and filter hits."""
    return sorted(
        (d.subscription_id, d.match.key() if d.match is not None else d.document.docid)
        for d in deliveries
    )


def _outputs(deliveries):
    """The constructed output documents, order-insensitive."""
    return sorted(to_xml(d.output) for d in deliveries if d.output is not None)


def _publish_all(broker, documents):
    out = []
    for document in documents:
        out.extend(broker.publish(document))
    return out


def _reference_run(config, documents, queries):
    broker = open_broker(config)
    for sid, query in queries:
        broker.subscribe(query, subscription_id=sid)
    out = _publish_all(broker, documents)
    broker.close()
    return _keys(out)


@pytest.mark.parametrize("engine", ["mmqjp", "mmqjp-vm", "sequential"])
@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("base", CONFIG_MATRIX, ids=["default", "ablation", "outputs"])
def test_restart_equivalence(engine, shards, base, tmp_path):
    config = base.replace(engine=engine, shards=shards)
    queries = [("qa", Q_AUTHOR), ("qc", Q_CAT)]
    documents = _docs(4)
    with open_broker(config) as broker:
        for sid, query in queries:
            broker.subscribe(query, subscription_id=sid)
        delivered = _publish_all(broker, documents)
    reference, outputs = _keys(delivered), _outputs(delivered)
    assert bool(outputs) == config.construct_outputs

    durable = config.replace(storage="sqlite", storage_path=str(tmp_path))
    first = open_broker(durable)
    for sid, query in queries:
        first.subscribe(query, subscription_id=sid)
    out = _publish_all(first, documents[:4])
    first.close()

    resumed = open_broker(resume_from=str(tmp_path))
    assert type(resumed) is Broker and resumed.num_shards == shards
    out.extend(_publish_all(resumed, documents[4:]))
    resumed.close()

    assert _keys(out) == reference
    assert _outputs(out) == outputs


def test_recovery_after_cancellation_churn(tmp_path):
    """Replay of only the *surviving* registry must not drift canonical names.

    The cancelled subscription claimed canonical names first; the state rows
    persisted for the survivor were written under the collision-suffixed
    names a naive from-scratch replay would not re-derive.
    """
    config = RuntimeConfig(construct_outputs=False, auto_timestamp=False)
    documents = _docs(4)

    reference_broker = open_broker(config)
    doomed = reference_broker.subscribe(Q_CAT, subscription_id="doomed")
    reference_broker.subscribe(Q_AUTHOR, subscription_id="qa")
    ref_out = _publish_all(reference_broker, documents[:4])
    doomed.cancel()
    ref_out.extend(_publish_all(reference_broker, documents[4:]))
    reference_broker.close()
    reference = _keys(d for d in ref_out if d.subscription_id == "qa")

    durable = config.replace(storage="sqlite", storage_path=str(tmp_path))
    first = open_broker(durable)
    doomed = first.subscribe(Q_CAT, subscription_id="doomed")
    first.subscribe(Q_AUTHOR, subscription_id="qa")
    out = _publish_all(first, documents[:4])
    doomed.cancel()
    first.close()

    resumed = open_broker(resume_from=str(tmp_path))
    assert [s.subscription_id for s in resumed.subscriptions] == ["qa"]
    out.extend(_publish_all(resumed, documents[4:]))
    resumed.close()
    assert _keys(d for d in out if d.subscription_id == "qa") == reference


@pytest.mark.parametrize("shards", [1, 2])
def test_filter_subscriptions_recover(shards, tmp_path):
    config = RuntimeConfig(
        shards=shards, construct_outputs=False, auto_timestamp=False
    )
    queries = [("qf", Q_FILTER), ("qa", Q_AUTHOR)]
    documents = _docs(3)
    reference = _reference_run(config, documents, queries)

    durable = config.replace(storage="sqlite", storage_path=str(tmp_path))
    first = open_broker(durable)
    for sid, query in queries:
        first.subscribe(query, subscription_id=sid)
    out = _publish_all(first, documents[:2])
    first.close()

    resumed = open_broker(resume_from=str(tmp_path))
    out.extend(_publish_all(resumed, documents[2:]))
    resumed.close()
    assert _keys(out) == reference
    assert any(sid == "qf" for sid, _ in _keys(out))


def _topic_text(topic: int, rng: random.Random) -> str:
    """Leaves of one block joined to a permutation of the other's leaves."""
    left, right = rng.sample(range(topic + 1), topic + 1), rng.sample(range(topic + 1), topic + 1)

    def block(order) -> str:
        return f"S//t{topic}->r{topic}" + "".join(f"[.//t{topic}_{i}->v{topic}_{i}]" for i in order)

    joins = " AND ".join(f"v{topic}_{l}=v{topic}_{r}" for l, r in zip(left, right))
    return f"{block(left)} FOLLOWED BY{{{joins}, 100}} {block(right)}"


def _topic_document(sequence: int, value: str):
    topic = sequence % 4
    leaves = "".join(f"<t{topic}_{i}>{value}</t{topic}_{i}>" for i in range(topic + 1))
    return parse_document(
        f"<t{topic}>{leaves}</t{topic}>", docid=f"td{sequence}", timestamp=float(sequence + 1)
    )


@pytest.mark.parametrize("shards", [1, 2])
def test_symmetric_templates_recover(shards, tmp_path):
    """A topic-shaped template has a factorial automorphism group.

    Which of the equally valid meta-variable assignments the matcher picks
    decides each ``RT`` row; replay must rebuild rows that agree with the
    persisted state, so the resumed session delivers what an uninterrupted
    one does.
    """
    rng = random.Random(3)
    queries = [(f"t{i}", _topic_text(i % 4, rng)) for i in range(24)]
    documents = [_topic_document(i, f"val{rng.randrange(2)}") for i in range(24)]
    config = RuntimeConfig(shards=shards, construct_outputs=False, auto_timestamp=False)
    reference = _reference_run(config, documents, queries)

    durable = config.replace(storage="sqlite", storage_path=str(tmp_path))
    first = open_broker(durable)
    for sid, query in queries:
        first.subscribe(query, subscription_id=sid)
    out = _publish_all(first, documents[:12])
    first.close()

    resumed = open_broker(resume_from=str(tmp_path))
    out.extend(_publish_all(resumed, documents[12:]))
    resumed.close()
    assert _keys(out) == reference
    # Joins fire across the restart: a stored document pairs with a new one.
    before = {d.docid for d in documents[:12]}
    assert any(key[1] in before and key[2] not in before for _, key in _keys(out))


def test_auto_timestamp_clock_continues(tmp_path):
    """The stamp clock resumes where it stopped, keeping windows consistent."""
    config = RuntimeConfig(
        storage="sqlite",
        storage_path=str(tmp_path),
        construct_outputs=False,
        auto_timestamp=True,
    )
    first = open_broker(config)
    first.subscribe(Q_AUTHOR, subscription_id="qa")
    docs = _docs(3)
    for d in docs:
        d.timestamp = 0.0  # unstamped: the engine's clock assigns 1.0, 2.0, ...
    first.publish(docs[0])
    first.publish(docs[1])
    first.close()

    resumed = open_broker(resume_from=str(tmp_path))
    out = resumed.publish(docs[3])  # the second blog article
    # documents 1/2 were stamped 1.0/2.0; the resumed clock must continue at 3.0
    assert docs[3].timestamp == 3.0
    resumed.close()
    # bk0 (ts 1.0) joins bl1 (ts 3.0): the window spans the restart
    assert any(d.match is not None for d in out)


def test_resumed_counters_and_ids(tmp_path):
    config = RuntimeConfig(
        storage="sqlite",
        storage_path=str(tmp_path),
        construct_outputs=False,
        auto_timestamp=False,
    )
    first = open_broker(config)
    auto_sid = first.subscribe(Q_AUTHOR).subscription_id
    _publish_all(first, _docs(2))
    first_stats = first.stats()
    first.close()

    resumed = open_broker(resume_from=str(tmp_path))
    stats = resumed.stats()
    assert stats["engine_stats"]["num_documents_processed"] == 4
    assert (
        stats["engine_stats"]["num_matches"]
        == first_stats["engine_stats"]["num_matches"]
    )
    # auto-generated subscription ids continue, no collision with the old one
    fresh_sid = resumed.subscribe(Q_CAT).subscription_id
    assert fresh_sid != auto_sid
    resumed.close()


def test_resume_with_engine_override(tmp_path):
    """An explicit engine name reuses the stored config but swaps the engine."""
    config = RuntimeConfig(
        engine="mmqjp",
        storage="sqlite",
        storage_path=str(tmp_path),
        construct_outputs=False,
        auto_timestamp=False,
    )
    documents = _docs(3)
    reference = _reference_run(
        config.replace(engine="sequential", storage="memory", storage_path=None),
        documents,
        [("qa", Q_AUTHOR)],
    )
    first = open_broker(config)
    first.subscribe(Q_AUTHOR, subscription_id="qa")
    out = _publish_all(first, documents[:2])
    first.close()

    resumed = open_broker("sequential", resume_from=str(tmp_path))
    assert resumed.engine_name == "sequential"
    out.extend(_publish_all(resumed, documents[2:]))
    resumed.close()
    assert _keys(out) == reference


def test_resume_missing_store_raises(tmp_path):
    with pytest.raises(RecoveryError, match="no broker store"):
        open_broker(resume_from=str(tmp_path / "nowhere"))


def test_resume_shard_mismatch_raises(tmp_path):
    config = RuntimeConfig(shards=2, storage="sqlite", storage_path=str(tmp_path))
    broker = open_broker(config)
    broker.subscribe(Q_AUTHOR, subscription_id="qa")
    broker.close()
    with pytest.raises(RecoveryError, match="shard"):
        open_broker(resume_from=str(tmp_path), shards=4)


def test_auto_docids_do_not_collide_after_restart(tmp_path, monkeypatch):
    """A fresh process restarts the auto-docid counter at doc0; recovery must
    advance it past every persisted docid or new documents would silently
    replace recovered state partitions."""
    import itertools

    from repro.xmlmodel import document as document_module
    from repro.xmlmodel.parser import parse_document

    config = RuntimeConfig(
        storage="sqlite",
        storage_path=str(tmp_path),
        construct_outputs=False,
        auto_timestamp=False,
    )
    first = open_broker(config)
    first.subscribe(Q_AUTHOR, subscription_id="qa")
    # auto-docid documents (docN from the process-global counter)
    book = parse_document(to_xml(make_book_announcement()), timestamp=1.0)
    blog = parse_document(to_xml(make_blog_article()), timestamp=2.0)
    first.publish(book)
    first.publish(blog)
    first.close()

    # simulate a process restart: the counter begins again at 0
    monkeypatch.setattr(document_module, "_doc_counter", itertools.count())

    resumed = open_broker(resume_from=str(tmp_path))
    fresh = parse_document(to_xml(make_blog_article()), timestamp=3.0)
    assert fresh.docid not in {book.docid, blog.docid}
    out = resumed.publish(fresh)
    resumed.close()
    # the recovered book still joins the new blog — nothing was replaced
    assert any(d.match is not None and book.docid in d.match.key() for d in out)


# --------------------------------------------------------------------- #
# crash mid-batch (fault injection)
# --------------------------------------------------------------------- #
class _CrashPoint(RuntimeError):
    """The injected failure: 'the process died right here'."""


def _crash_at_commit(n):
    commits = 0

    def hook(point):
        nonlocal commits
        if point == "commit_epoch":
            commits += 1
            if commits == n:
                raise _CrashPoint

    return hook


def test_crash_mid_batch_leaves_no_torn_state(tmp_path):
    """A publish_many killed mid-epoch: committed prefix intact, crashed
    document traceless, and replaying the batch restores exact equivalence."""
    from repro.storage import SQLiteStore

    config = RuntimeConfig(
        executor="serial",  # the crash is injected into the in-process engine's store
        storage="sqlite",
        storage_path=str(tmp_path),
        construct_outputs=False,
        auto_timestamp=False,
    )
    queries = [("qa", Q_AUTHOR), ("qc", Q_CAT)]
    documents = _docs(4)
    reference = _reference_run(
        config.replace(storage="memory", storage_path=None), documents, queries
    )

    broker = open_broker(config)
    for sid, query in queries:
        broker.subscribe(query, subscription_id=sid)
    out = _publish_all(broker, documents[:3])

    # die at the commit of the batch's third document (documents[5])
    broker.engine.store.fault_hook = _crash_at_commit(3)
    with pytest.raises(_CrashPoint):
        broker.publish_many(documents[3:])

    # inspect the durable file directly, as a post-mortem would: the two
    # batch documents that committed are whole, the crashed one left no
    # trace in any of the four relations
    inspect = SQLiteStore(str(tmp_path / "shard-0.sqlite3"))
    try:
        assert inspect.state_docids() == {d.docid for d in documents[:5]}
    finally:
        inspect.close()
    broker.close()  # release connections/sinks; the durable state is fixed

    resumed = open_broker(resume_from=str(tmp_path))
    # replay the whole failed batch: partition-replace upserts make the
    # already-committed prefix idempotent
    out.extend(_publish_all(resumed, documents[3:]))
    resumed.close()
    assert _keys(out) == reference


def test_crash_on_one_shard_recovers(tmp_path):
    # fault injection pokes shard.engine.store directly, which only exists
    # with in-process shards
    config = RuntimeConfig(
        shards=2,
        executor="serial",
        storage="sqlite",
        storage_path=str(tmp_path),
        construct_outputs=False,
        auto_timestamp=False,
    )
    queries = [("qa", Q_AUTHOR), ("qc", Q_CAT)]
    documents = _docs(4)
    reference = _reference_run(
        config.replace(storage="memory", storage_path=None), documents, queries
    )

    broker = open_broker(config)
    for sid, query in queries:
        broker.subscribe(query, subscription_id=sid)
    out = _publish_all(broker, documents[:3])

    # crash the shard that actually owns the join subscriptions (an empty
    # shard short-circuits its batch and never opens an epoch)
    owning_shard = broker._shard_of["qa"]
    owning_shard.engine.store.fault_hook = _crash_at_commit(2)
    with pytest.raises(_CrashPoint):
        broker.publish_many(documents[3:])
    broker.close()

    resumed = open_broker(resume_from=str(tmp_path))
    out.extend(_publish_all(resumed, documents[3:]))
    resumed.close()
    assert _keys(out) == reference


def test_resume_drops_a_snapshot_field_the_config_no_longer_has(tmp_path):
    # Stores written when RuntimeConfig still had an ``ingest`` field, the
    # ``plan_cache`` / ``prune_dispatch`` / ``delta_join`` switches, or
    # ``columnar`` (a session persisted with the row kernel resumes on ids).
    from repro.storage.sqlite import SQLiteStore

    memory = RuntimeConfig(storage="memory", construct_outputs=False, auto_timestamp=False)
    queries = [("qa", Q_AUTHOR), ("qc", Q_CAT)]
    documents = _docs(4)
    reference = _reference_run(memory, documents, queries)
    stale_fields = [
        {"ingest": "tree"},
        {"plan_cache": False, "prune_dispatch": False, "delta_join": False},
        {"columnar": False},
    ]
    for index, stale in enumerate(stale_fields):
        path = tmp_path / f"store{index}"
        config = memory.replace(storage="sqlite", storage_path=str(path))
        with open_broker(config) as broker:
            for sid, query in queries:
                broker.subscribe(query, subscription_id=sid)
            out = _publish_all(broker, documents[:4])
        with SQLiteStore(str(path / "broker.sqlite3")) as store:
            store.set_meta("config", dict(store.get_meta("config"), **stale))

        with open_broker(resume_from=str(path)) as resumed:
            assert not any(hasattr(resumed.config, field) for field in stale)
            out.extend(_publish_all(resumed, documents[4:]))
        assert _keys(out) == reference


def test_a_thread_pool_session_resumes_on_in_process_shards(tmp_path):
    # Stores written when RuntimeConfig still had executor="threads", a
    # max_workers cap, a view_cache_size, a durability mode and a
    # partitioner: the pool, the view cache, the write-behind mode and the
    # hash rule are gone, so the session resumes serial and the dead
    # fields drop.
    import dataclasses

    from repro.storage.sqlite import SQLiteStore

    memory = RuntimeConfig(
        storage="memory", construct_outputs=False, auto_timestamp=False, shards=2
    )
    queries = [("qa", Q_AUTHOR), ("qc", Q_CAT)]
    documents = _docs(4)
    reference = _reference_run(memory, documents, queries)
    config = memory.replace(storage="sqlite", storage_path=str(tmp_path))
    with open_broker(config) as broker:
        for sid, query in queries:
            broker.subscribe(query, subscription_id=sid)
        out = _publish_all(broker, documents[:4])
        placed = {sid: broker.shard_of(sid) for sid, _ in queries}
    assert placed == {"qa": 0, "qc": 0}  # one template, on the least-loaded shard
    # A placement the least-loaded rule would not make (as the hash rule
    # could): swap the two shard stores and their recorded shard ids.
    for suffix in ("", "-wal", "-shm"):
        zero, one = (tmp_path / f"shard-{i}.sqlite3{suffix}" for i in (0, 1))
        if zero.exists():
            zero.rename(tmp_path / "swap")
            one.rename(zero)
            (tmp_path / "swap").rename(one)
    with SQLiteStore(str(tmp_path / "broker.sqlite3")) as store:
        stale = {
            "executor": "threads", "max_workers": 2, "view_cache_size": 4096,
            "durability": "relaxed", "partitioner": "hash",
        }
        store.set_meta("config", dict(store.get_meta("config"), **stale))
        for record in store.subscriptions():
            store.save_subscription(dataclasses.replace(record, shard=1 - record.shard))

    with open_broker(resume_from=str(tmp_path)) as resumed:
        assert resumed.config.executor == "serial" and resumed.num_shards == 2
        assert not any(hasattr(resumed.config, field) for field in stale if field != "executor")
        assert {sid: resumed.shard_of(sid) for sid in placed} == {
            sid: 1 - shard for sid, shard in placed.items()
        }
        out.extend(_publish_all(resumed, documents[4:]))
    assert _keys(out) == reference


# --------------------------------------------------------------------- #
# lifecycle (satellite: idempotent close, store release on context exit)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("shards", [1, 2])
def test_close_is_idempotent_and_releases_stores(shards, tmp_path):
    config = RuntimeConfig(
        shards=shards, storage="sqlite", storage_path=str(tmp_path)
    )
    with open_broker(config) as broker:
        broker.subscribe(Q_AUTHOR, subscription_id="qa")
        _publish_all(broker, _docs(1))
    # context exit closed everything; repeated close is a no-op
    broker.close()
    broker.close()
    assert broker._store.closed
    # process shard handles have no parent-side engine; their stores live
    # (and are closed) in the worker process
    for shard in broker.shards:
        if hasattr(shard, "engine"):
            assert shard.engine.store.closed
    # a closed store set is immediately resumable (everything was flushed)
    resumed = open_broker(resume_from=str(tmp_path))
    resumed.close()


@pytest.mark.parametrize("shards", [1, 2])
def test_close_is_idempotent_without_storage(shards):
    broker = open_broker(RuntimeConfig(shards=shards))
    broker.subscribe(Q_AUTHOR, subscription_id="qa")
    broker.close()
    broker.close()
