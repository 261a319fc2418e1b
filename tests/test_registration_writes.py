"""What a subscribe and a cancel write to the stores, and what recovery reads back.

A live session writes registration metadata by delta: a subscribe is one
row in the broker store (the auto-id counter rides in it), a cancel one
deletion, and a shard store is touched only when a registration mints a
canonical name (catalog rows), changes the set of live templates (the
template guard), or is a cancel that deletes join state (the guard names
it before the deletion).  Statements and commits are counted on the SQLite
connections with ``sqlite3.Connection.set_trace_callback``; the recovery
cases resume after a ``close()`` or after none (a crash), in any topology.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro import RecoveryError, RuntimeConfig, open_broker
from repro.storage import MemoryStore, SQLiteStore, SubscriptionRecord
from repro.xscl.normalize import VariableCatalog
from tests.conftest import make_blog_article, make_book_announcement

Q_AUTHOR = "S//book->x1[.//author->x2] FOLLOWED BY{x2=x5, 100} S//blog->x4[.//author->x5]"
#: The template of ``Q_AUTHOR`` under new canonical names.
Q_CATEGORY = "S//book->x1[.//category->x7] FOLLOWED BY{x7=x8, 100} S//blog->x4[.//category->x8]"
#: A second template: two value predicates.
Q_TWO = (
    "S//book->x1[.//author->x2][.//title->x3] "
    "FOLLOWED BY{x2=x5 AND x3=x6, 100} "
    "S//blog->x4[.//author->x5][.//title->x6]"
)

_WRITES = ("INSERT", "UPDATE", "DELETE", "REPLACE")


class Writes:
    """The statements and commits one SQLite connection runs (a trace callback).

    The stores run in autocommit mode: a write outside ``BEGIN`` … ``COMMIT``
    is its own transaction, so it counts as one commit.
    """

    def __init__(self, store: SQLiteStore):
        self.statements: list[str] = []
        self.commits = 0
        self._open = False
        store._conn.set_trace_callback(self._trace)

    def _trace(self, sql: str) -> None:
        verb = sql.split(None, 1)[0].upper()
        self.statements.append(sql)
        if verb == "BEGIN":
            self._open = True
        elif verb in ("COMMIT", "ROLLBACK"):
            self.commits += verb == "COMMIT"
            self._open = False
        elif verb in _WRITES and not self._open:
            self.commits += 1

    def writes(self, table: str) -> list[str]:
        return [
            sql for sql in self.statements
            if sql.split(None, 1)[0].upper() in _WRITES and f" {table} " in f"{sql} "
        ]

    def clear(self) -> None:
        self.statements.clear()
        self.commits = 0


def _documents(n: int, start: int = 0) -> list:
    out = []
    for i in range(start, start + n):
        out.append(make_book_announcement(docid=f"bk{i}", timestamp=float(2 * i + 1)))
        out.append(make_blog_article(docid=f"bl{i}", timestamp=float(2 * i + 2)))
    return out


def _serial(tmp_path, shards: int) -> RuntimeConfig:
    # The trace callbacks sit on the in-process stores.
    return RuntimeConfig(
        shards=shards,
        executor="serial",
        storage="sqlite",
        storage_path=str(tmp_path),
        construct_outputs=False,
        auto_timestamp=False,
    )


def _traced(broker) -> tuple[Writes, list[Writes]]:
    return Writes(broker._store), [Writes(shard.engine.store) for shard in broker.shards]


@pytest.fixture
def entries_calls(monkeypatch) -> list[int]:
    """One entry per :meth:`VariableCatalog.entries` call."""
    calls: list[int] = []
    entries = VariableCatalog.entries
    monkeypatch.setattr(
        VariableCatalog, "entries", lambda self, *a: calls.append(1) or entries(self, *a)
    )
    return calls


# --------------------------------------------------------------------- #
# write counts
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("shards", [1, 2])
def test_a_churn_cycle_commits_once_per_store_it_touches(shards, tmp_path, entries_calls):
    with open_broker(_serial(tmp_path, shards)) as broker:
        broker.subscribe(Q_AUTHOR)
        broker.subscribe(Q_AUTHOR)
        for document in _documents(2):
            broker.publish(document)
        registry, engines = _traced(broker)
        entries_calls.clear()

        broker.cancel("sub1")  # the template stays live: sub2 holds it
        assert registry.commits == 1 and len(registry.statements) == 1
        assert [e.commits for e in engines] == [0] * shards

        registry.clear()
        broker.subscribe(Q_AUTHOR)  # joins the live template, mints no name
        assert registry.commits == 1 and len(registry.statements) == 1
        assert [e.commits for e in engines] == [0] * shards
        assert entries_calls == []


@pytest.mark.parametrize("shards", [1, 2])
def test_catalog_rows_are_written_only_for_new_names(shards, tmp_path, entries_calls):
    with open_broker(_serial(tmp_path, shards)) as broker:
        registry, engines = _traced(broker)
        broker.subscribe(Q_AUTHOR)  # first of its template: names and the guard
        owner = engines[broker.shard_of("sub1")]
        assert len(owner.writes("catalog")) == 4  # x1 x2 x4 x5
        assert len(owner.writes("meta")) == 1
        assert len(entries_calls) == 1

        owner.clear()
        broker.subscribe(Q_AUTHOR)
        assert owner.statements == [] and len(entries_calls) == 1

        broker.subscribe(Q_CATEGORY)  # the live template under two new names
        owner = engines[broker.shard_of("sub3")]
        assert len(owner.writes("catalog")) == 2  # x7 x8
        assert owner.writes("meta") == []  # no template came or went
        assert len(entries_calls) == 2
        assert registry.commits == 3


def test_the_guard_is_rewritten_only_when_a_template_comes_or_goes(tmp_path):
    with open_broker(_serial(tmp_path, 1)) as broker:
        (engine,) = _traced(broker)[1]
        guard = lambda: engine.writes("meta")  # noqa: E731
        broker.subscribe(Q_AUTHOR)
        broker.subscribe(Q_TWO)
        assert len(guard()) == 2
        broker.subscribe(Q_TWO)
        broker.cancel("sub2")
        assert len(guard()) == 2  # Q_TWO's template still has sub3
        broker.cancel("sub3")
        assert len(guard()) == 3
        keys = broker.engine.registry.live_template_keys()
        guard = broker.engine.store.get_meta("template_guard")
        assert guard["keys"] == keys and len(keys) == 1
        assert (guard["sid"], guard["op"]) == ("sub3", "remove") and len(guard["moved"]) == 1


# --------------------------------------------------------------------- #
# the recovery guard
# --------------------------------------------------------------------- #
def _guards(path, shards: int) -> list:
    out = []
    for shard_id in range(shards):
        store = SQLiteStore(str(path / f"shard-{shard_id}.sqlite3"))
        try:
            out.append(store.get_meta("template_guard"))
        finally:
            store.close()
    return out


@pytest.mark.parametrize("shards", [1, 2])
def test_a_store_whose_guard_disagrees_with_the_replay_raises(shards, tmp_path):
    config = RuntimeConfig(
        shards=shards, storage="sqlite", storage_path=str(tmp_path), construct_outputs=False
    )
    with open_broker(config) as broker:
        broker.subscribe(Q_AUTHOR)
        broker.subscribe(Q_TWO)
        for document in _documents(2):
            broker.publish(document)
    guards = _guards(tmp_path, shards)
    assert sum(len(guard["keys"]) for guard in guards if guard) == 2
    tampered = next(i for i, guard in enumerate(guards) if guard)
    store = SQLiteStore(str(tmp_path / f"shard-{tampered}.sqlite3"))
    guard = guards[tampered]
    store.set_meta("template_guard", {**guard, "keys": guard["keys"][1:]})  # one template forgotten
    store.close()
    with pytest.raises(RecoveryError, match="template guard"):
        open_broker(resume_from=str(tmp_path))


@pytest.mark.parametrize("shards", [1, 2])
def test_a_crash_right_after_a_new_template_resumes(shards, tmp_path):
    """No ``close()``: the stores hold exactly what the returned calls made durable."""
    config = RuntimeConfig(
        shards=shards,
        storage="sqlite",
        storage_path=str(tmp_path),
        construct_outputs=False,
        auto_timestamp=False,
    )
    documents = _documents(4)
    with open_broker(config.replace(storage="memory", storage_path=None)) as reference:
        reference.subscribe(Q_AUTHOR)
        for document in documents[:4]:
            reference.publish(document)
        reference.subscribe(Q_TWO)
        want = sorted(d.match.key() for doc in documents[4:] for d in reference.publish(doc))
    assert want

    crashed = open_broker(config)
    try:
        crashed.subscribe(Q_AUTHOR)
        for document in documents[:4]:
            crashed.publish(document)
        crashed.subscribe(Q_TWO)  # a second template: the guard changes
        with open_broker(resume_from=str(tmp_path)) as resumed:
            assert sorted(s.subscription_id for s in resumed.subscriptions) == ["sub1", "sub2"]
            got = sorted(d.match.key() for doc in documents[4:] for d in resumed.publish(doc))
    finally:
        crashed.close()
    assert got == want


class _Crash(Exception):
    pass


def _crash_at(*points: str):
    def hook(name: str) -> None:
        if name in points:
            raise _Crash(name)

    return hook


@pytest.mark.parametrize("point", ["save_subscription", "remove_subscription"])
def test_a_crash_between_the_shard_and_broker_writes_of_a_live_template_resumes(point, tmp_path):
    """A registration that leaves the live templates as they were writes no guard.

    The engine registers (or deregisters) before the broker writes its
    row, in another file; a crash between the two must not make the guard
    disagree with the replay.
    """
    crashed = open_broker(_serial(tmp_path, 1))
    try:
        crashed.subscribe(Q_AUTHOR)
        crashed.subscribe(Q_AUTHOR)
        crashed._store.fault_hook = _crash_at(point)
        with pytest.raises(_Crash):
            if point == "save_subscription":
                crashed.subscribe(Q_AUTHOR)
            else:
                crashed.cancel("sub1")
        with open_broker(resume_from=str(tmp_path)) as resumed:
            assert [s.subscription_id for s in resumed.subscriptions] == ["sub1", "sub2"]
    finally:
        crashed._store.fault_hook = None
        crashed.close()


def _crash_subscribing_a_template(config):
    """A broker whose subscribe of ``sub2`` to a new template was cut off.

    The shard store holds the guard naming it; the broker store never
    recorded its row.
    """
    crashed = open_broker(config)
    crashed.subscribe(Q_AUTHOR)
    crashed._store.fault_hook = _crash_at("save_subscription")
    with pytest.raises(_Crash):
        crashed.subscribe(Q_TWO)
    crashed._store.fault_hook = None
    return crashed


def _crash_config(tmp_path, shards: int) -> RuntimeConfig:
    return RuntimeConfig(
        shards=shards,
        storage="sqlite",
        storage_path=str(tmp_path),
        construct_outputs=False,
        auto_timestamp=False,
    )


def _ids(broker) -> list[str]:
    return sorted(s.subscription_id for s in broker.subscriptions)


def _deliveries(broker, documents) -> list:
    return sorted(d.match.key() for document in documents for d in broker.publish(document))


@pytest.mark.parametrize("shards", [1, 2])
def test_a_crash_between_the_shard_and_broker_writes_of_a_template_resumes(shards, tmp_path):
    """The guard moved with a subscribe, the broker row did not: resume without it.

    The replay follows the broker store (``sub2`` is gone), and the guard
    is rewritten to it, so a later registration under the reused id cannot
    make it disagree.
    """
    crashed = _crash_subscribing_a_template(_crash_config(tmp_path, shards))
    try:
        with open_broker(resume_from=str(tmp_path)) as resumed:
            assert _ids(resumed) == ["sub1"]
            live = [shard.template_guard() for shard in resumed.shards]
        rewritten = _guards(tmp_path, shards)
        assert [g["keys"] if g else [] for g in rewritten] == live
        assert not any(g["sid"] == "sub2" for g in rewritten if g)
        with open_broker(resume_from=str(tmp_path)) as resumed:
            # The id the crashed subscribe took, on a template already live:
            # no guard is written, so only the rewrite keeps recovery sound.
            assert resumed.subscribe(Q_AUTHOR).subscription_id == "sub2"
        with open_broker(resume_from=str(tmp_path)) as resumed:
            assert len(resumed.subscriptions) == 2
    finally:
        crashed.close()


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("second", [Q_TWO, Q_CATEGORY], ids=["retires", "keeps"])
@pytest.mark.parametrize("point", ["state", "remove_subscription"])
def test_a_cancel_cut_off_by_a_crash_is_finished_on_resume(point, second, shards, tmp_path):
    """A crash inside a cancel that deletes join state never resumes it half done.

    ``sub2`` either retires its template (``Q_TWO``) or leaves it live
    under ``sub1`` while its own variables die (``Q_CATEGORY``).  The
    shard store's guard names the cancel before the state goes; the crash
    comes before that deletion (``state``) or after it, at the broker
    row's (``remove_subscription``).  Either way the broker row survived,
    recovery finishes the cancel, and the documents published before the
    crash join as in a session that never crashed.
    """
    config = _crash_config(tmp_path, shards)
    if point == "state":  # the fault hook sits on an in-process shard store
        config = config.replace(executor="serial")
    documents = _documents(4)
    with open_broker(config.replace(storage="memory", storage_path=None)) as reference:
        reference.subscribe(Q_AUTHOR)
        reference.subscribe(second)
        for document in documents[:4]:
            reference.publish(document)
        reference.cancel("sub2")
        want = _deliveries(reference, documents[4:])
    assert want

    crashed = open_broker(config)
    crashed.subscribe(Q_AUTHOR)
    crashed.subscribe(second)
    for document in documents[:4]:
        crashed.publish(document)
    if point == "state":
        store = crashed.shards[crashed.shard_of("sub2")].engine.store
        store.fault_hook = _crash_at("delete_variables", "clear_state")
    else:
        store = crashed._store
        store.fault_hook = _crash_at("remove_subscription")
    try:
        with pytest.raises(_Crash):
            crashed.cancel("sub2")
        with open_broker(resume_from=str(tmp_path)) as resumed:
            assert _ids(resumed) == ["sub1"]
            got = _deliveries(resumed, documents[4:])
        with open_broker(resume_from=str(tmp_path)) as resumed:
            assert _ids(resumed) == ["sub1"]
    finally:
        store.fault_hook = None
        crashed.close()
    assert got == want


def test_a_finished_cancel_the_guard_names_does_not_cancel_its_id_reused(tmp_path):
    """Subscribing again under the id the guard names as cancelled unnames it."""
    with open_broker(_serial(tmp_path, 1)) as broker:
        broker.subscribe(Q_AUTHOR)
        broker.subscribe(Q_CATEGORY)
        broker.cancel("sub2")  # the template stays, the category variables die
        guard = broker.engine.store.get_meta("template_guard")
        assert (guard["sid"], guard["op"], guard["moved"]) == ("sub2", "remove", [])
    with open_broker(resume_from=str(tmp_path)) as resumed:
        assert _ids(resumed) == ["sub1"]
        resumed.subscribe(Q_CATEGORY, subscription_id="sub2")
        guard = resumed.engine.store.get_meta("template_guard")
        assert (guard["sid"], guard["op"]) == ("sub2", "add")
    with open_broker(resume_from=str(tmp_path)) as resumed:
        assert _ids(resumed) == ["sub1", "sub2"]


@pytest.mark.parametrize("shards", [1, 2])
def test_an_unfinished_registration_does_not_excuse_another_key(shards, tmp_path):
    """The guard is ahead of the replay by a key the crashed subscribe did not move."""
    crashed = _crash_subscribing_a_template(_crash_config(tmp_path, shards))
    try:
        guards = _guards(tmp_path, shards)
        index = next(i for i, g in enumerate(guards) if g and g["sid"] == "sub2")
        guard = guards[index]
        other = [k for k in guard["keys"] if k not in guard["moved"]]
        store = SQLiteStore(str(tmp_path / f"shard-{index}.sqlite3"))
        if other:  # one shard: sub1's template is the other key
            store.set_meta("template_guard", {**guard, "moved": other})
        else:  # two shards: sub1 lives elsewhere, so claim a key this shard never had
            store.set_meta("template_guard", {**guard, "keys": guard["keys"] + ["x"]})
        store.close()
        with pytest.raises(RecoveryError, match="template guard"):
            open_broker(resume_from=str(tmp_path))
    finally:
        crashed.close()


@pytest.mark.parametrize("shards", [1, 2])
def test_a_cancel_is_durable_when_it_returns(shards, tmp_path):
    """No ``close()`` after the cancel: its state deletions are already committed.

    Left uncommitted, they would bring the cancelled query's join-state rows
    back, and a later subscriber of the same text would join documents
    published before it subscribed.
    """
    book, blog = make_book_announcement, make_blog_article
    crashed = open_broker(_serial(tmp_path, shards))
    try:
        crashed.subscribe(Q_AUTHOR, subscription_id="qa")
        crashed.subscribe(Q_CATEGORY, subscription_id="qc")
        crashed.publish(book(docid="bk0", timestamp=1.0))
        crashed.publish(book(docid="bk1", timestamp=2.0))
        crashed.cancel("qc")  # x7 and x8 lose their last user
        with open_broker(resume_from=str(tmp_path)) as resumed:
            resumed.subscribe(Q_CATEGORY, subscription_id="qc2")
            delivered = resumed.publish(blog(docid="bl0", timestamp=3.0))
            assert sorted((d.subscription_id, d.match.lhs_docid) for d in delivered) == [
                ("qa", "bk0"),
                ("qa", "bk1"),
            ]
    finally:
        crashed.close()


def test_the_replay_rewrites_no_guard(tmp_path, monkeypatch):
    config = _serial(tmp_path, 2)
    with open_broker(config) as broker:
        for _ in range(3):
            broker.subscribe(Q_AUTHOR)
            broker.subscribe(Q_TWO)
    written = []
    set_meta = SQLiteStore.set_meta
    monkeypatch.setattr(
        SQLiteStore,
        "set_meta",
        lambda self, key, value: written.append(key) or set_meta(self, key, value),
    )
    with open_broker(resume_from=str(tmp_path)) as resumed:
        assert resumed.stats()["engine_stats"]["num_queries"] == 6
        assert "template_guard" not in written
        resumed.cancel("sub2")
        resumed.cancel("sub4")
        assert "template_guard" not in written  # Q_TWO's template still has sub6
        resumed.cancel("sub6")
        assert written.count("template_guard") == 1


# --------------------------------------------------------------------- #
# the auto-id counter
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "cancelled",
    [("sub3",), ("sub3", "sub2"), ("sub2",), ()],
    ids=["newest", "two", "older", "none"],
)
def test_an_auto_id_is_never_issued_twice_after_a_crash(cancelled, tmp_path):
    config = RuntimeConfig(storage="sqlite", storage_path=str(tmp_path), construct_outputs=False)
    issued = set()
    crashed = open_broker(config)
    try:
        for _ in range(3):
            issued.add(crashed.subscribe(Q_AUTHOR).subscription_id)
        assert issued == {"sub1", "sub2", "sub3"}
        for sid in cancelled:
            crashed.cancel(sid)
        again = open_broker(resume_from=str(tmp_path))
        try:
            fresh = again.subscribe(Q_AUTHOR).subscription_id
            assert fresh not in issued
            issued.add(fresh)
            again.cancel(fresh)  # the newest again, then a second crash
            with open_broker(resume_from=str(tmp_path)) as last:
                assert last.subscribe(Q_AUTHOR).subscription_id not in issued
        finally:
            again.close()
    finally:
        crashed.close()


def test_an_explicit_id_carries_the_counter_too(tmp_path):
    config = RuntimeConfig(storage="sqlite", storage_path=str(tmp_path), construct_outputs=False)
    crashed = open_broker(config)
    try:
        crashed.subscribe(Q_AUTHOR)
        crashed.subscribe(Q_AUTHOR)
        crashed.subscribe(Q_AUTHOR, subscription_id="mine")
        crashed.cancel("sub2")
        crashed.cancel("mine")  # the newest row: the counter goes to meta with it
        with open_broker(resume_from=str(tmp_path)) as resumed:
            assert resumed.subscribe(Q_AUTHOR).subscription_id == "sub3"
    finally:
        crashed.close()


@pytest.mark.parametrize("make", [MemoryStore, "sqlite"])
def test_a_removal_can_keep_the_counter(make, tmp_path):
    store = MemoryStore() if make is MemoryStore else SQLiteStore(str(tmp_path / "b.sqlite3"))
    try:
        store.save_subscription(SubscriptionRecord(1, "sub1", "q", "join", 0, id_counter=2))
        store.save_subscription(SubscriptionRecord(2, "sub2", "q", "join", 0, id_counter=3))
        assert [r.id_counter for r in store.subscriptions()] == [2, 3]
        store.remove_subscription("sub1")
        assert store.get_meta("sub_counter") is None
        store.remove_subscription("sub2", 3)
        assert store.subscriptions() == [] and store.get_meta("sub_counter") == 3
    finally:
        store.close()


def test_a_store_without_the_counter_column_still_opens(tmp_path):
    path = str(tmp_path / "broker.sqlite3")
    conn = sqlite3.connect(path)
    conn.execute(
        "CREATE TABLE subscriptions (sid TEXT PRIMARY KEY, seq INTEGER NOT NULL, "
        "query TEXT NOT NULL, kind TEXT NOT NULL, shard INTEGER)"
    )
    conn.execute("INSERT INTO subscriptions VALUES ('sub1', 1, 'q', 'join', 0)")
    conn.commit()
    conn.close()
    store = SQLiteStore(path)
    try:
        assert store.subscriptions() == [SubscriptionRecord(1, "sub1", "q", "join", 0)]
        store.save_subscription(SubscriptionRecord(2, "sub2", "q", "join", 0, id_counter=3))
        assert store.subscriptions()[1].id_counter == 3
    finally:
        store.close()
