"""Unit tests of the repro.storage protocol and its two backends.

Both backends are driven through the same scenarios where the protocol is
backend-agnostic (epoch atomicity, partition-replace upserts, registry /
catalog / meta round-trips, fault-injection aborts); SQLite-specific
behavior (WAL mode, typed schemas, durability across close/reopen) gets
its own cases.
"""

from __future__ import annotations

import os
import sqlite3

import pytest

from repro.config import RuntimeConfig
from repro.storage import (
    STABLE_RELATIONS,
    MemoryStore,
    SQLiteStore,
    StoredDocument,
    SubscriptionRecord,
    open_member_store,
    resolve_storage,
)
from repro.storage.sqlite import sql_type_of
from repro.templates.cqt import RELATION_SCHEMAS


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        s = MemoryStore()
    else:
        s = SQLiteStore(str(tmp_path / "state.sqlite3"))
    yield s
    s.close()


def _rbin_row(docid: str, n: int = 1) -> tuple:
    return (docid, "x1", "x2", n, n + 1)


def _commit_doc(store, docid: str, rows=None) -> None:
    store.begin_epoch(docid)
    store.upsert_rows("Rbin", docid, rows if rows is not None else [_rbin_row(docid)])
    store.commit_epoch()


# --------------------------------------------------------------------- #
# epochs
# --------------------------------------------------------------------- #
def test_commit_publishes_epoch(store):
    _commit_doc(store, "d1")
    assert store.state_rows("Rbin") == [_rbin_row("d1")]
    assert store.state_docids() == {"d1"}
    assert store.epochs_committed == 1


def test_abort_discards_epoch(store):
    _commit_doc(store, "d1")
    store.begin_epoch("d2")
    store.upsert_rows("Rbin", "d2", [_rbin_row("d2")])
    store.put_document("d2", 2.0, "S", "<a/>")
    store.abort_epoch()
    assert store.state_docids() == {"d1"}
    assert store.documents() == []
    # the store is usable again after an abort
    _commit_doc(store, "d3")
    assert store.state_docids() == {"d1", "d3"}


def test_nested_epoch_rejected(store):
    store.begin_epoch("d1")
    with pytest.raises(RuntimeError):
        store.begin_epoch("d2")
    store.abort_epoch()


def test_upsert_replaces_partition(store):
    """Replaying an already-committed epoch cannot duplicate its rows."""
    _commit_doc(store, "d1", [_rbin_row("d1", 1), _rbin_row("d1", 5)])
    _commit_doc(store, "d1", [_rbin_row("d1", 9)])
    assert store.state_rows("Rbin") == [_rbin_row("d1", 9)]


def test_unknown_relation_rejected(store):
    store.begin_epoch("d1")
    with pytest.raises(KeyError):
        store.upsert_rows("Rwitness", "d1", [("d1",)])
    store.abort_epoch()


def test_document_roundtrip(store):
    store.begin_epoch("d1")
    store.put_document("d1", 3.5, "books", "<book/>")
    store.commit_epoch()
    assert store.documents() == [StoredDocument("d1", 3.5, "books", "<book/>")]


def test_fault_hook_at_commit_aborts_epoch(store):
    class Crash(RuntimeError):
        pass

    def hook(point):
        if point == "commit_epoch":
            raise Crash

    _commit_doc(store, "d1")
    store.fault_hook = hook
    store.begin_epoch("d2")
    store.upsert_rows("Rbin", "d2", [_rbin_row("d2")])
    with pytest.raises(Crash):
        store.commit_epoch()
    store.fault_hook = None
    assert store.state_docids() == {"d1"}
    _commit_doc(store, "d3")
    assert store.state_docids() == {"d1", "d3"}


def test_abort_outside_an_epoch_discards_nothing(store):
    _commit_doc(store, "d1")
    store.save_subscription(SubscriptionRecord(1, "sub1", "q1", "join", 0))
    store.abort_epoch()  # nothing is open: a no-op, not a rollback
    assert store.state_docids() == {"d1"}
    assert [r.subscription_id for r in store.subscriptions()] == ["sub1"]
    _commit_doc(store, "d2")
    assert store.state_docids() == {"d1", "d2"}


def test_an_abort_keeps_the_writes_made_before_its_epoch(store):
    store.save_subscription(SubscriptionRecord(1, "sub1", "q1", "join", 0))
    store.save_catalog_entries([("x1", "S", "//book")])
    store.set_meta("clock", 4)
    store.begin_epoch("d1")
    store.upsert_rows("Rbin", "d1", [_rbin_row("d1")])
    store.abort_epoch()
    assert store.state_docids() == set()
    assert [r.subscription_id for r in store.subscriptions()] == ["sub1"]
    assert store.catalog_entries() == [("x1", "S", "//book")]
    assert store.get_meta("clock") == 4


def _reader(path):
    """A second connection: it sees only what the store has committed."""
    return sqlite3.connect(path, isolation_level=None)


def test_sqlite_epoch_is_invisible_to_other_connections_until_commit(tmp_path):
    path = str(tmp_path / "epoch.sqlite3")
    s = SQLiteStore(path)
    reader = _reader(path)
    try:
        s.begin_epoch("d1")
        s.upsert_rows("Rbin", "d1", [_rbin_row("d1")])
        s.put_document("d1", 1.0, "S", "<a/>")
        assert reader.execute('SELECT COUNT(*) FROM "Rbin"').fetchone() == (0,)
        assert reader.execute("SELECT COUNT(*) FROM documents").fetchone() == (0,)
        s.commit_epoch()
        assert reader.execute('SELECT docid FROM "Rbin"').fetchall() == [("d1",)]
        assert reader.execute("SELECT docid FROM documents").fetchall() == [("d1",)]
    finally:
        reader.close()
        s.close()


def test_sqlite_writes_outside_an_epoch_are_durable_at_once(tmp_path):
    path = str(tmp_path / "autocommit.sqlite3")
    s = SQLiteStore(path)
    reader = _reader(path)
    try:
        s.save_subscription(SubscriptionRecord(1, "sub1", "q1", "join", 0))
        s.save_catalog_entries([("x1", "S", "//book")])
        s.set_meta("clock", 3)
        assert reader.execute("SELECT sid FROM subscriptions").fetchall() == [("sub1",)]
        assert reader.execute("SELECT name FROM catalog").fetchall() == [("x1",)]
        assert reader.execute("SELECT value FROM meta WHERE key = 'clock'").fetchone() == ("3",)
        s.remove_subscription("sub1")
        assert reader.execute("SELECT COUNT(*) FROM subscriptions").fetchone() == (0,)
    finally:
        reader.close()
        s.close()


class _FailingCommit:
    """Wraps a connection; its first ``COMMIT`` raises as a full disk would."""

    def __init__(self, conn):
        self._conn = conn
        self.failed = False

    def execute(self, sql, *args):
        if sql == "COMMIT" and not self.failed:
            self.failed = True
            raise sqlite3.OperationalError("database or disk is full")
        return self._conn.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def test_sqlite_failed_commit_leaves_the_epoch_to_roll_back(tmp_path):
    s = SQLiteStore(str(tmp_path / "failed.sqlite3"))
    try:
        _commit_doc(s, "d1")
        real = s._conn
        s._conn = _FailingCommit(real)
        s.begin_epoch("d2")
        s.upsert_rows("Rbin", "d2", [_rbin_row("d2")])
        with pytest.raises(sqlite3.OperationalError):
            s.commit_epoch()
        assert s.epochs_committed == 1
        s.abort_epoch()  # the epoch is still open: this rolls it back
        s._conn = real
        assert not real.in_transaction
        assert s.state_docids() == {"d1"}
        _commit_doc(s, "d3")
        assert s.state_docids() == {"d1", "d3"}
    finally:
        s.close()


# --------------------------------------------------------------------- #
# deletions
# --------------------------------------------------------------------- #
def test_delete_documents(store):
    for docid in ("d1", "d2", "d3"):
        store.begin_epoch(docid)
        store.upsert_rows("Rbin", docid, [_rbin_row(docid)])
        store.upsert_rows("RdocTS", docid, [(docid, 1.0)])
        store.put_document(docid, 1.0, "S", "<a/>")
        store.commit_epoch()
    store.delete_documents(["d1", "d3"])
    assert store.state_docids() == {"d2"}
    assert [d.docid for d in store.documents()] == ["d2"]


def test_delete_variables(store):
    store.begin_epoch("d1")
    store.upsert_rows(
        "Rbin", "d1", [("d1", "x1", "x2", 1, 2), ("d1", "x7", "x8", 3, 4)]
    )
    store.upsert_rows("Rvar", "d1", [("d1", "x2", 2), ("d1", "x8", 4)])
    store.commit_epoch()
    store.delete_variables({"x7", "x8"})
    assert store.state_rows("Rbin") == [("d1", "x1", "x2", 1, 2)]
    assert store.state_rows("Rvar") == [("d1", "x2", 2)]


def test_clear_state(store):
    _commit_doc(store, "d1")
    store.begin_epoch("d2")
    store.put_document("d2", 2.0, "S", "<a/>")
    store.commit_epoch()
    store.clear_state()
    for relation in STABLE_RELATIONS:
        assert store.state_rows(relation) == []
    assert store.documents() == []


# --------------------------------------------------------------------- #
# registry / catalog / meta
# --------------------------------------------------------------------- #
def test_subscriptions_ordered_by_seq(store):
    store.save_subscription(SubscriptionRecord(2, "sub2", "q2", "join", 1))
    store.save_subscription(SubscriptionRecord(1, "sub1", "q1", "filter"))
    store.save_subscription(SubscriptionRecord(3, "sub3", "q3", "join", 0))
    assert [r.subscription_id for r in store.subscriptions()] == [
        "sub1",
        "sub2",
        "sub3",
    ]
    store.remove_subscription("sub2")
    assert [r.subscription_id for r in store.subscriptions()] == ["sub1", "sub3"]
    # records round-trip field-for-field
    assert store.subscriptions()[1] == SubscriptionRecord(3, "sub3", "q3", "join", 0)


def test_catalog_preserves_registration_order(store):
    store.save_catalog_entries([("x1", "S", "//book"), ("x2", "S", "//author")])
    store.save_catalog_entries([("x2_2", "T", "//author")])
    assert store.catalog_entries() == [
        ("x1", "S", "//book"),
        ("x2", "S", "//author"),
        ("x2_2", "T", "//author"),
    ]


def test_meta_json_roundtrip(store):
    store.set_meta("counters", {"documents": 7, "clock": 7})
    store.set_meta("refcounts", [1, 2, 2])
    assert store.get_meta("counters") == {"documents": 7, "clock": 7}
    assert store.get_meta("refcounts") == [1, 2, 2]
    assert store.get_meta("absent", "fallback") == "fallback"
    store.set_meta("counters", {"documents": 8, "clock": 8})
    assert store.get_meta("counters")["documents"] == 8


def test_close_is_idempotent(store):
    store.close()
    store.close()
    assert store.closed


def test_context_manager_closes(tmp_path):
    with SQLiteStore(str(tmp_path / "cm.sqlite3")) as s:
        _commit_doc(s, "d1")
    assert s.closed


# --------------------------------------------------------------------- #
# SQLite specifics
# --------------------------------------------------------------------- #
def test_sqlite_runs_in_wal_mode(tmp_path):
    with SQLiteStore(str(tmp_path / "wal.sqlite3")) as s:
        assert s.journal_mode == "wal"


def test_sql_type_convention():
    assert sql_type_of("node") == "INTEGER"
    assert sql_type_of("node1") == "INTEGER"
    assert sql_type_of("timestamp") == "REAL"
    assert sql_type_of("docid") == "TEXT"
    assert sql_type_of("var1") == "TEXT"
    assert sql_type_of("strVal") == "TEXT"


def test_sqlite_tables_are_column_typed(tmp_path):
    s = SQLiteStore(str(tmp_path / "typed.sqlite3"))
    try:
        for relation in STABLE_RELATIONS:
            info = s._connection().execute(f'PRAGMA table_info("{relation}")').fetchall()
            got = {row[1]: row[2] for row in info}
            assert got == {
                col: sql_type_of(col) for col in RELATION_SCHEMAS[relation]
            }, relation
    finally:
        s.close()


def test_sqlite_state_survives_reopen(tmp_path):
    path = str(tmp_path / "durable.sqlite3")
    with SQLiteStore(path) as s:
        _commit_doc(s, "d1")
        s.save_subscription(SubscriptionRecord(1, "sub1", "q1", "join", 0))
        s.save_catalog_entries([("x1", "S", "//book")])
        s.set_meta("clock", 9)
    with SQLiteStore(path) as s:
        assert s.state_rows("Rbin") == [_rbin_row("d1")]
        assert [r.subscription_id for r in s.subscriptions()] == ["sub1"]
        assert s.catalog_entries() == [("x1", "S", "//book")]
        assert s.get_meta("clock") == 9


def test_closed_store_rejects_writes(tmp_path):
    s = SQLiteStore(str(tmp_path / "closed.sqlite3"))
    s.close()
    with pytest.raises(RuntimeError, match="closed"):
        s.begin_epoch("d1")


# --------------------------------------------------------------------- #
# resolution
# --------------------------------------------------------------------- #
def test_resolve_storage_memory_has_no_path():
    assert resolve_storage(RuntimeConfig(storage="memory")) == ("memory", None)


def test_resolve_storage_sqlite_materializes_tempdir():
    storage, path = resolve_storage(RuntimeConfig(storage="sqlite"))
    assert storage == "sqlite" and path is not None and os.path.isdir(path)


def test_open_member_store(tmp_path):
    assert open_member_store("memory", None, "broker") is None
    s = open_member_store("sqlite", str(tmp_path), "shard-0")
    try:
        assert isinstance(s, SQLiteStore)
        assert s.path == str(tmp_path / "shard-0.sqlite3")
    finally:
        s.close()
    with pytest.raises(ValueError):
        open_member_store("sqlite", None, "broker")
    with pytest.raises(ValueError):
        open_member_store("etcd", str(tmp_path), "broker")


# --------------------------------------------------------------------- #
# config validation
# --------------------------------------------------------------------- #
def test_config_rejects_unknown_storage():
    with pytest.raises(ValueError, match="storage"):
        RuntimeConfig(storage="etcd")
    with pytest.raises(ValueError, match="storage_path"):
        RuntimeConfig(storage="memory", storage_path="/tmp/x")  # requires storage="sqlite"
