"""The SQLite state backend: one durable file per broker member.

Layout: one table per stable relation (``Rbin`` / ``Rdoc`` / ``Rvar`` /
``RdocTS``), column-typed from the canonical schemas in
:data:`repro.templates.cqt.RELATION_SCHEMAS` (node ids ``INTEGER``,
timestamps ``REAL``, everything else ``TEXT``), each indexed on ``docid`` so
the per-document partition replace and the window-pruning deletes touch only
the affected rows.  Alongside the state live the ``documents`` table (the
serialized source XML), the ``subscriptions`` registry, the variable
``catalog`` and a small JSON ``meta`` key/value table.

Registration writes are deltas, each durable when it returns.  A subscribe
is one ``INSERT`` into the broker store's ``subscriptions`` (the row carries
the auto-id counter); a cancel is one ``DELETE`` (the cancel of the newest
row keeps its counter in ``meta`` within the same transaction).  A shard
store is written at a subscribe or a cancel only when something it keeps
changed: ``catalog`` rows for newly minted canonical names, the
``template_guard`` meta value when a template gains its first member or
loses its last, and ``Rbin``/``Rvar`` deletions when a cancel's variables
lose their last user.

Write shape follows the engine's epoch protocol: one SQLite transaction per
document epoch, rows written with ``executemany`` (one batched statement per
relation per document).  The database runs in WAL mode with
``synchronous=NORMAL`` — readers never block the writer, and an OS-level
crash preserves every committed transaction.  A crash inside an epoch
rolls its transaction back, so it never tears a document.

Connections are opened with ``check_same_thread=False`` so that a session
opened on one thread may be driven from another (a broker handed to a
consumer thread, say).  The broker is not thread-safe: its caller
serializes the calls, so a store is never used concurrently.
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Iterable, Optional

from repro.storage.base import (
    STABLE_RELATIONS,
    StateStore,
    StoredDocument,
    SubscriptionRecord,
)
from repro.templates.cqt import RELATION_SCHEMAS

__all__ = ["SQLiteStore", "sql_type_of"]


def sql_type_of(column: str) -> str:
    """The SQLite column type of one schema attribute (by naming convention).

    The relational layer's schemas are attribute-name lists; the names
    themselves are the type system — node ids are ``node``/``node1``/...,
    timestamps are ``timestamp``, and everything else (docids, canonical
    variable names, string values) is text.
    """
    if column.startswith("node"):
        return "INTEGER"
    if column == "timestamp":
        return "REAL"
    return "TEXT"


def _schema_sql(relation: str) -> str:
    columns = ", ".join(
        f'"{name}" {sql_type_of(name)} NOT NULL' for name in RELATION_SCHEMAS[relation]
    )
    return f'CREATE TABLE IF NOT EXISTS "{relation}" ({columns})'


#: Max parameters per ``IN (...)`` clause (SQLite's historical variable cap
#: is 999; stay comfortably below it).
_IN_CHUNK = 500


class SQLiteStore(StateStore):
    """A :class:`~repro.storage.base.StateStore` on one SQLite database file."""

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        # isolation_level=None puts the connection in autocommit mode;
        # transactions are controlled explicitly (BEGIN per epoch).
        self._conn: Optional[sqlite3.Connection] = sqlite3.connect(
            path, check_same_thread=False, isolation_level=None
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._epoch_open = False
        self.epochs_committed = 0
        self._create_tables()

    # ------------------------------------------------------------------ #
    # schema
    # ------------------------------------------------------------------ #
    def _create_tables(self) -> None:
        conn = self._connection()
        for relation in STABLE_RELATIONS:
            conn.execute(_schema_sql(relation))
            conn.execute(
                f'CREATE INDEX IF NOT EXISTS "{relation}_docid" ON "{relation}" (docid)'
            )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS documents ("
            "docid TEXT PRIMARY KEY, timestamp REAL NOT NULL, "
            "stream TEXT NOT NULL, xml TEXT NOT NULL)"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS subscriptions ("
            "sid TEXT PRIMARY KEY, seq INTEGER NOT NULL, "
            "query TEXT NOT NULL, kind TEXT NOT NULL, shard INTEGER, id_counter INTEGER)"
        )
        columns = {row[1] for row in conn.execute("PRAGMA table_info(subscriptions)")}
        if "id_counter" not in columns:  # a store written before the column existed
            conn.execute("ALTER TABLE subscriptions ADD COLUMN id_counter INTEGER")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS catalog ("
            "name TEXT PRIMARY KEY, stream TEXT NOT NULL, path TEXT NOT NULL)"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            raise RuntimeError(f"store {self.path!r} is closed")
        return self._conn

    @property
    def journal_mode(self) -> str:
        """The live journal mode (``"wal"`` on any file-backed store)."""
        return self._connection().execute("PRAGMA journal_mode").fetchone()[0]

    # ------------------------------------------------------------------ #
    # epochs
    # ------------------------------------------------------------------ #
    def _do_begin_epoch(self, docid: str) -> None:
        if self._epoch_open:
            raise RuntimeError("an epoch is already open; commit or abort it first")
        self._connection().execute("BEGIN")
        self._epoch_open = True

    def _do_commit_epoch(self) -> None:
        self._connection().execute("COMMIT")
        self._epoch_open = False
        self.epochs_committed += 1

    def _do_abort_epoch(self) -> None:
        if self._epoch_open:
            self._epoch_open = False
            self._connection().execute("ROLLBACK")

    # ------------------------------------------------------------------ #
    # join state
    # ------------------------------------------------------------------ #
    def _do_upsert_rows(self, relation: str, docid: str, rows: Iterable[tuple]) -> None:
        if relation not in STABLE_RELATIONS:
            raise KeyError(f"unknown stable relation {relation!r}")
        conn = self._connection()
        conn.execute(f'DELETE FROM "{relation}" WHERE docid = ?', (docid,))
        rows = rows if isinstance(rows, list) else list(rows)
        if rows:
            placeholders = ", ".join("?" * len(RELATION_SCHEMAS[relation]))
            conn.executemany(
                f'INSERT INTO "{relation}" VALUES ({placeholders})', rows
            )

    def _do_put_document(self, docid: str, timestamp: float, stream: str, xml: str) -> None:
        self._connection().execute(
            "INSERT OR REPLACE INTO documents (docid, timestamp, stream, xml) "
            "VALUES (?, ?, ?, ?)",
            (docid, timestamp, stream, xml),
        )

    def _do_delete_documents(self, docids: list[str]) -> None:
        conn = self._connection()
        for start in range(0, len(docids), _IN_CHUNK):
            chunk = docids[start : start + _IN_CHUNK]
            marks = ", ".join("?" * len(chunk))
            for relation in STABLE_RELATIONS:
                conn.execute(
                    f'DELETE FROM "{relation}" WHERE docid IN ({marks})', chunk
                )
            conn.execute(f"DELETE FROM documents WHERE docid IN ({marks})", chunk)

    def _do_delete_variables(self, variables: set[str]) -> None:
        conn = self._connection()
        dead = sorted(variables)
        for start in range(0, len(dead), _IN_CHUNK):
            chunk = dead[start : start + _IN_CHUNK]
            marks = ", ".join("?" * len(chunk))
            conn.execute(
                f'DELETE FROM "Rbin" WHERE var1 IN ({marks}) OR var2 IN ({marks})',
                chunk + chunk,
            )
            conn.execute(f'DELETE FROM "Rvar" WHERE var IN ({marks})', chunk)

    def _do_clear_state(self) -> None:
        conn = self._connection()
        for relation in STABLE_RELATIONS:
            conn.execute(f'DELETE FROM "{relation}"')
        conn.execute("DELETE FROM documents")

    # ------------------------------------------------------------------ #
    # registry / catalog / meta (durable when they return)
    # ------------------------------------------------------------------ #
    def _do_save_subscription(self, record: SubscriptionRecord) -> None:
        self._connection().execute(
            "INSERT OR REPLACE INTO subscriptions (sid, seq, query, kind, shard, id_counter) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (
                record.subscription_id,
                record.seq,
                record.query_text,
                record.kind,
                record.shard,
                record.id_counter,
            ),
        )

    def _do_remove_subscription(self, subscription_id: str, id_counter: Optional[int]) -> None:
        conn = self._connection()
        if id_counter is None:
            conn.execute("DELETE FROM subscriptions WHERE sid = ?", (subscription_id,))
            return
        conn.execute("BEGIN")
        try:
            conn.execute("DELETE FROM subscriptions WHERE sid = ?", (subscription_id,))
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('sub_counter', ?)",
                (json.dumps(id_counter),),
            )
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")

    def _do_subscriptions(self) -> list[SubscriptionRecord]:
        rows = self._connection().execute(
            "SELECT seq, sid, query, kind, shard, id_counter FROM subscriptions ORDER BY seq"
        )
        return [SubscriptionRecord(*row) for row in rows]

    def _do_save_catalog_entries(self, entries: list[tuple[str, str, str]]) -> None:
        if not entries:
            return
        self._connection().executemany(
            "INSERT OR REPLACE INTO catalog (name, stream, path) VALUES (?, ?, ?)",
            entries,
        )

    def _do_catalog_entries(self) -> list[tuple[str, str, str]]:
        return list(
            self._connection().execute(
                "SELECT name, stream, path FROM catalog ORDER BY rowid"
            )
        )

    def _do_set_meta(self, key: str, value) -> None:
        # Inside an epoch the value joins it; outside, it commits on its own.
        self._connection().execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            (key, json.dumps(value)),
        )

    def _do_get_meta(self, key: str, default):
        row = self._connection().execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return default if row is None else json.loads(row[0])

    # ------------------------------------------------------------------ #
    # recovery readers
    # ------------------------------------------------------------------ #
    def state_rows(self, relation: str) -> list[tuple]:
        if relation not in STABLE_RELATIONS:
            raise KeyError(f"unknown stable relation {relation!r}")
        return list(self._connection().execute(f'SELECT * FROM "{relation}"'))

    def documents(self) -> list[StoredDocument]:
        rows = self._connection().execute(
            "SELECT docid, timestamp, stream, xml FROM documents"
        )
        return [StoredDocument(*row) for row in rows]

    def state_docids(self) -> set[str]:
        """Docids with at least one committed row (torn-state test helper)."""
        out: set[str] = set()
        for relation in STABLE_RELATIONS:
            for (docid,) in self._connection().execute(
                f'SELECT DISTINCT docid FROM "{relation}"'
            ):
                out.add(docid)
        return out

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._conn is None:
            return
        self.abort_epoch()
        self._conn.close()
        self._conn = None

    @property
    def closed(self) -> bool:
        return self._conn is None

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<SQLiteStore {self.path!r} {state}>"
