"""The state-store protocol and its in-memory reference implementation.

A :class:`StateStore` externalizes everything a broker session would lose in
a crash:

* the **join state** — the stable relations ``Rbin`` / ``Rdoc`` / ``Rvar`` /
  ``RdocTS``, written per *document epoch* and keyed by
  ``(relation, docid)``, mirroring the docid-partitioned layout of
  :class:`~repro.core.state.JoinState`;
* the **subscription registry** — one record per subscription (query text,
  kind, owning shard), enough to replay every registration on recovery;
* the **variable catalog** — the canonical-name table of
  :class:`~repro.xscl.normalize.VariableCatalog`.  Canonical names resolve
  surface-name collisions in registration order, so a catalog re-derived
  from a replay that skips cancelled subscriptions could drift from the
  names frozen into the persisted state rows; restoring the catalog first
  pins them;
* **documents** — the serialized source XML (only when the engine stores
  documents), so output construction works across a restart;
* **metadata** — small values that must survive a restart (the config
  snapshot, the timestamp clock, engine counters, each engine's template
  guard).

Writes are grouped into *epochs*: one epoch per processed document,
bracketed by :meth:`StateStore.begin_epoch` / :meth:`StateStore.commit_epoch`.
An epoch is atomic — a crash between ``begin`` and ``commit`` leaves no
trace of the document (no torn state across the four relations), and
every commit is durable before the next document starts.

Every store carries a **fault-injection hook** (:attr:`StateStore.fault_hook`)
called at each named write point; a hook that raises simulates a crash
mid-epoch, which is how the torn-state tests drive recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.config import STORAGE_BACKENDS

__all__ = [
    "STORAGE_BACKENDS",
    "STABLE_RELATIONS",
    "SubscriptionRecord",
    "StoredDocument",
    "StateStore",
    "MemoryStore",
]

#: The stable join-state relations a store persists (the per-document witness
#: relations are ephemeral by design and never hit the store).
STABLE_RELATIONS = ("Rbin", "Rdoc", "Rvar", "RdocTS")


@dataclass(frozen=True)
class SubscriptionRecord:
    """One persisted subscription registration.

    ``seq`` is the broker-wide registration order (recovery replays in this
    order so per-engine canonicalization and template matching repeat
    deterministically); ``shard`` is the owning shard id for join
    subscriptions (``None`` for filter subscriptions); ``id_counter`` is
    the broker's auto-id counter as of this registration, written with the
    record so a subscribe stays one write.
    """

    seq: int
    subscription_id: str
    query_text: str
    kind: str  # "join" | "filter"
    shard: Optional[int] = None
    id_counter: Optional[int] = None


@dataclass(frozen=True)
class StoredDocument:
    """One persisted source document (for output construction after recovery)."""

    docid: str
    timestamp: float
    stream: str
    xml: str


class StateStore:
    """Abstract durable backend for broker/engine state.

    Concrete stores implement the ``_do_*`` primitives; the public methods
    add the shared fault-injection hook.  All mutating state methods must be
    called inside an epoch except the registry/meta methods, which form
    their own (immediately durable) transactions.
    """

    #: Optional fault-injection hook: called with the write-point name
    #: (``"begin_epoch"``, ``"upsert_rows"``, ``"put_document"``,
    #: ``"commit_epoch"``, ``"delete_documents"``, ...) before the write
    #: executes.  Raising from the hook simulates a crash at that point; the
    #: open epoch is rolled back.
    fault_hook: Optional[Callable[[str], None]] = None

    def _fault(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)

    # ------------------------------------------------------------------ #
    # document epochs
    # ------------------------------------------------------------------ #
    def begin_epoch(self, docid: str) -> None:
        """Open the atomic write scope of one processed document."""
        self._fault("begin_epoch")
        self._do_begin_epoch(docid)

    def commit_epoch(self) -> None:
        """Close the current epoch; the hook fires *before* the commit."""
        try:
            self._fault("commit_epoch")
        except BaseException:
            self.abort_epoch()
            raise
        self._do_commit_epoch()

    def abort_epoch(self) -> None:
        """Discard the current epoch's writes (crash/abort path)."""
        self._do_abort_epoch()

    # ------------------------------------------------------------------ #
    # join state (inside an epoch)
    # ------------------------------------------------------------------ #
    def upsert_rows(self, relation: str, docid: str, rows: Iterable[tuple]) -> None:
        """Replace the ``(relation, docid)`` partition with ``rows``.

        Rows use the relation's full schema (``docid`` column included).
        Replacement (rather than append) makes epoch replay idempotent: a
        recovered session re-processing a document that was already
        committed cannot duplicate its partition.
        """
        self._fault("upsert_rows")
        self._do_upsert_rows(relation, docid, rows)

    def put_document(self, docid: str, timestamp: float, stream: str, xml: str) -> None:
        """Persist one serialized source document (inside its epoch)."""
        self._fault("put_document")
        self._do_put_document(docid, timestamp, stream, xml)

    # ------------------------------------------------------------------ #
    # deletions (their own small transactions)
    # ------------------------------------------------------------------ #
    def delete_documents(self, docids: Iterable[str]) -> None:
        """Drop every persisted trace of the given documents (pruning path)."""
        self._fault("delete_documents")
        self._do_delete_documents(list(docids))

    def delete_variables(self, variables: Iterable[str]) -> None:
        """Drop ``Rbin``/``Rvar`` rows bound to the given variables.

        The retraction path: mirrors
        :meth:`repro.core.state.JoinState.drop_variables` (``Rdoc`` rows are
        node-keyed and shared, so they survive until their document goes).
        """
        self._fault("delete_variables")
        self._do_delete_variables(set(variables))

    def clear_state(self) -> None:
        """Drop all join state and documents (last query deregistered)."""
        self._fault("clear_state")
        self._do_clear_state()

    # ------------------------------------------------------------------ #
    # subscription registry
    # ------------------------------------------------------------------ #
    def save_subscription(self, record: SubscriptionRecord) -> None:
        """Persist (or overwrite) one subscription registration."""
        self._fault("save_subscription")
        self._do_save_subscription(record)

    def remove_subscription(
        self, subscription_id: str, id_counter: Optional[int] = None
    ) -> None:
        """Remove one subscription registration (cancel path).

        ``id_counter``, when given, is kept as the ``sub_counter`` metadata
        in the same transaction: the broker passes it when the removed
        record is the newest, the one whose ``id_counter`` no other record
        may reach.
        """
        self._fault("remove_subscription")
        self._do_remove_subscription(subscription_id, id_counter)

    def subscriptions(self) -> list[SubscriptionRecord]:
        """All persisted registrations, in ``seq`` order."""
        return sorted(self._do_subscriptions(), key=lambda r: r.seq)

    # ------------------------------------------------------------------ #
    # variable catalog
    # ------------------------------------------------------------------ #
    def save_catalog_entries(
        self, entries: Iterable[tuple[str, str, str]]
    ) -> None:
        """Persist canonical-name entries ``(name, stream, path)`` (append-only)."""
        self._do_save_catalog_entries(list(entries))

    def catalog_entries(self) -> list[tuple[str, str, str]]:
        """All persisted canonical-name entries, in registration order."""
        return self._do_catalog_entries()

    # ------------------------------------------------------------------ #
    # metadata
    # ------------------------------------------------------------------ #
    def set_meta(self, key: str, value) -> None:
        """Persist one small metadata value (JSON-serializable)."""
        self._do_set_meta(key, value)

    def get_meta(self, key: str, default=None):
        """Read one metadata value (``default`` when absent)."""
        return self._do_get_meta(key, default)

    # ------------------------------------------------------------------ #
    # recovery readers
    # ------------------------------------------------------------------ #
    def state_rows(self, relation: str) -> list[tuple]:
        """All persisted rows of one stable relation (full schema)."""
        raise NotImplementedError

    def documents(self) -> list[StoredDocument]:
        """All persisted source documents."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the store (an open epoch is aborted).  Idempotent."""

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # primitives
    # ------------------------------------------------------------------ #
    def _do_begin_epoch(self, docid: str) -> None:
        raise NotImplementedError

    def _do_commit_epoch(self) -> None:
        raise NotImplementedError

    def _do_abort_epoch(self) -> None:
        raise NotImplementedError

    def _do_upsert_rows(self, relation: str, docid: str, rows: Iterable[tuple]) -> None:
        raise NotImplementedError

    def _do_put_document(self, docid: str, timestamp: float, stream: str, xml: str) -> None:
        raise NotImplementedError

    def _do_delete_documents(self, docids: list[str]) -> None:
        raise NotImplementedError

    def _do_delete_variables(self, variables: set[str]) -> None:
        raise NotImplementedError

    def _do_clear_state(self) -> None:
        raise NotImplementedError

    def _do_save_subscription(self, record: SubscriptionRecord) -> None:
        raise NotImplementedError

    def _do_remove_subscription(self, subscription_id: str, id_counter: Optional[int]) -> None:
        raise NotImplementedError

    def _do_subscriptions(self) -> list[SubscriptionRecord]:
        raise NotImplementedError

    def _do_save_catalog_entries(self, entries: list[tuple[str, str, str]]) -> None:
        raise NotImplementedError

    def _do_catalog_entries(self) -> list[tuple[str, str, str]]:
        raise NotImplementedError

    def _do_set_meta(self, key: str, value) -> None:
        raise NotImplementedError

    def _do_get_meta(self, key: str, default):
        raise NotImplementedError


class MemoryStore(StateStore):
    """The in-memory reference implementation of :class:`StateStore`.

    ``storage="memory"`` (the default) attaches *no* store at all — the
    in-process :class:`~repro.core.state.JoinState` already is the state,
    and the hot path stays byte-for-byte the pre-storage behavior.  A
    ``MemoryStore`` is what you get when you want the *protocol* without a
    file: it stages each epoch and publishes it atomically on commit, so
    fault-injection, torn-state and in-process snapshot/restore tests run
    against the same semantics as :class:`~repro.storage.sqlite.SQLiteStore`
    without touching disk.
    """

    def __init__(self):
        #: Committed partitions: relation -> docid -> list of rows.
        self._state: dict[str, dict[str, list[tuple]]] = {
            name: {} for name in STABLE_RELATIONS
        }
        self._documents: dict[str, StoredDocument] = {}
        self._subscriptions: dict[str, SubscriptionRecord] = {}
        self._catalog: dict[str, tuple[str, str]] = {}
        self._meta: dict[str, object] = {}
        self._epoch_docid: Optional[str] = None
        self._staged_rows: list[tuple[str, str, list[tuple]]] = []
        self._staged_document: Optional[StoredDocument] = None
        self.epochs_committed = 0
        self.closed = False

    # -- epochs --------------------------------------------------------- #
    def _do_begin_epoch(self, docid: str) -> None:
        if self._epoch_docid is not None:
            raise RuntimeError(
                f"epoch for {self._epoch_docid!r} is still open; commit or abort it first"
            )
        self._epoch_docid = docid
        self._staged_rows = []
        self._staged_document = None

    def _do_commit_epoch(self) -> None:
        for relation, docid, rows in self._staged_rows:
            self._state[relation][docid] = rows
        if self._staged_document is not None:
            self._documents[self._staged_document.docid] = self._staged_document
        self._epoch_docid = None
        self._staged_rows = []
        self._staged_document = None
        self.epochs_committed += 1

    def _do_abort_epoch(self) -> None:
        self._epoch_docid = None
        self._staged_rows = []
        self._staged_document = None

    # -- state ---------------------------------------------------------- #
    def _do_upsert_rows(self, relation: str, docid: str, rows: Iterable[tuple]) -> None:
        if relation not in self._state:
            raise KeyError(f"unknown stable relation {relation!r}")
        if self._epoch_docid is None:
            raise RuntimeError("upsert_rows outside of an epoch")
        self._staged_rows.append((relation, docid, [tuple(r) for r in rows]))

    def _do_put_document(self, docid: str, timestamp: float, stream: str, xml: str) -> None:
        if self._epoch_docid is None:
            raise RuntimeError("put_document outside of an epoch")
        self._staged_document = StoredDocument(docid, timestamp, stream, xml)

    def _do_delete_documents(self, docids: list[str]) -> None:
        for partitions in self._state.values():
            for docid in docids:
                partitions.pop(docid, None)
        for docid in docids:
            self._documents.pop(docid, None)

    def _do_delete_variables(self, variables: set[str]) -> None:
        for docid, rows in list(self._state["Rbin"].items()):
            kept = [r for r in rows if r[1] not in variables and r[2] not in variables]
            if len(kept) != len(rows):
                if kept:
                    self._state["Rbin"][docid] = kept
                else:
                    del self._state["Rbin"][docid]
        for docid, rows in list(self._state["Rvar"].items()):
            kept = [r for r in rows if r[1] not in variables]
            if len(kept) != len(rows):
                if kept:
                    self._state["Rvar"][docid] = kept
                else:
                    del self._state["Rvar"][docid]

    def _do_clear_state(self) -> None:
        for partitions in self._state.values():
            partitions.clear()
        self._documents.clear()

    # -- registry / catalog / meta -------------------------------------- #
    def _do_save_subscription(self, record: SubscriptionRecord) -> None:
        self._subscriptions[record.subscription_id] = record

    def _do_remove_subscription(self, subscription_id: str, id_counter: Optional[int]) -> None:
        self._subscriptions.pop(subscription_id, None)
        if id_counter is not None:
            self._meta["sub_counter"] = id_counter

    def _do_subscriptions(self) -> list[SubscriptionRecord]:
        return list(self._subscriptions.values())

    def _do_save_catalog_entries(self, entries: list[tuple[str, str, str]]) -> None:
        for name, stream, path in entries:
            self._catalog[name] = (stream, path)

    def _do_catalog_entries(self) -> list[tuple[str, str, str]]:
        return [(name, s, p) for name, (s, p) in self._catalog.items()]

    def _do_set_meta(self, key: str, value) -> None:
        self._meta[key] = value

    def _do_get_meta(self, key: str, default):
        return self._meta.get(key, default)

    # -- recovery readers ----------------------------------------------- #
    def state_rows(self, relation: str) -> list[tuple]:
        out: list[tuple] = []
        for rows in self._state[relation].values():
            out.extend(rows)
        return out

    def documents(self) -> list[StoredDocument]:
        return list(self._documents.values())

    def state_docids(self) -> set[str]:
        """Docids with at least one committed partition (test helper)."""
        out: set[str] = set()
        for partitions in self._state.values():
            out.update(partitions)
        return out

    # -- lifecycle ------------------------------------------------------ #
    def close(self) -> None:
        if self._epoch_docid is not None:
            self.abort_epoch()
        self.closed = True
