"""repro.storage — durable, pluggable state backends.

The subsystem behind ``RuntimeConfig(storage=...)``:

* :class:`StateStore` — the protocol every backend implements: atomic
  per-document *epochs* over the stable join-state relations, a persisted
  subscription registry + variable catalog, serialized documents, and small
  metadata, with a fault-injection hook for crash testing.
* :class:`MemoryStore` — the in-process reference implementation (epoch
  staging, so aborts and crash semantics are testable without a file).
* :class:`~repro.storage.sqlite.SQLiteStore` — the durable backend: WAL-mode
  SQLite, one column-typed table per stable relation, ``executemany``
  batched writes per epoch.
* :func:`resolve_storage` / :func:`open_member_store` — how the brokers turn
  a config into concrete per-member stores (``broker.sqlite3`` for the
  registry, ``shard-N.sqlite3`` per engine).
* :mod:`repro.storage.recovery` — rebuilds a broker from its stores
  (``repro.open_broker(resume_from=path)``).

With the default ``storage="memory"`` no store object is attached anywhere:
the hot path is byte-for-byte the pre-storage behavior.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional

from repro.storage.base import (
    STABLE_RELATIONS,
    STORAGE_BACKENDS,
    MemoryStore,
    StateStore,
    StoredDocument,
    SubscriptionRecord,
)
from repro.storage.sqlite import SQLiteStore

__all__ = [
    "STORAGE_BACKENDS",
    "STABLE_RELATIONS",
    "StateStore",
    "MemoryStore",
    "SQLiteStore",
    "StoredDocument",
    "SubscriptionRecord",
    "resolve_storage",
    "open_member_store",
]


def resolve_storage(config) -> tuple[str, Optional[str]]:
    """Resolve a config's effective ``(storage, storage_path)`` pair.

    Materializes a fresh temporary directory when ``storage="sqlite"`` is
    selected without an explicit path.  Called once per broker, so every
    member store of one session lands in the same directory.
    """
    storage, path = config.storage, config.storage_path
    if storage == "sqlite" and path is None:
        path = tempfile.mkdtemp(prefix="repro-storage-")
    return storage, path


def open_member_store(storage: str, path: Optional[str], member: str) -> Optional[StateStore]:
    """Open the state store of one broker member, or ``None`` for memory.

    ``member`` names the database file inside the storage directory:
    ``"broker"`` for the registry store, ``"shard-N"`` for each engine.
    ``storage="memory"`` deliberately returns ``None`` — the in-process
    state *is* the store, and attaching nothing keeps the hot path free of
    any storage branch cost.
    """
    if storage == "memory":
        return None
    if storage != "sqlite":
        raise ValueError(
            f"unknown storage backend {storage!r}; choose one of {STORAGE_BACKENDS}"
        )
    if path is None:
        raise ValueError("storage='sqlite' needs a storage directory")
    os.makedirs(path, exist_ok=True)
    return SQLiteStore(os.path.join(path, f"{member}.sqlite3"))
