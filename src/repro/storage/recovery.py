"""Crash recovery: rebuild a live broker session from its SQLite stores.

:func:`resume_broker` is the engine behind
``repro.open_broker(resume_from=path)``.  The stores hold four things the
process lost — the subscription registry, the variable catalog, the join
state, and the serialized documents — and recovery replays them in an order
that makes the rebuilt broker *match-equivalent* to one that never
restarted:

1. **Catalog first.**  Canonical variable names are assigned in
   registration order with collision suffixes (``x2`` vs ``x2_2``), so a
   catalog re-derived from replaying only the *surviving* subscriptions
   (cancelled ones are gone from the registry) could assign different names
   than the ones frozen into the persisted state rows.  Restoring the
   persisted catalog before any replay pins every name.
2. **Replay registrations** in their original sequence.  This rebuilds the
   derived structures — templates, ``RT`` tuples, Stage 1 registrations,
   compiled plans, relevance-index postings — through the exact same code
   path as a live ``subscribe``; with several shards each join subscription
   is forced onto its recorded shard (document replication makes per-shard
   state placement-dependent).
3. **Load state rows and documents** straight into each engine's
   :class:`~repro.core.state.JoinState` and document map, and restore the
   persisted counters (timestamp clock, id counters) so future stamps and
   auto-generated ids continue where the crashed session stopped.
4. **Finish an interrupted cancel**, if a shard store's guard names one
   (below).

What a live session wrote is a delta per registration: a subscribe inserts
one row into the broker store's ``subscriptions`` table (the auto-id counter
travels in that row) and a cancel deletes it; a shard store gains catalog entries
only when a registration mints a canonical name, and rewrites its *template
guard* — the sorted keys of its live templates — only when a template gains
its first member or loses its last, or a cancel deletes join state.  After
the replay each shard's live template keys are checked against its guard,
which guards against a registry/state mismatch (e.g. resuming with an
incompatible config); mismatches raise :class:`RecoveryError` rather than
silently mis-joining.  The replay itself writes no guard.

The shard store is written before the broker store, so a crash between
the two leaves a guard one registration ahead of the replay.  The guard
names that registration (subscription id, ``"add"`` or ``"remove"``, the
template keys it moved), and a cancel that deletes join state names
itself there before the deletion.  When the broker store shows the
registration never finished and the replay differs from the guard by
exactly those keys, recovery does not raise.  A subscribe with no
row stays undone: the guard is rewritten to the replay.  A cancel whose
row is still there is finished after the replay, since the state it
deleted cannot come back: no subscription resumes without its join state.
"""

from __future__ import annotations

import dataclasses
import os
from collections import Counter
from typing import Any, Mapping, Optional

from repro.config import RuntimeConfig
from repro.core.engine import TEMPLATE_GUARD
from repro.storage.base import STABLE_RELATIONS
from repro.storage.sqlite import SQLiteStore

__all__ = [
    "RecoveryError",
    "resume_broker",
    "config_snapshot",
    "recover_engine_catalog",
    "engine_template_guard",
    "restore_engine_state",
    "docid_floor",
]


class RecoveryError(RuntimeError):
    """The stores are missing, inconsistent, or contradict the given config."""


def config_snapshot(config: RuntimeConfig) -> dict:
    """The JSON-serializable view of a config persisted in the broker store.

    ``storage_path`` is omitted: the snapshot lives *inside* that
    directory, and recovery re-supplies it.
    """
    out = dataclasses.asdict(config)
    del out["storage_path"]
    return out


def resume_broker(
    config: "RuntimeConfig | str | None",
    path: str,
    overrides: Optional[Mapping[str, Any]] = None,
):
    """Rebuild the broker session persisted under ``path``.

    ``config`` may be ``None`` (reconstruct the crashed session's config
    from its persisted snapshot), an engine-name string, or an explicit
    :class:`~repro.config.RuntimeConfig`; ``overrides`` are applied on top.
    Whatever is supplied, ``storage``/``storage_path`` are forced back to
    the stores being resumed, and ``shards`` must match the persisted
    topology (join-state placement is per shard).
    """
    changes = dict(overrides or {})
    if isinstance(config, str):
        changes.setdefault("engine", config)
        config = None
    broker_db = os.path.join(path, "broker.sqlite3")
    if not os.path.exists(broker_db):
        raise RecoveryError(f"no broker store found at {broker_db!r}")
    probe = SQLiteStore(broker_db)
    try:
        stored = probe.get_meta("config")
    finally:
        probe.close()
    if stored is None:
        raise RecoveryError(
            f"broker store {broker_db!r} has no persisted config snapshot"
        )

    if config is None:
        # Fields a later config dropped are ignored; the thread-pool
        # executor is gone, and its sessions resume on in-process shards.
        known = {f.name for f in dataclasses.fields(RuntimeConfig)}
        fields = {k: v for k, v in stored.items() if k in known}
        if fields.get("executor") == "threads":
            fields["executor"] = "serial"
        config = RuntimeConfig(**fields)
    elif not isinstance(config, RuntimeConfig):
        raise TypeError(
            f"resume_from expects a RuntimeConfig, an engine name, or None; "
            f"got {type(config).__name__}"
        )
    changes["storage"] = "sqlite"
    changes["storage_path"] = path
    config = config.replace(**changes)
    if config.shards != stored.get("shards", config.shards):
        raise RecoveryError(
            f"cannot resume a {stored.get('shards')}-shard session with "
            f"shards={config.shards}; join-state placement is per shard"
        )

    from repro.pubsub.broker import Broker  # imports this module for config_snapshot

    broker = Broker(config)
    try:
        _restore(broker)
    except BaseException:
        broker.close()
        raise
    return broker


def _restore(broker) -> None:
    # In-process shards and process-shard handles expose the same three
    # recovery methods, so every topology is driven through one interface.
    members = broker.shards

    # 1. Pin canonical variable names before any registration replays; the
    # same round-trip reads each shard's template guard and stops the
    # engines writing theirs while the replay runs.
    guards = [member.recover_catalog() for member in members]

    # 2. Replay the surviving registrations in their original order (texts
    # subscribed many times are parsed and derived once, as when live).
    records = broker._store.subscriptions()
    for record in records:
        broker._register(
            record.subscription_id,
            broker._parse(record.query_text),
            recorded_shard=record.shard,
        )

    placed = {record.subscription_id: record.shard for record in records}
    cancels = []
    for shard, (member, guard) in enumerate(zip(members, guards)):
        live = member.template_guard()
        if guard is None:
            continue
        if isinstance(guard, list):  # a guard that names no registration
            guard = {"keys": guard, "sid": None, "op": None, "moved": []}
        if _unfinished_cancel(guard, live, placed, shard):
            cancels.append(guard["sid"])
            continue
        if live is None or guard["keys"] is None or live == guard["keys"]:
            continue
        if not _unfinished_subscribe(guard, live, placed):
            raise RecoveryError(
                f"live templates after replay {live} do not match the persisted "
                f"template guard {guard['keys']}; the stores were written by an "
                "incompatible session"
            )
        member.template_guard(rewrite=True)

    # 3. Join state, documents, and counters.
    floor = max(member.recover_state() for member in members)
    _restore_broker_counters(broker, records)
    if floor:
        from repro.xmlmodel.document import advance_docid_counter

        advance_docid_counter(floor)

    # 4. Finish the cancel a crash interrupted, as if it had returned: the
    # subscription leaves the engine, the router and the broker store, and
    # no handle is kept (a resumed session lists no cancelled ones).
    for sid in cancels:
        broker.cancel(sid)
        del broker._subscriptions[sid]


def _unfinished_cancel(guard: dict, live: Optional[list], placed: dict, shard: int) -> bool:
    """Whether ``guard`` names a cancel on ``shard`` whose broker row survived.

    The replay brought back the ``moved`` keys that cancel retired.  A
    guard naming a cancel that finished names an id with no row, or one
    registered again elsewhere: a subscribe under that id on the same
    shard rewrites the guard.
    """
    if guard["op"] != "remove" or placed.get(guard["sid"], -1) != shard:
        return False
    if live is None or guard["keys"] is None:
        return True
    return Counter(guard["keys"]) + Counter(guard["moved"]) == Counter(live)


def _unfinished_subscribe(guard: dict, live: list, placed: dict) -> bool:
    """Whether ``guard`` is ``live`` plus a subscribe the broker store never recorded.

    That subscribe created the ``moved`` keys the replay lacks.
    """
    if guard["op"] != "add" or not guard["moved"] or guard["sid"] in placed:
        return False
    return Counter(live) + Counter(guard["moved"]) == Counter(guard["keys"])


def recover_engine_catalog(engine):
    """Pin one engine's persisted catalog; returns its persisted template guard.

    Restoring the catalog *before* any registration replays is step 1 of
    recovery (see the module docstring).  The guard (``None`` when the
    store has none) is read in the same round-trip for the post-replay
    check, and the engine stops rewriting it until
    :func:`engine_template_guard` re-arms it.
    """
    entries = engine.store.catalog_entries()
    engine.catalog.restore(entries)
    engine._catalog_watermark = len(engine.catalog)
    engine._guard_version = None
    guard = engine.store.get_meta(TEMPLATE_GUARD)
    if isinstance(guard, dict) and guard["op"] == "remove":
        engine._guard_cancel = guard["sid"]
    return guard


def engine_template_guard(engine, rewrite: bool = False):
    """One engine's live template keys after the replay (``None`` without registry).

    The store's guard already holds these keys when the check passes, so
    the engine resumes writing its guard from here, at the next change.
    ``rewrite`` writes them as the guard now, naming no registration (the
    guard was one unfinished registration ahead of the replay).
    """
    registry = engine.registry
    keys = None if registry is None else registry.live_template_keys()
    engine._guard_version = 0 if registry is None else registry.live_version
    engine._guard_keys = keys
    if rewrite:
        engine.store.set_meta(TEMPLATE_GUARD, {"keys": keys, "sid": None, "op": None, "moved": []})
        engine._guard_cancel = None
    return keys


def docid_floor(engine) -> int:
    """The smallest safe auto-docid counter value for one engine's state.

    Auto-generated docids (``doc0``, ``doc1``, ...) come from a counter
    that restarts with the process; without advancing it past every
    persisted docid, the first unnamed document published after recovery
    would reuse a recovered docid and replace its state partitions.
    """
    import re

    floor = 0
    for docid in engine.store.state_docids():
        m = re.fullmatch(r"doc(\d+)", docid)
        if m:
            floor = max(floor, int(m.group(1)) + 1)
    return floor


def restore_engine_state(engine) -> None:
    from repro.xmlmodel.parser import parse_document

    store = engine.store
    state = engine.processor.state
    for relation in STABLE_RELATIONS:
        state.restore_rows(relation, store.state_rows(relation))
    if engine.store_documents:
        for doc in store.documents():
            engine.documents[doc.docid] = parse_document(
                doc.xml, docid=doc.docid, timestamp=doc.timestamp, stream=doc.stream
            )
    counters = store.get_meta("engine_counters") or {}
    engine.num_documents_processed = int(counters.get("documents", 0))
    engine.num_matches = int(counters.get("matches", 0))
    engine._clock_value = int(counters.get("clock", 0))


def _restore_broker_counters(broker, records) -> None:
    store = broker._store
    # Each row carries the auto-id counter as of its subscribe; a cancel of
    # the newest row, whose counter no other row may reach, keeps it in meta.
    broker._sub_counter = max(
        [int(store.get_meta("sub_counter", broker._sub_counter))]
        + [record.id_counter for record in records if record.id_counter is not None]
    )
    broker._reg_seq = max((record.seq for record in records), default=0)
    broker._newest_sid = records[-1].subscription_id if records else None
    broker._clock_value, broker._num_published = store.get_meta("clock", (0, 0))
