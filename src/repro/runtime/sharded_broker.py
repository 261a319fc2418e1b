"""The sharded broker: N independent engine shards behind one broker API.

:class:`ShardedBroker` is a drop-in replacement for
:class:`repro.pubsub.Broker` that partitions join subscriptions across
several independent Stage 1 + Stage 2 engines:

* **Subscriptions are partitioned** by a :class:`~repro.runtime.partition.Partitioner`
  that keeps all queries of one template (same CQT) on the same shard, so
  the paper's template sharing is preserved inside every shard.
* **Documents are routed**: by default a
  :class:`~repro.runtime.router.ShardRouter` dispatches each published
  document only to the shards hosting templates it can bind (a
  variable→shard-set inverted index maintained on subscribe/cancel);
  ``route_dispatch=False`` falls back to replicating every document to
  every shard.  Routing is a pure dispatch optimization — the match set is
  identical either way, because a document no query on a shard can bind
  produces no consumable witnesses there.
* **Shard tasks are scheduled** by a pluggable
  :class:`~repro.runtime.executor.ShardExecutor`: in the calling thread
  (``"serial"``), on a thread pool (``"threads"``), or — for true CPU
  parallelism — against engines living in long-lived worker processes
  (``"processes"``, see :mod:`repro.runtime.process`).  In the process
  runtime documents cross as pickled batches and matches return as compact
  tuples re-materialized here, so callbacks and delivery sinks always fire
  in the parent process.
* **Results are merged** in shard order: matches are unioned (shards own
  disjoint query ids, and every shard assigns the same timestamps because
  the broker stamps documents centrally before the fan-out), statistics via
  :func:`repro.core.engine.merge_engine_stats`, costs by per-phase summing.

Filter (single-block) subscriptions are evaluated once at the front end by
a shared Stage 1 evaluator, exactly like the unsharded broker.

Batched ingestion (:meth:`ShardedBroker.publish_many`) dispatches one task
per shard for a whole batch of documents — routed per document into
per-shard sub-batches — amortizing executor handoff over the batch; the
intended path for high-rate streams.

Construction goes through :class:`~repro.config.RuntimeConfig` (the blessed
entry point is :func:`repro.open_broker` with ``shards > 1``); the
historical per-knob keyword arguments still work but warn.
"""

from __future__ import annotations

import pickle
from time import perf_counter
from typing import Iterable, Optional, Sequence, Union

from repro.config import RuntimeConfig, coerce_config, metrics_enabled
from repro.core.engine import EngineStats, make_engine, merge_engine_stats
from repro.core.results import Match
from repro.metrics import MetricsRegistry, merge_snapshots
from repro.pubsub.filters import FilterFrontEnd
from repro.pubsub.stream import StreamRegistry
from repro.pubsub.subscription import Callback, Subscription, SubscriptionResult
from repro.runtime.executor import executor_env_override, make_executor
from repro.runtime.partition import make_partitioner
from repro.runtime.process import ProcessShardHandle, ShardWorkerGroup
from repro.runtime.router import ShardRouter
from repro.runtime.wire import WireBuffer, encode_document_batch
from repro.runtime.shard import EngineShard
from repro.storage import SubscriptionRecord, open_member_store, resolve_storage
from repro.storage.recovery import config_snapshot
from repro.xmlmodel.document import XmlDocument
from repro.xmlmodel.parser import parse_document
from repro.xscl.ast import XsclQuery
from repro.xscl.parser import parse_query
from repro.xscl.render import render_query


class ShardedBroker:
    """A publish/subscribe broker running N parallel engine shards.

    Parameters
    ----------
    config:
        A :class:`~repro.config.RuntimeConfig`; ``shards``, ``partitioner``,
        ``executor``, ``max_workers`` and ``route_dispatch`` select the
        runtime topology, the remaining fields configure every shard engine
        identically.  The historical keyword arguments are accepted with a
        :class:`DeprecationWarning`; purely-legacy construction keeps the
        historical default of two shards.
    """

    def __init__(self, config: Union[RuntimeConfig, str, None] = None, **legacy):
        legacy_default_shards = (
            not isinstance(config, RuntimeConfig) and legacy.get("shards") is None
        )
        config = coerce_config(config, legacy, owner="ShardedBroker")
        if legacy_default_shards:
            # Historical signature default: ShardedBroker(...) meant 2 shards.
            # Applied after coercion so a bare ShardedBroker() does not warn
            # about keyword arguments the caller never passed.
            config = config.replace(shards=2)
        config.validate_outputs()
        store_documents = config.resolve_store_documents(follow_construct_outputs=True)

        self.config = config
        self.engine_name = config.engine
        self.indexing = config.indexing
        self.construct_outputs = config.construct_outputs
        self.auto_timestamp = config.auto_timestamp
        # The broker stamps documents centrally (one clock for all shards)
        # so that every shard sees identical timestamps; per-engine
        # auto-stamping would let shard clocks drift on streams mixing
        # stamped and unstamped documents.
        shard_config = config.replace(
            auto_timestamp=False, store_documents=store_documents
        )
        # Durable storage: one registry store for the broker plus one state
        # store per shard ("memory" attaches nothing anywhere).
        self.storage, self.storage_path = resolve_storage(config)
        self._store = open_member_store(
            self.storage, self.storage_path, "broker", config.durability
        )
        executor_spec = executor_env_override(config.executor)
        self._executor = make_executor(
            executor_spec, max_workers=config.max_workers, num_shards=config.shards
        )
        self._worker_groups: list[ShardWorkerGroup] = []
        if self._executor.name == "processes":
            self.shards = self._spawn_process_shards(shard_config)
        else:
            self.shards = [
                EngineShard(
                    shard_id,
                    make_engine(
                        config=shard_config,
                        store=open_member_store(
                            self.storage,
                            self.storage_path,
                            f"shard-{shard_id}",
                            config.durability,
                        ),
                    ),
                )
                for shard_id in range(config.shards)
            ]
        # Encode-once transport (process runtime only): each published
        # document/batch is serialized exactly once into the reusable wire
        # buffer and the same bytes go to every routed shard, so transport
        # cost is O(bytes), not O(shards x pickle).
        self._wire_enabled = self._executor.name == "processes"
        self._wire_buffer = WireBuffer()
        self._transport = {
            "encodes": 0,
            "documents_encoded": 0,
            "encode_ms": 0.0,
            "wire_bytes": 0,
            "shard_sends": 0,
            "shipped_bytes": 0,
        }
        self._partitioner = make_partitioner(config.partitioner, config.shards)
        self._router = ShardRouter() if config.route_dispatch else None
        self.streams = StreamRegistry(history_size=config.stream_history)
        self._subscriptions: dict[str, Subscription] = {}
        self._shard_of: dict[str, Union[EngineShard, ProcessShardHandle]] = {}
        self._filters = FilterFrontEnd()
        self._sub_counter = 1
        self._reg_seq = 0
        self._clock_value = 0
        self._num_published = 0
        self._closed = False
        # Observability (RuntimeConfig.metrics / REPRO_METRICS): the broker
        # registry holds publish latency and delivery lag; each shard engine
        # keeps its own per-stage registry (in its worker process, for the
        # "processes" runtime) and all of them merge in stats()["metrics"].
        self.metrics = MetricsRegistry() if metrics_enabled(config) else None
        if self._store is not None:
            self._store.set_meta("config", config_snapshot(config))

    def _spawn_process_shards(self, shard_config: RuntimeConfig) -> list[ProcessShardHandle]:
        """Start the worker processes and return one handle per shard.

        The worker engines are built from the pickled shard config
        (executor and partitioner are broker-level concerns, so they are
        normalized to plain keywords first); shards are assigned to
        ``min(shards, max_workers)`` workers round-robin.
        """
        worker_config = shard_config.replace(executor="serial", partitioner="hash")
        try:
            config_bytes = pickle.dumps(worker_config)
        except Exception as exc:
            raise ValueError(
                "executor='processes' builds the shard engines in worker "
                "processes, which requires a picklable RuntimeConfig; "
                f"this one does not pickle: {exc}"
            ) from exc
        num_shards = shard_config.shards
        num_workers = min(num_shards, shard_config.max_workers or num_shards)
        assignments = [
            [s for s in range(num_shards) if s % num_workers == w]
            for w in range(num_workers)
        ]
        group_of: dict[int, ShardWorkerGroup] = {}
        try:
            for shard_ids in assignments:
                group = ShardWorkerGroup(
                    config_bytes,
                    shard_ids,
                    self.storage,
                    self.storage_path,
                    shard_config.durability,
                )
                self._worker_groups.append(group)
                for shard_id in shard_ids:
                    group_of[shard_id] = group
        except BaseException:
            for group in self._worker_groups:
                group.close()
            raise
        return [
            ProcessShardHandle(shard_id, group_of[shard_id])
            for shard_id in range(num_shards)
        ]

    # ------------------------------------------------------------------ #
    # subscriptions
    # ------------------------------------------------------------------ #
    def subscribe(
        self,
        query: Union[str, XsclQuery],
        callback: Optional[Callback] = None,
        window_symbols: Optional[dict[str, float]] = None,
        subscription_id: Optional[str] = None,
        sink=None,
    ) -> Subscription:
        """Register a subscription and return its :class:`Subscription` handle.

        Join subscriptions are placed on one engine shard by the partitioner
        (and indexed by the fan-out router, when enabled); filter
        subscriptions stay on the broker's shared front-end evaluator.
        ``sink`` attaches an additional delivery sink, as on
        :meth:`repro.pubsub.Broker.subscribe`.
        """
        if isinstance(query, str):
            query = parse_query(query, window_symbols=window_symbols)
        sid = subscription_id if subscription_id is not None else self._next_sid()
        if sid in self._subscriptions:
            raise ValueError(f"subscription id {sid!r} already exists")
        subscription = Subscription(
            subscription_id=sid,
            query=query,
            callback=callback,
            sink=sink,
            result_limit=self.config.result_limit,
        )

        if query.is_join_query:
            shard = self.shards[self._partitioner.shard_for(query)]
            shard.register(sid, query)
            self._shard_of[sid] = shard
            if self._router is not None:
                self._router.register(sid, query, shard.shard_id)
        else:
            self._filters.register(sid, subscription)
        self._subscriptions[sid] = subscription
        subscription._retract = self.cancel
        if self._store is not None:
            self._persist_subscription(sid, query)
        return subscription

    def _next_sid(self) -> str:
        sid = f"sub{self._sub_counter}"
        self._sub_counter += 1
        return sid

    def _persist_subscription(self, sid: str, query: XsclQuery) -> None:
        """Record one registration (with its shard placement) durably."""
        shard = self._shard_of.get(sid)
        self._reg_seq += 1
        self._store.save_subscription(
            SubscriptionRecord(
                seq=self._reg_seq,
                subscription_id=sid,
                query_text=render_query(query),
                kind="join" if query.is_join_query else "filter",
                shard=shard.shard_id if shard is not None else None,
            )
        )
        self._store.set_meta("sub_counter", self._sub_counter)

    def _restore_subscription(self, record, query: XsclQuery) -> Subscription:
        """Re-register one persisted subscription on its *recorded* shard.

        Documents are partitioned by the router but subscriptions by the
        partitioner, so each shard's persisted join state reflects the
        queries it owned; replay must honor the recorded placement rather
        than re-running the partitioner (a load-sensitive strategy could
        choose differently after churn).  The partitioner's template map
        and load accounting are restored alongside, so post-recovery
        placements stay cohesive — and the router is rebuilt through the
        same indexing path as a live subscribe.
        """
        subscription = Subscription(
            subscription_id=record.subscription_id,
            query=query,
            result_limit=self.config.result_limit,
        )
        if query.is_join_query:
            shard = self.shards[record.shard]
            self._partitioner.restore_assignment(query, record.shard)
            shard.register(record.subscription_id, query)
            self._shard_of[record.subscription_id] = shard
            if self._router is not None:
                self._router.register(record.subscription_id, query, shard.shard_id)
        else:
            self._filters.register(record.subscription_id, subscription)
        self._subscriptions[record.subscription_id] = subscription
        subscription._retract = self.cancel
        return subscription

    def cancel(self, subscription_id: str) -> bool:
        """Retract a subscription from its owning shard and reclaim state.

        Same contract as :meth:`repro.pubsub.Broker.cancel`: the engine-side
        query registration (templates, relevance postings, compiled plans,
        reclaimable join state) disappears from the owning shard, the
        router's postings disappear (so retracted templates stop attracting
        documents), the partitioner's load accounting is released, and the
        handle is kept (cancelled) so the id is never silently reused.
        """
        subscription = self._subscriptions.get(subscription_id)
        if subscription is None or subscription.cancelled:
            return False
        shard = self._shard_of.pop(subscription_id, None)
        if shard is not None:
            shard.deregister(subscription_id)
            self._partitioner.release(subscription.query)
            if self._router is not None:
                self._router.cancel(subscription_id)
        else:
            self._filters.cancel(subscription_id)
        subscription._mark_cancelled()
        if self._store is not None:
            self._store.remove_subscription(subscription_id)
        return True

    def unsubscribe(self, subscription_id: str) -> None:
        """Retract a subscription (alias of :meth:`cancel`; see :meth:`mute`)."""
        self.cancel(subscription_id)

    def mute(self, subscription_id: str) -> None:
        """Deactivate a subscription without retracting it (old ``unsubscribe``)."""
        subscription = self._subscriptions.get(subscription_id)
        if subscription is not None:
            subscription.pause()

    def subscription(self, subscription_id: str) -> Subscription:
        """Return a subscription handle by id."""
        return self._subscriptions[subscription_id]

    @property
    def subscriptions(self) -> list[Subscription]:
        """All subscriptions (cancelled ones included), in registration order."""
        return list(self._subscriptions.values())

    @property
    def num_shards(self) -> int:
        """Number of engine shards."""
        return len(self.shards)

    def shard_of(self, subscription_id: str) -> Optional[int]:
        """The shard id owning a join subscription (``None`` for filters)."""
        shard = self._shard_of.get(subscription_id)
        return shard.shard_id if shard is not None else None

    # ------------------------------------------------------------------ #
    # publishing
    # ------------------------------------------------------------------ #
    def _dispatch_targets(self, document: XmlDocument, candidates: list) -> list:
        """The shards one document must reach (routing, when enabled).

        ``candidates`` are the shards with at least one subscription (an
        empty shard skips processing regardless — Stage 1 witnesses are
        computed at arrival time, so a document processed before a query
        registers can never join with it).
        """
        if self._router is None:
            return candidates
        relevant = self._router.route(document)
        targets = [shard for shard in candidates if shard.shard_id in relevant]
        self._router.account(len(targets), len(candidates))
        return targets

    def publish(
        self,
        document: Union[str, XmlDocument],
        timestamp: Optional[float] = None,
        stream: Optional[str] = None,
    ) -> list[SubscriptionResult]:
        """Publish one document and deliver all resulting matches.

        The direct single-document path: one ``process_one`` task per
        routed shard, skipping the batch assembly, per-batch hooks and
        per-document result nesting that :meth:`publish_many` pays — the
        latency path for interactive publishes, while high-rate streams
        should batch through :meth:`publish_many`.
        """
        document = self._prepare(document, timestamp, stream)
        self._persist_clock()
        candidates = [shard for shard in self.shards if shard.qids]
        targets = self._dispatch_targets(document, candidates)
        if self._wire_enabled and targets:
            per_shard = self._invoke_wire(
                [(shard, None) for shard in targets], [document], "wire_one"
            )
        else:
            per_shard = self._executor.invoke(
                [(shard, "process_one", (document,)) for shard in targets]
            )
        filter_results = list(self._filters.deliver(document))
        deliveries: list[SubscriptionResult] = list(filter_results)
        metrics = self.metrics
        stamp = document.publish_stamp if metrics is not None else None
        self._record_filter_lag(filter_results, stamp)
        for matches in per_shard:
            deliveries.extend(self._deliver_matches(matches, stamp))
        if metrics is not None:
            metrics.histogram("publish_latency").record(perf_counter() - stamp)
            metrics.counter("documents_published").inc()
            metrics.counter("results_delivered").inc(len(deliveries))
        return deliveries

    def publish_many(
        self,
        documents: Iterable[Union[str, XmlDocument]],
        timestamp: Optional[float] = None,
        stream: Optional[str] = None,
    ) -> list[SubscriptionResult]:
        """Publish a batch of documents with one fan-out per shard.

        The whole batch is prepared (parsed, stamped, recorded on its
        streams) up front and routed per document into per-shard
        sub-batches; each shard then processes its sub-batch in one task,
        so the per-document dispatch overhead is paid once per batch per
        shard.  Deliveries are returned in arrival order (per document:
        filter deliveries first, then join matches in shard order).
        """
        batch = [self._prepare(document, timestamp, stream) for document in documents]
        if not batch:
            return []
        self._persist_clock()

        candidates = [shard for shard in self.shards if shard.qids]
        if self._router is None:
            assignments = [(shard, range(len(batch))) for shard in candidates]
        else:
            indices: dict[int, list[int]] = {
                shard.shard_id: [] for shard in candidates
            }
            for index, document in enumerate(batch):
                targets = self._dispatch_targets(document, candidates)
                for shard in targets:
                    indices[shard.shard_id].append(index)
            assignments = [
                (shard, indices[shard.shard_id])
                for shard in candidates
                if indices[shard.shard_id]
            ]
        if self._wire_enabled and assignments:
            # One encode for the whole batch; each shard names its document
            # selection as indices into the shared payload (None = all).
            per_call = self._invoke_wire(
                [
                    (
                        shard,
                        None
                        if len(doc_indices) == len(batch)
                        else list(doc_indices),
                    )
                    for shard, doc_indices in assignments
                ],
                batch,
                "wire_batch",
            )
        else:
            calls = []
            for shard, doc_indices in assignments:
                sub_batch = (
                    batch
                    if len(doc_indices) == len(batch)
                    else [batch[i] for i in doc_indices]
                )
                calls.append((shard, "process_batch", (sub_batch,)))
            per_call = self._executor.invoke(calls)

        # Scatter the per-sub-batch results back to per-document, keeping
        # shard order within each document (``assignments`` iterates
        # ``candidates``, which preserves shard order).
        matches_by_doc: list[list[Match]] = [[] for _ in batch]
        for (shard, doc_indices), rows in zip(assignments, per_call):
            for index, matches in zip(doc_indices, rows):
                matches_by_doc[index].extend(matches)

        # Filters are evaluated in the merge loop (they do not depend on the
        # shard results) so subscriber callbacks fire in the same per-document
        # order as the unsharded broker: filters for document i, then its
        # join matches, then document i+1.
        deliveries: list[SubscriptionResult] = []
        metrics = self.metrics
        for index, document in enumerate(batch):
            filter_results = self._filters.deliver(document)
            deliveries.extend(filter_results)
            if metrics is None:
                deliveries.extend(self._deliver_matches(matches_by_doc[index]))
            else:
                stamp = document.publish_stamp
                self._record_filter_lag(filter_results, stamp)
                deliveries.extend(
                    self._deliver_matches(matches_by_doc[index], stamp)
                )
        if metrics is not None:
            metrics.histogram("publish_batch_latency").record(
                perf_counter() - batch[0].publish_stamp
            )
            metrics.counter("documents_published").inc(len(batch))
            metrics.counter("results_delivered").inc(len(deliveries))
        return deliveries

    def publish_stream(
        self, documents: Iterable[Union[str, XmlDocument]]
    ) -> list[SubscriptionResult]:
        """Publish a sequence of documents (batched); returns all deliveries."""
        return self.publish_many(documents)

    def _invoke_wire(self, assignments, batch: Sequence[XmlDocument], method: str):
        """Encode ``batch`` once and fan the same bytes out to every shard.

        ``assignments`` pairs each target shard with its document selection
        (indices into the batch, or ``None`` for all).  The payload is a
        view into the reusable wire buffer, released once every send has
        been written.
        """
        transport = self._transport
        start = perf_counter()
        payload = self._wire_buffer.pack(encode_document_batch(batch))
        transport["encodes"] += 1
        transport["documents_encoded"] += len(batch)
        transport["encode_ms"] += (perf_counter() - start) * 1000.0
        transport["wire_bytes"] += len(payload)
        transport["shard_sends"] += len(assignments)
        transport["shipped_bytes"] += len(payload) * len(assignments)
        try:
            return self._executor.invoke(
                [(shard, method, (indices, payload)) for shard, indices in assignments]
            )
        finally:
            payload.release()

    def _prepare(
        self,
        document: Union[str, XmlDocument],
        timestamp: Optional[float],
        stream: Optional[str],
    ) -> XmlDocument:
        if isinstance(document, str):
            document = parse_document(document)
        if self.metrics is not None:
            document.publish_stamp = perf_counter()
        if stream is not None:
            document.stream = stream
        if timestamp is not None:
            document.timestamp = float(timestamp)
        elif self.auto_timestamp and document.timestamp == 0.0:
            self._clock_value += 1
            document.timestamp = float(self._clock_value)
        self.streams.get_or_create(document.stream).record(document)
        self._num_published += 1
        return document

    def _persist_clock(self) -> None:
        """Persist the central timestamp clock (once per publish call).

        Stamps must keep increasing across a restart — a recovered clock
        behind the persisted state would assign duplicate timestamps and
        break window semantics.
        """
        if self._store is not None:
            self._store.set_meta("clock", self._clock_value)
            self._store.set_meta("num_published", self._num_published)

    def _deliver_matches(
        self, matches: Sequence[Match], publish_stamp: Optional[float] = None
    ) -> list[SubscriptionResult]:
        metrics = self.metrics
        deliveries: list[SubscriptionResult] = []
        for match in matches:
            subscription = self._subscriptions.get(match.qid)
            if subscription is None or not subscription.active:
                continue
            output = self.output_document(match) if self.construct_outputs else None
            result = SubscriptionResult(
                subscription_id=match.qid, match=match, output=output
            )
            subscription.deliver(result)
            deliveries.append(result)
            if metrics is not None:
                # Matches decoded from a worker process carry the stamp the
                # parent put on the outbound document; locally-processed
                # matches fall back to the per-call stamp.
                stamp = match.publish_stamp or publish_stamp
                if stamp is not None:
                    metrics.record_delivery_lag(match.qid, perf_counter() - stamp)
        return deliveries

    def _record_filter_lag(self, results, stamp) -> None:
        """Record delivery lag for one document's filter-path deliveries."""
        if stamp is None or not results:
            return
        now = perf_counter()
        for result in results:
            self.metrics.record_delivery_lag(result.subscription_id, now - stamp)

    def output_document(self, match: Match) -> XmlDocument:
        """Construct the output XML document of a match (on its owning shard)."""
        shard = self._shard_of.get(match.qid)
        if shard is None:
            raise KeyError(f"no shard owns query id {match.qid!r}")
        return shard.output_document(match)

    # ------------------------------------------------------------------ #
    # state management and stats
    # ------------------------------------------------------------------ #
    def prune(self, min_timestamp: float) -> int:
        """Prune every shard's join state; returns total documents removed.

        (Per shard, not distinct documents: a document surviving on one
        shard and removed on another counts once.)
        """
        return sum(shard.prune(min_timestamp) for shard in self.shards)

    def merged_engine_stats(self) -> EngineStats:
        """All shards' engine statistics merged into one."""
        return merge_engine_stats([shard.stats() for shard in self.shards])

    def transport_stats(self) -> dict:
        """Encode-once transport counters (broker side + merged workers).

        Broker side: ``encodes`` / ``documents_encoded`` / ``encode_ms``
        count each batch's single serialization, ``wire_bytes`` the encoded
        payload bytes, and ``shard_sends`` / ``shipped_bytes`` the fan-out
        (same bytes written once per routed shard).  Worker side (summed
        across workers, like ``stats()["routing"]``): ``payload_loads`` /
        ``payload_bytes`` count received frames and ``decodes`` /
        ``decode_ms`` the actual decodes — fewer than the loads whenever
        co-hosted shards shared one payload.  All zero outside the process
        runtime.
        """
        merged = dict(self._transport)
        merged.update(
            {"decodes": 0, "decode_ms": 0.0, "payload_loads": 0, "payload_bytes": 0}
        )
        for group in self._worker_groups:
            worker = group.call(group.shard_ids[0], "transport")
            for key, value in worker.items():
                merged[key] += value
        merged["encode_ms"] = round(merged["encode_ms"], 3)
        merged["decode_ms"] = round(merged["decode_ms"], 3)
        return merged

    def stats(self) -> dict:
        """Broker statistics: streams, subscriptions, routing, merged + per-shard engines."""
        per_shard = [shard.stats() for shard in self.shards]
        merged = merge_engine_stats(per_shard)
        return {
            "engine": self.engine_name,
            "indexing": self.indexing,
            "storage": self.storage,
            "shards": self.num_shards,
            "executor": self._executor.name,
            "workers": len(self._worker_groups) or None,
            "streams": self.streams.stats(),
            "num_subscriptions": len(self._subscriptions),
            "num_filter_subscriptions": self._filters.num_subscriptions,
            "num_cancelled_subscriptions": sum(
                1 for s in self._subscriptions.values() if s.cancelled
            ),
            "num_documents_published": self._num_published,
            "routing": self._router.stats() if self._router is not None else None,
            "transport": self.transport_stats(),
            "columnar": merged.columnar,
            "delta": merged.delta,
            "engine_stats": merged.__dict__,
            "per_shard": [
                {"shard": shard.shard_id, **stats.__dict__}
                for shard, stats in zip(self.shards, per_shard)
            ],
            "partition": self._partitioner.stats(),
            "metrics": self.metrics_snapshot(),
        }

    def metrics_snapshot(self) -> Optional[dict]:
        """Merged metrics snapshot (broker + every shard), or ``None`` when off.

        In the ``"processes"`` runtime each shard's snapshot is fetched from
        its worker over the control pipe; all snapshots merge into one view
        with the broker's own publish-latency and delivery-lag series.
        """
        if self.metrics is None:
            return None
        snapshots = [self.metrics.snapshot()]
        snapshots.extend(shard.metrics_snapshot() for shard in self.shards)
        return merge_snapshots(snapshots)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """End the session (idempotent): sinks, shards, workers, registry, executor.

        Every subscription's sinks are flushed and closed (a
        :class:`~repro.pubsub.sinks.BatchingSink` holding a partial batch
        delivers it here); one sink raising does not prevent the remaining
        subscriptions, shards, workers or stores from closing — the first
        error is re-raised once cleanup completes.
        """
        if self._closed:
            return
        self._closed = True
        first_error: Optional[BaseException] = None
        for subscription in self._subscriptions.values():
            try:
                subscription.close_sinks()
            except BaseException as exc:  # noqa: BLE001 - must keep closing
                if first_error is None:
                    first_error = exc
        for shard in self.shards:
            shard.close()
        for group in self._worker_groups:
            group.close()
        if self._store is not None:
            self._store.close()
        self._executor.close()
        if first_error is not None:
            raise first_error

    def __enter__(self) -> "ShardedBroker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<ShardedBroker engine={self.engine_name!r} shards={self.num_shards} "
            f"executor={self._executor.name!r} "
            f"subscriptions={len(self._subscriptions)}>"
        )
