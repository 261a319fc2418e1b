"""The XML publish/subscribe broker: one session class for every topology.

The broker is the message-broker front end the paper's introduction
motivates: it accepts subscriptions (XSCL queries) and incoming XML
documents, and delivers matches to subscribers.

* **Join (inter-document) subscriptions** go to the Stage 2 engines — MMQJP
  by default, MMQJP with view materialization, or the sequential baseline —
  selected through :class:`~repro.config.RuntimeConfig`.  The broker drives
  ``config.shards`` engine shards: :class:`~repro.runtime.shard.EngineShard`
  objects in process, called in a loop, or, for ``executor="processes"``,
  one :class:`~repro.runtime.process.ProcessShardHandle` per worker process,
  driven through :class:`~repro.runtime.executor.ProcessExecutor`.
* **Filter (single-block) subscriptions** (``SELECT * FROM blog`` or a lone
  query block) are evaluated once, centrally, by the shared Stage 1
  evaluator of :class:`~repro.pubsub.filters.FilterFrontEnd`, like a classic
  XPath pub/sub system.

What differs by topology is derived from the config:

* With **one in-process shard** there is nothing to place or route: no
  partitioner, no router, no subscription → shard map; ``broker.engine`` is
  that shard's engine, and a publish is one call into it.
* With **several shards**, subscriptions are placed by a
  :class:`~repro.runtime.partition.Partitioner` that keeps all queries of
  one template (same CQT) on the same shard, so the paper's template sharing
  survives inside every shard, and puts a new template on the least-loaded
  shard; by default a
  :class:`~repro.runtime.router.ShardRouter` dispatches each document only
  to the shards hosting templates it can bind (``route_dispatch=False``
  replicates to every shard; the match set is identical either way).
* With **process shards** each published document or batch is encoded once
  and the same bytes go to every routed shard; matches return as compact
  tuples re-materialized here, so callbacks and delivery sinks always fire
  in the parent process.

Whatever the topology, a publish takes one path: the broker stamps the
document from one central clock and gives it its docid (shard engines never
auto-stamp, so every shard sees the same timestamp and docid), routes,
persists the clock, dispatches, records it on its stream and delivers.
What crosses every boundary — to the engines, the router, the filter front
end and the process wire — is the ``(text, docid, timestamp, stream)``
record: Stage 1 scans the text, and a tree is parsed only where one is kept
or delivered (``store_documents``, once per document for all in-process
shards; a filter match; ``Stream.history``).  Every record is scanned
before any engine folds one, so a malformed publish changes nothing.
Results are merged in shard order: matches are unioned (shards own disjoint
query ids), statistics via :func:`repro.core.engine.merge_engine_stats`.

The blessed construction path is :func:`repro.open_broker`.
"""

from __future__ import annotations

import pickle
import sys
from itertools import chain
from time import perf_counter
from typing import Hashable, Iterable, NamedTuple, Optional, Sequence, Union

from repro.config import RuntimeConfig, as_config
from repro.core.engine import ENGINES, EngineStats, make_engine, merge_engine_stats
from repro.core.results import Match
from repro.metrics import MetricsRegistry, merge_snapshots
from repro.pubsub.filters import FilterFrontEnd, deliver_filter_matches
from repro.pubsub.stream import StreamRegistry
from repro.pubsub.subscription import Callback, Subscription, SubscriptionResult
from repro.runtime.executor import ProcessExecutor
from repro.runtime.partition import Partitioner, template_key
from repro.runtime.process import ProcessShardHandle
from repro.runtime.router import RoutedQuery, ShardRouter
from repro.runtime.shard import EngineShard
from repro.runtime.wire import WireBuffer, encode_document_batch
from repro.storage import SubscriptionRecord, open_member_store, resolve_storage
from repro.storage.recovery import config_snapshot
from repro.templates.template import reduced_graph_signature
from repro.xmlmodel.document import XmlDocument, _next_docid
from repro.xmlmodel.parser import XmlParseError, parse_document
from repro.xmlmodel.serialize import to_xml
from repro.xmlmodel.stream import validate_text
from repro.xscl.ast import XsclQuery
from repro.xscl.memo import TextMemo
from repro.xscl.parser import parse_query
from repro.xscl.render import render_query

__all__ = ["Broker", "ENGINES", "deliver_filter_matches"]


class _ParsedText(NamedTuple):
    """One subscription text parsed; shared by its live subscriptions, never mutated."""

    key: Optional[Hashable]  # its key in Broker.texts (None: an AST was subscribed)
    query: XsclQuery
    rendered: Optional[str]  # what the store persists (None without a store)
    # Sharded join queries only: the partitioner's key and the router's form.
    template_key: Optional[tuple] = None
    routed: Optional[RoutedQuery] = None


class Broker:
    """An XML publish/subscribe broker supporting inter-document join queries.

    Parameters
    ----------
    config:
        A :class:`~repro.config.RuntimeConfig` (or an engine-name string as
        shorthand for ``RuntimeConfig(engine=...)``).  ``shards``,
        ``executor`` and ``route_dispatch`` select the runtime topology;
        the remaining fields configure every shard engine identically.
    """

    def __init__(self, config: Union[RuntimeConfig, str, None] = None):
        config = as_config(config, "Broker")
        config.validate_outputs()
        self.config = config
        self.engine_name = config.engine
        self.construct_outputs = config.construct_outputs
        self.auto_timestamp = config.auto_timestamp
        # The broker stamps documents centrally (one clock for all shards)
        # so that every shard sees identical timestamps; per-engine
        # auto-stamping would let shard clocks drift on streams mixing
        # stamped and unstamped documents.
        shard_config = config.replace(
            auto_timestamp=False, store_documents=config.resolve_store_documents()
        )
        # Durable storage: one registry store for the broker plus one state
        # store per shard ("memory" attaches nothing anywhere).
        self.storage, self.storage_path = resolve_storage(config)
        self._store = open_member_store(self.storage, self.storage_path, "broker")
        sharded = config.is_sharded
        # Encode-once transport (process runtime only): each published
        # document/batch is serialized exactly once into the reusable wire
        # buffer and the same bytes go to every routed shard, so transport
        # cost is O(bytes), not O(shards x pickle).
        self._wire_enabled = config.executor == "processes"
        self._executor = ProcessExecutor() if self._wire_enabled else None
        # In-process shards keeping documents share one tree per document.
        self._keeps_trees = shard_config.store_documents and not self._wire_enabled
        self._wire_buffer = WireBuffer()
        self._transport = {
            "encodes": 0,
            "documents_encoded": 0,
            "encode_ms": 0.0,
            "wire_bytes": 0,
            "shard_sends": 0,
            "shipped_bytes": 0,
        }
        if self._wire_enabled:
            self.shards = self._spawn_process_shards(shard_config)
        else:
            self.shards = [
                EngineShard(
                    shard_id,
                    make_engine(
                        shard_config,
                        store=open_member_store(
                            self.storage, self.storage_path, f"shard-{shard_id}"
                        ),
                    ),
                )
                for shard_id in range(config.shards)
            ]
            # Lazy match materialization: a join match whose subscription
            # is missing, cancelled or paused is dropped by _deliver_matches
            # anyway, so the processors skip building the Match object at
            # all (such matches never count toward num_matches).
            for shard in self.shards:
                shard.engine.set_match_filter(self._match_deliverable)
        #: The engine of the one in-process shard; ``None`` in any other topology.
        self.engine = None if sharded or self._wire_enabled else self.shards[0].engine
        self._partitioner = Partitioner(config.shards) if sharded else None
        self._router = ShardRouter() if sharded and config.route_dispatch else None
        self._shard_of: Optional[dict[str, Union[EngineShard, ProcessShardHandle]]] = (
            {} if sharded else None
        )
        self.streams = StreamRegistry(history_size=config.stream_history)
        self._subscriptions: dict[str, Subscription] = {}
        # Parsed subscription texts, held by their live subscriptions
        # (sid -> the key it holds); see _parse.
        self.texts: TextMemo[_ParsedText] = TextMemo()
        self._text_of: dict[str, Hashable] = {}
        self._filters = FilterFrontEnd()
        self._sub_counter = 1
        self._reg_seq = 0
        self._newest_sid: Optional[str] = None  # the last persisted subscription
        self._clock_value = 0
        self._num_published = 0
        self._closed = False
        # Observability (RuntimeConfig.metrics): the broker
        # registry holds publish latency and delivery lag; each shard engine
        # keeps its own per-stage registry (in its worker process, for the
        # "processes" runtime) and all of them merge in stats()["metrics"].
        self.metrics = MetricsRegistry() if config.metrics else None
        if self._store is not None:
            self._store.set_meta("config", config_snapshot(config))

    def _spawn_process_shards(self, shard_config: RuntimeConfig) -> list[ProcessShardHandle]:
        """Start one worker process per shard and return their handles.

        The worker engines are built from the pickled shard config (the
        executor is a broker-level concern, so the workers see ``"serial"``).
        """
        config_bytes = pickle.dumps(shard_config.replace(executor="serial"))
        handles: list[ProcessShardHandle] = []
        try:
            for shard_id in range(shard_config.shards):
                handles.append(
                    ProcessShardHandle(shard_id, config_bytes, self.storage, self.storage_path)
                )
        except BaseException:
            for handle in handles:
                handle.close()
            raise
        return handles

    def _match_deliverable(self, qid: str) -> bool:
        """Whether matches of ``qid`` could currently be delivered."""
        subscription = self._subscriptions.get(qid)
        return subscription is not None and subscription.active

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

        Join subscriptions are placed on one engine shard (by the
        partitioner, and indexed by the fan-out router, when there is more
        than one); filter subscriptions stay on the broker's shared
        front-end evaluator.  ``sink`` attaches a
        :class:`~repro.pubsub.sinks.DeliverySink` receiving every result (in
        addition to the legacy bounded ``results`` collection and the
        optional ``callback``).
        """
        if isinstance(query, str):
            parsed = self._parse(query, window_symbols)
        else:
            parsed = self._parsed(None, query)
        query = parsed.query
        if subscription_id is None:
            subscription_id = f"sub{self._sub_counter}"
            self._sub_counter += 1
        if subscription_id in self._subscriptions:
            raise ValueError(f"subscription id {subscription_id!r} already exists")
        subscription = self._register(subscription_id, parsed, callback, sink)
        if self._store is not None:
            # ``seq`` preserves the registration order recovery replays in.
            self._reg_seq += 1
            self._store.save_subscription(
                SubscriptionRecord(
                    seq=self._reg_seq,
                    subscription_id=subscription_id,
                    query_text=parsed.rendered,
                    kind="join" if query.is_join_query else "filter",
                    shard=self.shard_of(subscription_id),
                    id_counter=self._sub_counter,
                )
            )
            self._newest_sid = subscription_id
        return subscription

    def _parse(
        self, text: str, window_symbols: Optional[dict[str, float]] = None
    ) -> _ParsedText:
        """A subscription text parsed — from :attr:`texts` while a live subscription holds it.

        The key is the text, with the window-symbol table when one is given
        (the same text can then parse to different windows).
        """
        key = text if not window_symbols else (text, frozenset(window_symbols.items()))
        parsed = self.texts.get(key)
        if parsed is None:
            parsed = self._parsed(key, parse_query(text, window_symbols=window_symbols))
        return parsed

    def _parsed(self, key: Optional[Hashable], query: XsclQuery) -> _ParsedText:
        # The query is persisted as rendered text (windows numeric, so no
        # window-symbol table is needed to replay it).
        rendered = None if self._store is None else render_query(query)
        if self._partitioner is None or not query.is_join_query:
            return _ParsedText(key, query, rendered)
        # What placing and routing need is derived here, once per distinct
        # text: the key is invariant under the router's renaming, so its
        # reduced graph serves both.
        if self._router is None:
            return _ParsedText(key, query, rendered, template_key(query))
        routed = self._router.derive(query)
        return _ParsedText(
            key, query, rendered, reduced_graph_signature(routed.reduced), routed
        )

    def _register(
        self,
        sid: str,
        parsed: _ParsedText,
        callback: Optional[Callback] = None,
        sink=None,
        recorded_shard: Optional[int] = None,
    ) -> Subscription:
        """Create one subscription and register it where it is evaluated.

        The one registration path of live ``subscribe`` and of recovery
        replay, so engine templates, Stage 1 registrations, plans,
        relevance postings and the router rebuild exactly as they were
        built.  Replay passes the ``recorded_shard``: each shard's persisted
        join state reflects the queries it owned, so a join subscription
        must return to its recorded placement rather than re-run the
        partitioner (its load-sensitive rule could choose differently
        after churn); the partitioner's template map and load accounting
        are restored alongside, so later placements stay cohesive.
        Callbacks and sinks are process-local and cannot be recovered;
        subscribers re-attach via ``broker.subscription(sid)``.  A parsed
        text is held in :attr:`texts` by the subscription until it is
        cancelled.
        """
        query = parsed.query
        subscription = Subscription(
            subscription_id=sid,
            query=query,
            callback=callback,
            sink=sink,
            result_limit=self.config.result_limit,
        )
        if not query.is_join_query:
            self._filters.register(sid, subscription)
        elif self._partitioner is None:
            self.shards[0].register(sid, query)
        else:
            if recorded_shard is None:
                shard_id = self._partitioner.shard_for(query, parsed.template_key)
            else:
                self._partitioner.restore_assignment(
                    query, recorded_shard, parsed.template_key
                )
                shard_id = recorded_shard
            shard = self.shards[shard_id]
            shard.register(sid, query)
            self._shard_of[sid] = shard
            if self._router is not None:
                self._router.register(sid, query, shard_id, parsed.routed)
        self._subscriptions[sid] = subscription
        subscription._retract = self.cancel
        if parsed.key is not None:
            self.texts.hold(parsed.key, parsed)
            self._text_of[sid] = parsed.key
        return subscription

    def cancel(self, subscription_id: str) -> bool:
        """Retract a subscription: deregister its query and reclaim state.

        Join subscriptions are deregistered from the owning shard's engine
        (template ``RT`` tuple, relevance postings, compiled plans and
        reclaimable join-state rows included — see
        :meth:`repro.core.engine._BaseEngine.deregister_query`), the
        router's postings disappear (so retracted templates stop attracting
        documents) and the partitioner's load accounting is released;
        filter subscriptions release their pattern registrations.  The
        subscription handle is kept (cancelled) so its id is never silently
        reused; its sinks are flushed and closed.  Returns ``True`` if this
        call performed the cancellation.
        """
        subscription = self._subscriptions.get(subscription_id)
        if subscription is None or subscription.cancelled:
            return False
        if not self._filters.cancel(subscription_id):
            if self._partitioner is None:
                self.shards[0].deregister(subscription_id)
            else:
                shard = self._shard_of.pop(subscription_id)
                shard.deregister(subscription_id)
                self._partitioner.release(shard.shard_id)
                if self._router is not None:
                    self._router.cancel(subscription_id)
        subscription._mark_cancelled()
        key = self._text_of.pop(subscription_id, None)
        if key is not None:
            self.texts.release(key)
        if self._store is not None:
            # The newest record is the one whose id_counter is the live
            # counter; removing it keeps the counter in the same write.
            newest = subscription_id == self._newest_sid
            self._store.remove_subscription(
                subscription_id, self._sub_counter if newest else None
            )
            if newest:
                self._newest_sid = None
        return True

    def unsubscribe(self, subscription_id: str) -> None:
        """Retract a subscription (alias of :meth:`cancel`).

        Historically this only muted deliveries while the query kept
        consuming processing time and state; that behavior is now
        :meth:`mute`.
        """
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
        """The shard id owning a live join subscription (``None`` otherwise)."""
        if self._shard_of is not None:
            shard = self._shard_of.get(subscription_id)
            return shard.shard_id if shard is not None else None
        subscription = self._subscriptions.get(subscription_id)
        live_join = (
            subscription is not None
            and not subscription.cancelled
            and subscription.is_join_subscription
        )
        return 0 if live_join else None

    # ------------------------------------------------------------------ #
    # publishing
    # ------------------------------------------------------------------ #
    def _stamp(self, timestamp: float) -> float:
        """Count one published document; draw on the central clock if unstamped."""
        self._num_published += 1
        if self.auto_timestamp and timestamp == 0.0:
            self._clock_value += 1
            return float(self._clock_value)
        return timestamp

    def _prepare(
        self,
        document: Union[str, XmlDocument],
        timestamp: Optional[float],
        stream: Optional[str],
    ) -> tuple[tuple, Optional[XmlDocument]]:
        """Stamp one incoming document.

        Returns the ``(text, docid, timestamp, stream)`` record every shard,
        the router, the filter front end and the wire take, and the
        published tree (``None`` for text).  Text draws its docid here,
        once, so every shard sees the same one; a tree keeps its own, is
        serialized once and stamped in place.
        """
        if isinstance(document, str):
            text = document
            docid = _next_docid()
            name = stream if stream is not None else "S"
            carried = 0.0
            tree = None
        else:
            tree = document
            text = to_xml(document, pretty=False)
            docid = document.docid
            name = document.stream = stream if stream is not None else document.stream
            carried = document.timestamp
        stamped = self._stamp(float(timestamp) if timestamp is not None else carried)
        if tree is not None:
            tree.timestamp = stamped
        record = (text, sys.intern(docid) if type(docid) is str else docid, stamped, name)
        return record, tree

    def _persist_clock(self) -> None:
        """Persist the central clock: one meta write per publish call.

        Stamps must keep increasing across a restart — a recovered clock
        behind the persisted state would assign duplicate timestamps and
        break window semantics.
        """
        if self._store is not None:
            self._store.set_meta("clock", [self._clock_value, self._num_published])

    def _process(
        self,
        documents: Sequence[Union[str, XmlDocument]],
        timestamp: Optional[float],
        stream: Optional[str],
        publish_stamp: Optional[float],
        method: str,
    ) -> tuple[list, list, list, list]:
        """Stamp, route and process ``documents``; all or nothing.

        Returns ``(records, trees, assignments, results)``: ``trees`` holds
        each record's published or shared parsed tree (``None`` when nothing
        keeps one), ``assignments`` is :meth:`_assign`'s output and
        ``results`` :meth:`_dispatch`'s.  Every record is scanned before any
        engine folds one, so malformed text raises with the join state,
        the streams and the central clock (rewound) as they were; only
        processed records are recorded on their streams.
        """
        clock = (self._clock_value, self._num_published)
        try:
            records: list[tuple] = []
            trees: list[Optional[XmlDocument]] = []
            for document in documents:
                record, tree = self._prepare(document, timestamp, stream)
                records.append(record)
                trees.append(tree)
            assignments = self._assign(records)
            self._parse_kept(assignments, records, trees)
            self._persist_clock()
            results = self._dispatch(assignments, records, trees, publish_stamp, method)
        except XmlParseError:
            self._clock_value, self._num_published = clock
            self._persist_clock()
            raise
        streams = self.streams
        for record in records:
            streams.get_or_create(record[3]).record(record)
        return records, trees, assignments, results

    def _assign(self, records: Sequence[tuple]) -> list:
        """Pair each shard a batch must reach with its selection of ``records``.

        Only shards with at least one subscription are candidates (an empty
        shard skips processing regardless — Stage 1 witnesses are computed
        at arrival time, so a document processed before a query registers
        can never join with it, and would only accumulate dead ``RdocTS``
        state).  With routing, each record goes only to the shards hosting
        a query it can bind; a selection is a list of indices into
        ``records``, or ``None`` for all of them.

        Every record is scanned before any engine folds one: by the router,
        else by every shard it reaches (an engine scans a whole batch
        before folding any of it), else — no shard to reach — by
        ``validate_text`` here.  Malformed input is therefore rejected
        before anything changes, in every topology.
        """
        router = self._router
        if router is None:
            assignments = [(shard, None) for shard in self.shards if shard.num_queries]
            if not assignments:
                for record in records:
                    validate_text(record[0])
            return assignments
        candidates = [shard for shard in self.shards if shard.num_queries]
        indices: dict[int, list[int]] = {shard.shard_id: [] for shard in candidates}
        for index, record in enumerate(records):
            relevant = router.route(record)
            targets = [shard for shard in candidates if shard.shard_id in relevant]
            router.account(len(targets), len(candidates))
            for shard in targets:
                indices[shard.shard_id].append(index)
        return [
            (shard, None if len(routed) == len(records) else routed)
            for shard in candidates
            if (routed := indices[shard.shard_id])
        ]

    def _parse_kept(self, assignments: list, records: Sequence[tuple], trees: list) -> None:
        """Parse, in ``trees``, each text an in-process shard keeps a tree of.

        With ``store_documents`` every engine a record reaches keeps its
        tree: one parse here (none for a published tree) is shared by those
        engines and the filter front end.  Process shards parse in their
        workers.
        """
        if not self._keeps_trees or not assignments:
            return
        selections = [selection for _, selection in assignments]
        if None in selections:
            reached = range(len(records))
        else:
            reached = set(chain.from_iterable(selections))
        for index in reached:
            if trees[index] is None:
                trees[index] = parse_document(*records[index])

    def _dispatch(
        self,
        assignments: list,
        records: Sequence[tuple],
        trees: Sequence[Optional[XmlDocument]],
        publish_stamp: Optional[float],
        method: str,
    ) -> list:
        """Run ``process_one`` / ``process_batch`` once per assigned shard.

        ``assignments`` is :meth:`_assign`'s output; results come back in
        assignment order.  In-process shards are called one after another.
        Process shards get the batch as one encoded payload: encoded once,
        the same bytes fanned out to every shard, through a view into the
        reusable wire buffer that is released once every send has been
        written.
        """
        if not assignments:
            return []
        if not self._wire_enabled:
            if method == "process_one":
                return [shard.process_one(records[0], trees[0]) for shard, _ in assignments]
            return [
                shard.process_batch(records, trees)
                if indices is None
                else shard.process_batch(
                    [records[i] for i in indices], [trees[i] for i in indices]
                )
                for shard, indices in assignments
            ]
        method = "wire_one" if method == "process_one" else "wire_batch"
        transport = self._transport
        start = perf_counter()
        payload = self._wire_buffer.pack(
            encode_document_batch(records, [publish_stamp] * len(records))
        )
        transport["encodes"] += 1
        transport["documents_encoded"] += len(records)
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

    def _deliver_document(
        self,
        record: tuple,
        tree: Optional[XmlDocument],
        matches: Iterable[Match],
        deliveries: list[SubscriptionResult],
        subscription_of: dict,
        publish_stamp: Optional[float],
    ) -> None:
        """Deliver one document's filter results, then its join matches."""
        filter_results = self._filters.deliver(record, tree)
        deliveries.extend(filter_results)
        if filter_results and publish_stamp is not None:
            now = perf_counter()
            for result in filter_results:
                self.metrics.record_delivery_lag(result.subscription_id, now - publish_stamp)
        self._deliver_matches(matches, deliveries, subscription_of, publish_stamp)

    def _deliver_matches(
        self,
        matches: Iterable[Match],
        deliveries: list[SubscriptionResult],
        subscription_of: dict,
        publish_stamp: Optional[float] = None,
    ) -> None:
        """Deliver one document's join matches to their subscriptions.

        ``subscription_of`` caches the qid → subscription handle lookups
        across a batch, so repeated matches of the same query resolve
        without re-consulting the registry.  Activity is still checked per
        match — a delivery callback may pause or cancel mid-batch.
        ``publish_stamp`` (metrics mode) is the triggering document's
        publish timestamp; matches decoded from a worker process carry the
        stamp the parent put on the outbound document instead.  Delivery
        lag is recorded against it after each sink delivery.
        """
        metrics = self.metrics
        for match in matches:
            qid = match.qid
            subscription = subscription_of.get(qid)
            if subscription is None:
                if qid in subscription_of:
                    continue  # interned negative entry: no such subscription
                subscription = self._subscriptions.get(qid)
                subscription_of[qid] = subscription
                if subscription is None:
                    continue
            if not subscription.active:
                continue
            output = self.output_document(match) if self.construct_outputs else None
            result = SubscriptionResult(
                subscription_id=qid, match=match, output=output
            )
            subscription.deliver(result)
            deliveries.append(result)
            if metrics is not None:
                stamp = match.publish_stamp or publish_stamp
                if stamp is not None:
                    metrics.record_delivery_lag(qid, perf_counter() - stamp)

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
        should batch through :meth:`publish_many`.  With one in-process
        shard there is nothing to route: the record goes straight to its
        engine.  Returns the deliveries made for this document (also pushed
        to the subscriber sinks).
        """
        metrics = self.metrics
        publish_stamp = perf_counter() if metrics is not None else None
        records, trees, _, per_shard = self._process(
            (document,), timestamp, stream, publish_stamp, "process_one"
        )
        deliveries: list[SubscriptionResult] = []
        self._deliver_document(
            records[0], trees[0], chain.from_iterable(per_shard), deliveries, {}, publish_stamp
        )
        if metrics is not None:
            metrics.histogram("publish_latency").record(perf_counter() - publish_stamp)
            metrics.counter("documents_published").inc()
            metrics.counter("results_delivered").inc(len(deliveries))
        return deliveries

    def publish_stream(
        self, documents: Iterable[Union[str, XmlDocument]]
    ) -> list[SubscriptionResult]:
        """Publish a sequence of documents one at a time; returns all deliveries.

        Unlike :meth:`publish_many`, each document is processed and
        delivered before the next is read: a delivery callback that
        subscribes or publishes mid-stream observes the same interleaving
        as a :meth:`publish` loop, and a generator input is consumed
        incrementally instead of being materialized up front.
        """
        out: list[SubscriptionResult] = []
        for document in documents:
            out.extend(self.publish(document))
        return out

    def publish_many(
        self,
        documents: Iterable[Union[str, XmlDocument]],
        timestamp: Optional[float] = None,
        stream: Optional[str] = None,
    ) -> list[SubscriptionResult]:
        """Publish a batch of documents with one fan-out per shard.

        The batched ingestion fast path: the whole batch is stamped up
        front and routed per document into per-shard sub-batches; each
        shard then processes its sub-batch in one task through
        :meth:`~repro.core.engine._BaseEngine.process_batch`, so the
        per-document dispatch overhead is paid once per batch per shard.
        The batch is all or nothing: one malformed document rejects it
        before any is folded, delivered or recorded on its stream (see
        :meth:`_process`).  Deliveries fire once the whole batch has
        been processed, grouped per document in arrival order (a document's
        filter deliveries, then its join matches in shard order), and reuse
        one qid → subscription cache for the whole batch — every result
        still flows through the subscription's sinks, so a
        :class:`~repro.pubsub.sinks.BatchingSink` naturally fills and
        flushes across the batch.  In metrics mode every document of the
        batch carries the batch's publish stamp.  Use
        :meth:`publish_stream` when per-document interleaving of processing
        and delivery matters.
        """
        documents = list(documents)
        if not documents:
            return []
        metrics = self.metrics
        publish_stamp = perf_counter() if metrics is not None else None
        records, trees, assignments, per_call = self._process(
            documents, timestamp, stream, publish_stamp, "process_batch"
        )

        # Scatter the per-sub-batch results back to per-document, keeping
        # shard order within each document (``assignments`` iterates the
        # shards in order).
        matches_by_doc: list[list[Match]] = [[] for _ in records]
        for (shard, routed), rows in zip(assignments, per_call):
            for index, matches in zip(range(len(records)) if routed is None else routed, rows):
                matches_by_doc[index].extend(matches)

        deliveries: list[SubscriptionResult] = []
        subscription_of: dict = {}
        for record, tree, matches in zip(records, trees, matches_by_doc):
            self._deliver_document(
                record, tree, matches, deliveries, subscription_of, publish_stamp
            )
        if metrics is not None:
            metrics.histogram("publish_batch_latency").record(perf_counter() - publish_stamp)
            metrics.counter("documents_published").inc(len(records))
            metrics.counter("results_delivered").inc(len(deliveries))
        return deliveries

    def output_document(self, match: Match) -> XmlDocument:
        """Construct the output XML document of a match (on its owning shard)."""
        if self._shard_of is None:
            return self.shards[0].output_document(match)
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
        """Encode-once transport counters (broker side + summed workers).

        Broker side: ``encodes`` / ``documents_encoded`` / ``encode_ms``
        count each batch's single serialization, ``wire_bytes`` the encoded
        payload bytes, and ``shard_sends`` / ``shipped_bytes`` the fan-out
        (same bytes written once per routed shard).  Worker side (summed
        across workers, like ``stats()["routing"]``): ``decodes`` /
        ``decode_ms`` count the payloads the workers decoded, one per
        shard send.  All zero outside the process runtime.
        """
        merged = dict(self._transport, decodes=0, decode_ms=0.0)
        if self._wire_enabled:
            for shard in self.shards:
                for key, value in shard.transport_stats().items():
                    merged[key] += value
        merged["encode_ms"] = round(merged["encode_ms"], 3)
        merged["decode_ms"] = round(merged["decode_ms"], 3)
        return merged

    def stats(self) -> dict:
        """Broker statistics: one key set whatever the topology.

        Streams, subscriptions, routing, transport, merged and per-shard
        engine statistics.  With one shard ``routing`` and ``partition``
        are ``None`` (nothing is routed or placed) and ``per_shard`` has
        one entry; outside the process runtime ``workers`` is ``None`` and
        ``transport`` is all zero.  ``engine_stats["num_matches"]`` counts
        materialized matches: in-process shards never build a match for a
        paused or cancelled subscription, while process shards still
        materialize it and the parent drops it (the deliverability callable
        cannot cross the pipe).
        """
        per_shard = [shard.stats() for shard in self.shards]
        merged = merge_engine_stats(per_shard)
        return {
            "engine": self.engine_name,
            "storage": self.storage,
            "shards": self.num_shards,
            "executor": self.config.executor,
            "workers": self.num_shards if self._wire_enabled else None,
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
            "plans": merged.plans,
            "engine_stats": merged.__dict__,
            "per_shard": [
                {"shard": shard.shard_id, **stats.__dict__}
                for shard, stats in zip(self.shards, per_shard)
            ],
            "partition": (
                self._partitioner.stats() if self._partitioner is not None else None
            ),
            "metrics": self.metrics_snapshot(),
        }

    def metrics_snapshot(self) -> Optional[dict]:
        """Merged metrics snapshot (broker + every shard), or ``None`` when off.

        Broker-side series: ``publish_latency`` / ``publish_batch_latency``
        histograms (publish-call wall time), the ``delivery_lag`` histogram
        plus per-subscription lag tracking, and the ``documents_published``
        / ``results_delivered`` counters.  Engine-side series: ``stage:*``
        histograms (one per measured pipeline stage); in the
        ``"processes"`` runtime each shard's snapshot is fetched from its
        worker over the control pipe.
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
        """End the session (idempotent): sinks, shards (and their workers), registry.

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
        if self._store is not None:
            self._store.close()
        if first_error is not None:
            raise first_error

    def __enter__(self) -> "Broker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<Broker engine={self.engine_name!r} shards={self.num_shards} "
            f"executor={self.config.executor!r} "
            f"subscriptions={len(self._subscriptions)}>"
        )
