"""The two-stage query-processing engine over XML documents.

One engine body (:class:`_BaseEngine`) wires together Stage 1 (the shared
:class:`~repro.xpath.evaluator.XPathEvaluator`) and Stage 2 (a join
processor of :mod:`repro.core.processor`, chosen from ``config.engine``),
maintains the join state and (optionally) the original documents so that
output XML documents can be constructed.  Every input — raw text, a tree
document or a record a broker stamped, one at a time or in a batch, with or
without a durable store — becomes one ``(text, docid, timestamp, stream)``
record and takes the same document path (:meth:`_BaseEngine._process_one`):
Stage 1 scans the text, and a tree is parsed only when ``store_documents``
keeps one and none was given.
:class:`MMQJPEngine` and :class:`SequentialEngine` name the two Stage-2
strategies behind that one interface, so they can be compared — and checked
for result equivalence — on any workload.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from repro.config import ENGINES, RuntimeConfig, as_config
from repro.core.costs import CostBreakdown
from repro.metrics import MetricsRegistry
from repro.core.processor import MMQJPJoinProcessor, SequentialJoinProcessor
from repro.core.results import Match, MatchLayout, build_output_document
from repro.core.witnesses import WitnessRelations
from repro.templates.registry import QueryShape, TemplateRegistry
from repro.xmlmodel.document import XmlDocument, _next_docid
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serialize import to_xml
from repro.xpath.evaluator import Stage1Registrations, XPathEvaluator
from repro.xscl.ast import INFINITE_WINDOW, JoinOperator, JoinSpec, ValueJoinPredicate, XsclQuery
from repro.xscl.normalize import VariableCatalog, canonicalize_query
from repro.xscl.memo import TextMemo
from repro.xscl.parser import parse_query
from repro.templates.join_graph import Side

#: Suffix used internally for the mirrored registration of symmetric JOIN queries.
_SWAP_SUFFIX = "::swap"

#: The store's meta key of the template guard (see ``_persist_registration``).
TEMPLATE_GUARD = "template_guard"


class _DerivedKey(NamedTuple):
    """One processor-registration key's share of a :class:`_DerivedText`."""

    suffix: str  # "" for the qid itself, ``::swap`` for a JOIN's mirror
    query: XsclQuery  # the canonical form, or its mirror
    shape: QueryShape
    variables: tuple[str, ...]  # its Stage 1 variables
    edges: tuple[tuple[str, str], ...]  # its Stage 1 (parent, child) edges


class _DerivedText(NamedTuple):
    """What registering one query text derives — the same for every subscriber.

    Shared, never mutated: every registration of the text gets the same
    canonical query object.
    """

    query: XsclQuery  # the query the rest was derived from
    canonical: XsclQuery
    keys: tuple[_DerivedKey, ...]


# ENGINES is canonically defined in repro.config (imported above) and
# re-exported here for backward compatibility.


@dataclass
class EngineStats:
    """Summary statistics of an engine."""

    num_queries: int
    num_templates: Optional[int]
    num_documents_processed: int
    num_matches: int
    state_documents: int
    costs: dict[str, float] = field(default_factory=dict)
    #: Column-store sync counters of the join state and ``RT`` relations
    #: (``rebuilds``, ``rows_encoded``, ``prefix_drops``, ``swap_deletes``,
    #: ``group_builds``); the broker reports them as ``stats()["columnar"]``.
    columnar: dict[str, int] = field(default_factory=dict)
    #: The processor's delta-reduction counters (``documents`` plus
    #: :attr:`DeltaContext.COUNTERS
    #: <repro.relational.conjunctive.DeltaContext.COUNTERS>`); the broker
    #: reports them as ``stats()["delta"]``.
    delta: dict[str, int] = field(default_factory=dict)
    #: The processor's plan-cache counters (:meth:`PlanCache.stats
    #: <repro.relational.plan.PlanCache.stats>`: cached plans, hits, row
    #: counts, indexed and scanned probes, one-to-one steps); the broker
    #: reports them as ``stats()["plans"]``.
    plans: dict[str, int] = field(default_factory=dict)


def merge_engine_stats(stats: Sequence[EngineStats], fanout: bool = True) -> EngineStats:
    """Merge per-engine statistics into one aggregate :class:`EngineStats`.

    Query and match counts are summed (shards own disjoint query sets), and
    the per-phase costs, column-store, delta-reduction and plan-cache
    counters are accumulated (``delta["documents"]`` counts evaluations and
    ``plans["plans"]`` each shard's own cached plans, so both sum).  With
    ``fanout=True`` (the sharded runtime's fan-out model, where every
    engine processes every document) ``num_documents_processed`` and
    ``state_documents`` take the maximum across engines instead of the
    sum, so they keep counting *documents* rather than (document, shard)
    pairs.
    """
    if not stats:
        return EngineStats(0, None, 0, 0, 0, {})
    doc_agg = max if fanout else sum
    templates = [s.num_templates for s in stats if s.num_templates is not None]
    costs: dict[str, float] = {}
    columnar: dict[str, int] = {}
    delta: dict[str, int] = {}
    plans: dict[str, int] = {}
    for s in stats:
        for phase, ms in s.costs.items():
            costs[phase] = round(costs.get(phase, 0.0) + ms, 3)
        for totals, counters in ((columnar, s.columnar), (delta, s.delta), (plans, s.plans)):
            for counter, count in counters.items():
                totals[counter] = totals.get(counter, 0) + count
    return EngineStats(
        num_queries=sum(s.num_queries for s in stats),
        num_templates=sum(templates) if templates else None,
        num_documents_processed=doc_agg(s.num_documents_processed for s in stats),
        num_matches=sum(s.num_matches for s in stats),
        state_documents=doc_agg(s.state_documents for s in stats),
        costs=costs,
        columnar=columnar,
        delta=delta,
        plans=plans,
    )


class _BaseEngine:
    """The engine: shared Stage 1, the Stage 2 strategy ``config.engine`` names."""

    def __init__(self, config: RuntimeConfig):
        self.config = config
        self.evaluator = XPathEvaluator()
        self.catalog = VariableCatalog()
        self.store_documents = config.resolve_store_documents()
        self.auto_timestamp = config.auto_timestamp
        self.auto_prune = config.auto_prune
        self.documents: dict[str, XmlDocument] = {}
        self._qid_counter = itertools.count(1)
        self._clock_value = 0
        # Optional durable state store (repro.storage); None — the default,
        # and always the case for storage="memory" — keeps the processing
        # path free of any storage cost.  Attached via attach_store().
        self.store = None
        # What the store holds of the registration metadata: the number of
        # catalog entries persisted, and the registry's ``live_version`` the
        # persisted template guard reflects (``None`` while recovery
        # replays: the stored guard is what the replay is checked against)
        # with the keys it holds, and the query id of the cancel it names.
        self._catalog_watermark = 0
        self._guard_version: Optional[int] = 0
        self._guard_keys: Optional[list[str]] = []
        self._guard_cancel: Optional[str] = None
        self._registered: dict[str, XsclQuery] = {}
        self._root_vars: dict[str, tuple[Optional[str], Optional[str]]] = {}
        # ``::swap`` key -> (its public qid, its layout with the blocks
        # exchanged): how an un-swapped mirror match reads, built on the
        # key's first match and dropped at deregistration.
        self._mirrors: dict[str, tuple[str, MatchLayout]] = {}
        self._max_finite_window = 0.0
        self._has_infinite_window = False
        # Window refcounts backing the horizon: finite windows by value plus
        # an infinite-window count, so retraction adjusts the horizon in
        # O(1) (O(#distinct windows) when the largest loses its last user)
        # instead of rescanning every registered query.
        self._finite_window_counts: dict[float, int] = {}
        self._infinite_windows = 0
        # Stage 1 bookkeeping for retraction: per processor-registration key
        # (qid or its ::swap twin), the variables and edges it registered,
        # refcounted engine-wide.  Canonicalization shares variables across
        # equivalent queries, so a registration is only withdrawn from the
        # evaluator when its last user is gone.
        self._stage1 = Stage1Registrations()
        # What registering a text derives, held by its live registrations
        # (qid -> the text it holds); see register_query.
        self.texts: TextMemo[_DerivedText] = TextMemo()
        self._text_of: dict[str, str] = {}
        self.num_documents_processed = 0
        self.num_matches = 0
        # Observability (RuntimeConfig.metrics): engine-side
        # per-stage latency histograms.  None — the default — keeps the hot
        # path at a single attribute check per document.  The processor's
        # CostBreakdown mirrors its measured phases in.
        self.metrics = MetricsRegistry() if config.metrics else None
        # Stage 2: config.engine selects the strategy; everything the
        # engine does with the processor goes through the shared skeleton.
        if config.engine == "sequential":
            self.processor = SequentialJoinProcessor()
        else:
            self.processor = MMQJPJoinProcessor(
                TemplateRegistry(), use_view_materialization=config.engine == "mmqjp-vm"
            )
        if self.metrics is not None:
            self.processor.costs.attach_metrics(self.metrics)

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register_query(
        self,
        query: Union[str, XsclQuery],
        qid: Optional[str] = None,
        window_symbols: Optional[dict[str, float]] = None,
    ) -> str:
        """Register an XSCL query (text or AST) and return its query id.

        Everything a registration derives from the query itself — the
        canonical form, the ``::swap`` twin of a symmetric JOIN, each
        registration key's :class:`~repro.templates.registry.QueryShape` and
        Stage 1 variables and edges — is kept in :attr:`texts` under the query's text
        while a registration of it is live, so a later registration of an
        equal query is an ``RT`` append, a relevance posting and Stage 1
        refcounts.  Queries without text (built programmatically), or equal
        in text but not in structure to the held one (different window
        symbols), derive their own and share nothing.
        """
        if isinstance(query, str):
            query = parse_query(query, window_symbols=window_symbols)
        if not query.is_join_query:
            raise ValueError(
                "the join engines process inter-document (join) queries; "
                "use repro.pubsub.Broker for single-block filter subscriptions"
            )
        qid = qid if qid is not None else f"q{next(self._qid_counter)}"
        if qid in self._registered:
            raise ValueError(f"query id {qid!r} is already registered")

        text = query.text
        derived = None if text is None else self.texts.get(text)
        if derived is not None and derived.query is not query and derived.query != query:
            derived = text = None  # an unequal query holds this text
        if derived is None:
            canonical = canonicalize_query(query, self.catalog)
            forms = [("", canonical)]
            if canonical.join.operator is JoinOperator.JOIN:
                forms.append((_SWAP_SUFFIX, _swap_query(canonical)))
            derived = _DerivedText(
                query,
                canonical,
                tuple(self._register_with_processor(qid, suffix, form) for suffix, form in forms),
            )
        else:
            for key in derived.keys:
                self._register_with_processor(qid, key.suffix, key.query, key)
        canonical = derived.canonical
        self._registered[qid] = canonical
        self._root_vars[qid] = (
            canonical.left.root_variable,
            canonical.right.root_variable if canonical.right else None,
        )
        self._track_window(canonical.join.window)
        if text is not None:
            self.texts.hold(text, derived)
            self._text_of[qid] = text
        if self.store is not None:
            # Re-registering the id of the cancel the guard names unnames it.
            self._persist_registration((qid, "add"), marks=self._guard_cancel == qid)
        return qid

    def register_queries(self, queries: Iterable[Union[str, XsclQuery]]) -> list[str]:
        """Register many queries; returns their query ids."""
        return [self.register_query(q) for q in queries]

    def _register_with_processor(
        self,
        qid: str,
        suffix: str,
        query: XsclQuery,
        derived: Optional[_DerivedKey] = None,
    ) -> _DerivedKey:
        """Register one query with Stage 2, and its reduced graph with Stage 1.

        The processor-registration key is ``qid + suffix`` (the qid, or its
        ``::swap`` twin for symmetric JOINs); the variables and edges
        registered under it are recorded and reference-counted so
        :meth:`deregister_query` can withdraw exactly this registration.
        ``derived`` is what an earlier, still live registration of the same
        text returned: its variables and edges are then in the evaluator
        already, held there by that registration's refcounts, so only the
        refcounts are taken.
        """
        key = qid + suffix
        if derived is not None:
            self.processor.add_query(key, query, derived.shape)
        else:
            shape = self.processor.add_query(key, query)
            patterns = {Side.LEFT: query.left.pattern, Side.RIGHT: query.right.pattern}
            for side, var in shape.reduced.nodes:
                pattern = patterns[side]
                self.evaluator.register_variable(
                    var, pattern.stream, pattern.absolute_path_of(var)
                )
            for (p_side, p_var), (_, c_var) in shape.reduced.structural_edges:
                self.evaluator.register_edge(
                    p_var, c_var, patterns[p_side].relative_path_between(p_var, c_var)
                )
            derived = _DerivedKey(
                suffix,
                query,
                shape,
                tuple(var for _, var in shape.reduced.nodes),
                tuple((p_var, c_var) for (_, p_var), (_, c_var) in shape.reduced.structural_edges),
            )
        self._stage1.record(key, derived.variables, derived.edges)
        return derived

    # ------------------------------------------------------------------ #
    # retraction
    # ------------------------------------------------------------------ #
    def deregister_query(self, qid: str) -> None:
        """Retract a registered query, reclaiming every trace of it.

        The inverse of :meth:`register_query`: the query (and its mirrored
        ``::swap`` registration, for symmetric JOINs) is removed from the
        processor — template ``RT`` tuple, relevance-index postings and
        compiled plans included — its Stage 1 variables and edges are
        withdrawn from the shared evaluator once their last user is gone,
        the window-pruning horizon is recomputed, and join-state rows that
        can no longer contribute to any match are dropped.  When the last
        query is deregistered the engine's state returns to baseline: no
        state rows, no stored documents.  Raises :class:`KeyError` for
        unknown query ids.
        """
        canonical = self._registered.get(qid)
        if canonical is None:
            raise KeyError(f"query id {qid!r} is not registered")
        del self._registered[qid]
        self._root_vars.pop(qid, None)
        text = self._text_of.pop(qid, None)
        if text is not None:
            self.texts.release(text)

        keys = [qid]
        if canonical.join.operator is JoinOperator.JOIN:
            keys.append(qid + _SWAP_SUFFIX)
            self._mirrors.pop(keys[1], None)
        dead_vars: set[str] = set()
        dead_edges: set[tuple[str, str]] = set()
        for key in keys:
            self.processor.remove_query(key)
            key_vars, key_edges = self._stage1.withdraw(key)
            dead_vars |= key_vars
            dead_edges |= key_edges
        if dead_vars or dead_edges:
            self.evaluator.deregister(variables=dead_vars, edges=dead_edges)

        self._release_window(canonical.join.window)
        if not self._registered:
            self.processor.clear_state()
            self.documents.clear()
        elif dead_vars:
            self.processor.drop_variables(dead_vars)
        if self.store is not None:
            # A cancel that deletes join state names itself in the guard
            # first: if a crash leaves the subscription's row in the broker
            # store, recovery finishes the cancel instead of replaying a
            # query whose state is gone.
            drops = not self._registered or bool(dead_vars)
            self._persist_registration((qid, "remove"), marks=drops)
            if not self._registered:
                self.store.clear_state()
            elif dead_vars:
                self.store.delete_variables(dead_vars)

    def _track_window(self, window: float) -> None:
        """Fold one registered query's window into the auto-prune horizon."""
        if window == INFINITE_WINDOW:
            self._infinite_windows += 1
            self._has_infinite_window = True
        else:
            self._finite_window_counts[window] = (
                self._finite_window_counts.get(window, 0) + 1
            )
            if window > self._max_finite_window:
                self._max_finite_window = window

    def _release_window(self, window: float) -> None:
        """Withdraw one query's window from the auto-prune horizon (O(1) amortized)."""
        if window == INFINITE_WINDOW:
            self._infinite_windows -= 1
            self._has_infinite_window = self._infinite_windows > 0
            return
        left = self._finite_window_counts[window] - 1
        if left:
            self._finite_window_counts[window] = left
        else:
            del self._finite_window_counts[window]
            if window == self._max_finite_window:
                self._max_finite_window = max(self._finite_window_counts, default=0.0)

    # ------------------------------------------------------------------ #
    # document processing
    # ------------------------------------------------------------------ #
    def _stamp(self, timestamp: Optional[float], carried: float = 0.0) -> float:
        """The timestamp one input is processed under.

        An explicit ``timestamp`` wins; otherwise the stamp the document
        carries, with an unstamped one (0.0 — always the case for text)
        drawing from the auto clock when ``auto_timestamp`` is on.
        """
        if timestamp is not None:
            return float(timestamp)
        if self.auto_timestamp and carried == 0.0:
            self._clock_value += 1
            return float(self._clock_value)
        return carried

    def _prepare(
        self,
        document: Union[str, XmlDocument, tuple],
        timestamp: Optional[float],
        stream: str = "S",
        tree: Optional[XmlDocument] = None,
    ) -> tuple[tuple, Optional[XmlDocument]]:
        """Stamp one input and give it the record form Stage 1 scans.

        Returns ``((text, docid, timestamp, stream), tree)``.  Text draws a
        fresh docid; a tree is serialized once and kept as ``tree`` (the
        document :attr:`documents` keeps when ``store_documents`` is on); a
        record stamped upstream — what a broker passes — is taken as it is,
        its own timestamp included, with the ``tree`` parsed upstream, if
        any.  Docids recur in every witness row, state partition key and
        match: interning them here makes the hot-path hashing and equality
        checks pointer comparisons.
        """
        if type(document) is tuple:
            return document, tree
        if isinstance(document, str):
            return (document, sys.intern(_next_docid()), self._stamp(timestamp), stream), None
        if isinstance(document.docid, str):
            document.docid = sys.intern(document.docid)
        document.timestamp = self._stamp(timestamp, document.timestamp)
        record = (
            to_xml(document, pretty=False), document.docid, document.timestamp, document.stream
        )
        return record, document

    def _witnesses(self, record: tuple) -> WitnessRelations:
        """Stage 1 on one record: the text is scanned without building a tree."""
        metrics = self.metrics
        if metrics is None:
            return WitnessRelations.from_witnesses(self.evaluator.evaluate_text(*record))
        with metrics.timer("stage:stage1"):
            return WitnessRelations.from_witnesses(self.evaluator.evaluate_text(*record))

    def _process_one(self, record: tuple, tree: Optional[XmlDocument] = None) -> list[Match]:
        """The document path: run both stages on one prepared record."""
        return self._fold(self._witnesses(record), record, tree)

    def _fold(
        self, relations: WitnessRelations, record: tuple, tree: Optional[XmlDocument]
    ) -> list[Match]:
        """Stage 2 on one document whose Stage 1 witnesses are ``relations``.

        ``process``, ``maintain_state``, auto-prune, match normalisation and
        the counters, in that order, for every input.
        With a store attached the steps after ``process`` form one store
        *epoch*: the merged state partitions, any in-epoch pruning, the
        document's text (when ``store_documents`` keeps it) and the engine
        counters all land in a single atomic commit, so a crash at any
        point leaves either the whole document or none of it.  On failure the epoch is aborted —
        the in-memory state may then be ahead of the store, which is
        exactly the situation recovery resolves by rebuilding from the
        store alone.
        """
        processor = self.processor
        raw_matches = processor.process(relations)
        docid = relations.docid
        store = self.store
        if store is not None:
            store.begin_epoch(docid)
        try:
            processor.maintain_state(relations)
            if store is not None:
                store.upsert_rows("Rbin", docid, [(docid,) + row for row in relations.rbinw.rows])
                store.upsert_rows("Rdoc", docid, [(docid,) + row for row in relations.rdocw.rows])
                store.upsert_rows("Rvar", docid, [(docid,) + row for row in relations.rvarw.rows])
                store.upsert_rows("RdocTS", docid, list(relations.rdoctsw.rows))
            self._auto_prune(relations.timestamp)
            if self.store_documents:
                self.documents[docid] = tree if tree is not None else parse_document(*record)
                if store is not None:
                    text, _, timestamp, stream = record
                    store.put_document(docid, timestamp, stream, text)
            matches = self._normalize_matches(raw_matches)
            self.num_documents_processed += 1
            self.num_matches += len(matches)
            if store is not None:
                store.set_meta(
                    "engine_counters",
                    {
                        "documents": self.num_documents_processed,
                        "matches": self.num_matches,
                        "clock": self._clock_value,
                    },
                )
                if self.metrics is None:
                    store.commit_epoch()
                else:
                    with self.metrics.timer("stage:storage_commit"):
                        store.commit_epoch()
        except BaseException:
            if store is not None:
                store.abort_epoch()
            raise
        return matches

    def process_text(
        self,
        text: str,
        timestamp: Optional[float] = None,
        stream: str = "S",
    ) -> list[Match]:
        """Process one document given as raw XML text on ``stream``.

        Stage 1 witnesses are produced in a single pass over the text; a
        tree is built only when ``store_documents`` keeps one.
        """
        return self._process_one(*self._prepare(text, timestamp, stream))

    def process_document(
        self,
        document: Union[str, XmlDocument, tuple],
        timestamp: Optional[float] = None,
        tree: Optional[XmlDocument] = None,
    ) -> list[Match]:
        """Run both stages on one incoming document and return its matches.

        ``document`` is XML text, a tree (serialized once, then the same
        path) or a ``(text, docid, timestamp, stream)`` record stamped
        upstream; for a record, ``tree`` is its parsed form, which
        ``store_documents`` then keeps instead of parsing the text again.
        """
        return self._process_one(*self._prepare(document, timestamp, tree=tree))

    def process_batch(
        self,
        documents: Iterable[Union[str, XmlDocument, tuple]],
        timestamp: Optional[float] = None,
        trees: Optional[Sequence[Optional[XmlDocument]]] = None,
    ) -> list[list[Match]]:
        """Process a batch of documents; one match list per document.

        The whole batch is stamped (and trees serialized) up front, so
        docid and auto-timestamp assignment follow arrival order whatever
        mix of text, trees and records the batch holds; ``trees`` pairs
        records with their parsed forms, as in :meth:`process_document`.
        Every document is then scanned before any is folded into the join
        state, so malformed input rejects the whole batch and leaves the
        state as it was.  The folds run in arrival order, so the matches
        are exactly those of a :meth:`process_document` loop.
        """
        prepared = [
            self._prepare(document, timestamp, tree=tree)
            for document, tree in zip(
                documents, itertools.repeat(None) if trees is None else trees
            )
        ]
        relations = [self._witnesses(record) for record, _ in prepared]
        return [
            self._fold(witnessed, record, tree)
            for witnessed, (record, tree) in zip(relations, prepared)
        ]

    def process_stream(self, documents: Iterable[Union[str, XmlDocument]]) -> list[Match]:
        """Process a sequence of documents; returns all matches in arrival order.

        Documents are processed one at a time — a lazy/unbounded iterable is
        consumed incrementally, and documents before a failing one are fully
        folded into the join state.  Use :meth:`process_batch` for the
        batched fast path over an already-materialized batch.
        """
        out: list[Match] = []
        for document in documents:
            out.extend(self.process_document(document))
        return out

    def _processor(self):
        """The Stage 2 processor, as a call (what ``perf/layers.py`` probes)."""
        return self.processor

    def _auto_prune(self, timestamp: float) -> None:
        """Window-based pruning of state (only when every window is finite)."""
        if not self.auto_prune:
            return
        if self._has_infinite_window or self._max_finite_window <= 0:
            return
        self.prune(timestamp - self._max_finite_window)

    def prune(self, min_timestamp: float) -> int:
        """Drop state (and stored documents) older than ``min_timestamp``.

        Called automatically after every document when ``auto_prune`` is on
        and all registered windows are finite; exposed publicly so brokers
        can prune on demand (e.g. with ``auto_prune=False``).  Returns the
        number of documents removed from the join state.
        """
        dropped = self.processor.prune_state(min_timestamp)
        if dropped:
            for docid in dropped:
                self.documents.pop(docid, None)
            if self.store is not None:
                # Inside a document epoch this joins the epoch's transaction,
                # keeping the merge and its window-pruning atomic.
                self.store.delete_documents(dropped)
        return len(dropped)

    def _normalize_matches(self, matches: list[Match]) -> list[Match]:
        """Un-swap mirrored symmetric-JOIN matches: public qid, blocks exchanged.

        An un-swapped match stays row-backed: it keeps the mirror's head
        row and reads it through the mirror's layout with ``lhs`` and
        ``rhs`` exchanged, resolved once per ``::swap`` key.  Nothing needs
        de-duplicating: Stage 2 puts the current document on the right of
        every match, so an un-swapped match has it on the left and shares
        no :meth:`Match.key` with an original one (a document is not in
        the join state while it is processed).
        """
        mirrors = self._mirrors
        for i, match in enumerate(matches):
            key = match.qid
            if key.endswith(_SWAP_SUFFIX):
                mirror = mirrors.get(key)
                if mirror is None:
                    mirror = mirrors[key] = (key[: -len(_SWAP_SUFFIX)], match.layout.swapped())
                qid, layout = mirror
                matches[i] = Match.from_row(
                    qid, match.rhs_docid, match.lhs_docid, match.rhs_timestamp,
                    match.lhs_timestamp, match.window, match.row, layout,
                )
        return matches

    # ------------------------------------------------------------------ #
    # durable storage
    # ------------------------------------------------------------------ #
    def attach_store(self, store) -> None:
        """Attach a :class:`~repro.storage.StateStore` to this engine.

        Subsequent registrations, document epochs, prunes and retractions
        are mirrored to the store.  Registrations made *before* the attach
        are persisted immediately, so programmatic register-then-attach use
        still recovers.
        """
        self.store = store
        if store is not None and self._registered:
            self._persist_registration()

    def _persist_registration(
        self, registration: Optional[tuple[str, str]] = None, marks: bool = False
    ) -> None:
        """Persist what a registration changed of the catalog and the template guard.

        Only the delta is written: catalog entries past the watermark, when
        a registration minted canonical names, and the template guard — the
        live templates' sorted keys (``None`` without a registry), which
        recovery checks the replayed registry against — when a template
        gained its first member or lost its last, or the registration
        ``marks`` it: a cancel that deletes join state, or a subscribe
        under the id of the cancel the guard names.  A subscription joining
        or leaving a live template otherwise writes nothing here.  The
        guard names the ``(query id, "add" | "remove")`` ``registration``
        that wrote it and the keys it moved, so recovery can tell a
        registration the broker store never recorded (a crash between the
        two files) from a store that disagrees.
        """
        catalog = self.catalog
        if len(catalog) > self._catalog_watermark:
            self.store.save_catalog_entries(catalog.entries(self._catalog_watermark))
            self._catalog_watermark = len(catalog)
        if self._guard_version is None:  # recovery replays
            return
        registry = self.processor.registry
        version = 0 if registry is None else registry.live_version
        if version == self._guard_version and not marks:
            return
        keys = None if registry is None else registry.live_template_keys()
        old, new = Counter(self._guard_keys or ()), Counter(keys or ())
        moved = sorted(((new - old) + (old - new)).elements())
        sid, op = registration if registration is not None else (None, None)
        self.store.set_meta(TEMPLATE_GUARD, {"keys": keys, "sid": sid, "op": op, "moved": moved})
        self._guard_version, self._guard_keys = version, keys
        self._guard_cancel = sid if op == "remove" else None

    def close(self) -> None:
        """Flush and close the attached state store (idempotent; no-op without one)."""
        if self.store is not None:
            self.store.close()

    # ------------------------------------------------------------------ #
    # results and stats
    # ------------------------------------------------------------------ #
    def output_document(self, match: Match) -> XmlDocument:
        """Construct the output XML document of a match (default SELECT semantics).

        Requires ``store_documents=True`` (the default).
        """
        if match.lhs_docid not in self.documents or match.rhs_docid not in self.documents:
            raise KeyError(
                "output construction needs the original documents; "
                "the engine was created with store_documents=False or the "
                "documents were pruned"
            )
        lhs_root, rhs_root = self._root_vars.get(match.qid, (None, None))
        return build_output_document(
            match,
            self.documents[match.lhs_docid],
            self.documents[match.rhs_docid],
            lhs_root_variable=lhs_root,
            rhs_root_variable=rhs_root,
        )

    @property
    def registered_queries(self) -> dict[str, XsclQuery]:
        """The registered (canonicalized) queries by query id."""
        return dict(self._registered)

    @property
    def num_queries(self) -> int:
        """Number of registered queries."""
        return len(self._registered)

    @property
    def registry(self) -> Optional[TemplateRegistry]:
        """The template registry (``None`` under ``"sequential"``, which keeps none)."""
        return self.processor.registry

    @property
    def num_templates(self) -> Optional[int]:
        """Number of live query templates (``None`` under ``"sequential"``)."""
        return self.processor.num_templates

    @property
    def costs(self) -> CostBreakdown:
        """The processor's accumulated cost breakdown."""
        return self.processor.costs

    @property
    def plan_cache(self):
        """The processor's compiled-plan cache."""
        return self.processor.plan_cache

    def set_match_filter(self, match_filter) -> None:
        """Install a query-id match filter on the processor (or clear with None).

        The filter decides whether a query id's matches are worth
        materializing at all (e.g. the broker suppresses matches of paused
        or cancelled subscriptions before the Match objects are built).
        The internal ``::swap`` suffix of mirrored symmetric-JOIN
        registrations is stripped before the filter sees the id, so filters
        reason about public query ids only.
        """
        if match_filter is None:
            self.processor.set_match_filter(None)
            return

        def filter_with_swap(qid: str) -> bool:
            if qid.endswith(_SWAP_SUFFIX):
                qid = qid[: -len(_SWAP_SUFFIX)]
            return match_filter(qid)

        self.processor.set_match_filter(filter_with_swap)

    @property
    def delta_stats(self) -> dict[str, int]:
        """The processor's delta-reduction counters."""
        return dict(self.processor.delta_stats)

    def metrics_snapshot(self) -> Optional[dict]:
        """Snapshot of this engine's metrics registry (``None`` when disabled).

        The broker merges these with its own registry (and, in the
        process runtime, with snapshots fetched from the workers) into
        ``broker.stats()["metrics"]``.
        """
        return self.metrics.snapshot() if self.metrics is not None else None

    def stats(self) -> EngineStats:
        """Summary statistics for dashboards, examples and tests."""
        return EngineStats(
            num_queries=self.num_queries,
            num_templates=self.num_templates,
            num_documents_processed=self.num_documents_processed,
            num_matches=self.num_matches,
            state_documents=self.processor.state.num_documents,
            costs=self.costs.as_milliseconds(),
            columnar=self.processor.env.columnar_counters(),
            delta=self.delta_stats,
            plans=self.plan_cache.stats(),
        )


def _swap_query(query: XsclQuery) -> XsclQuery:
    """Mirror a symmetric JOIN query (blocks and predicate orientation swapped)."""
    swapped_predicates = tuple(
        ValueJoinPredicate(p.right_var, p.left_var) for p in query.join.predicates
    )
    return XsclQuery(
        left=query.right,
        right=query.left,
        join=JoinSpec(
            operator=query.join.operator,
            predicates=swapped_predicates,
            window=query.join.window,
        ),
        select=query.select,
        publish=query.publish,
        name=query.name,
        text=query.text,
    )


class MMQJPEngine(_BaseEngine):
    """The paper's system: shared Stage 1 plus template-based Stage 2.

    Parameters
    ----------
    config:
        A :class:`~repro.config.RuntimeConfig` carrying every knob.  Its
        ``engine`` decides whether the per-template conjunctive queries run
        over the materialized views ``RL`` / ``RR`` (Section 5,
        ``"mmqjp-vm"``) or the raw witness relations (``"mmqjp"``; a
        ``"sequential"`` selection also builds this).
    """

    def __init__(self, config: Optional[RuntimeConfig] = None):
        config = as_config(config, "MMQJPEngine")
        if config.engine == "sequential":
            config = config.replace(engine="mmqjp")
        super().__init__(config)


class SequentialEngine(_BaseEngine):
    """The baseline: per-query join evaluation behind the same interface.

    Accepts a :class:`~repro.config.RuntimeConfig` exactly like
    :class:`MMQJPEngine`.
    """

    def __init__(self, config: Optional[RuntimeConfig] = None):
        super().__init__(as_config(config, "SequentialEngine").replace(engine="sequential"))


def make_engine(
    engine: "str | RuntimeConfig | None" = None,
    config: Optional[RuntimeConfig] = None,
    store=None,
) -> _BaseEngine:
    """Construct an engine from a :class:`~repro.config.RuntimeConfig`.

    The canonical form is ``make_engine(config)`` (or
    ``make_engine("mmqjp-vm", config)`` to override the selection keyword —
    see :data:`ENGINES`): ``"mmqjp"`` is the paper's system, ``"mmqjp-vm"``
    adds the Section 5 view materialization, and ``"sequential"`` is the
    one-query-at-a-time baseline.  This is the single factory behind every
    shard of :class:`repro.pubsub.Broker`, in process or in a worker.

    ``store`` optionally attaches a :class:`~repro.storage.StateStore` (the
    broker opens one per engine when ``config.storage == "sqlite"``; each
    shard persists to its own database file, so the store cannot be derived
    from the shared config and is injected here instead).
    """
    if isinstance(engine, RuntimeConfig):
        if config is not None:
            raise TypeError("pass either a RuntimeConfig or an engine name first, not two configs")
        config, engine = engine, None
    config = as_config(config, "make_engine")
    if engine is not None:
        config = config.replace(engine=engine)
    if config.engine == "sequential":
        built = SequentialEngine(config)
    else:
        built = MMQJPEngine(config)
    if store is not None:
        built.attach_store(store)
    return built
