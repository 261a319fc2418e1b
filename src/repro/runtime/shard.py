"""One engine shard: an independent two-stage engine plus its bookkeeping.

A shard owns a disjoint subset of the registered join subscriptions and
sees every published document its queries could bind (subscription-
partitioned, document-replicated parallelism, thinned by the broker's
:class:`~repro.runtime.router.ShardRouter` when routing is enabled).  Each
shard maintains its own Stage 1 evaluator, template registry and join
state, and shards never need to communicate during processing.

In the ``"processes"`` runtime this same surface is provided by
:class:`~repro.runtime.process.ProcessShardHandle`, with the engine living
in a worker process.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.core.engine import EngineStats, _BaseEngine
from repro.core.results import Match
from repro.storage import recovery
from repro.xmlmodel.document import XmlDocument
from repro.xscl.ast import XsclQuery


class EngineShard:
    """A shard id, its engine, and how many subscriptions it owns."""

    def __init__(self, shard_id: int, engine: _BaseEngine):
        self.shard_id = shard_id
        self.engine = engine
        #: Number of subscriptions owned by this shard.
        self.num_queries = 0

    def register(self, qid: str, query: Union[str, XsclQuery]) -> None:
        """Register one join subscription with this shard's engine."""
        self.engine.register_query(query, qid=qid)
        self.num_queries += 1

    def deregister(self, qid: str) -> None:
        """Retract one join subscription from this shard's engine.

        Delegates to :meth:`~repro.core.engine._BaseEngine.deregister_query`,
        so the shard's templates, relevance postings, plan-cache entries and
        reclaimable join state shrink with the retraction.
        """
        self.engine.deregister_query(qid)
        self.num_queries -= 1

    def process_batch(
        self,
        documents: Sequence[tuple],
        trees: Optional[Sequence[Optional[XmlDocument]]] = None,
    ) -> list[list[Match]]:
        """Process a batch of documents in order; one match list per document.

        The broker passes ``(text, docid, timestamp, stream)`` records and,
        when the engines keep documents, the trees it parsed or was given
        (shared by every in-process shard); the engine also takes text or
        trees.

        This is the unit of work the broker dispatches: batching amortizes
        one dispatch over the whole batch, which the engine
        (:meth:`~repro.core.engine._BaseEngine.process_batch`) stamps up
        front and then runs document by document.

        A shard without subscriptions skips processing outright.  This is
        safe: Stage 1 witnesses are computed at arrival time, so a document
        processed before a query registers can never join with it — an empty
        shard would only accumulate dead ``RdocTS`` state.
        """
        if not self.num_queries:
            return [[] for _ in documents]
        return self.engine.process_batch(documents, trees=trees)

    def process_one(
        self, document: tuple, tree: Optional[XmlDocument] = None
    ) -> list[Match]:
        """Process a single document (the broker's unbatched publish path).

        Skips batch assembly and the per-batch hooks entirely; an empty
        shard short-circuits like :meth:`process_batch`.
        """
        if not self.num_queries:
            return []
        return self.engine.process_document(document, tree=tree)

    def prune(self, min_timestamp: float) -> int:
        """Prune this shard's join state; returns documents removed."""
        return self.engine.prune(min_timestamp)

    def output_document(self, match: Match) -> XmlDocument:
        """Construct the output XML document of one of this shard's matches."""
        return self.engine.output_document(match)

    # -- recovery plane (see repro.storage.recovery) ---------------------- #
    def recover_catalog(self):
        """Pin the persisted variable catalog; returns the persisted template guard."""
        return recovery.recover_engine_catalog(self.engine)

    def template_guard(self, rewrite: bool = False):
        """The live template keys after replay (``None`` without a registry)."""
        return recovery.engine_template_guard(self.engine, rewrite)

    def recover_state(self) -> int:
        """Load persisted join state and counters; returns the docid floor."""
        recovery.restore_engine_state(self.engine)
        return recovery.docid_floor(self.engine)

    def stats(self) -> EngineStats:
        """This shard's engine statistics."""
        return self.engine.stats()

    def metrics_snapshot(self):
        """This shard's engine metrics snapshot (``None`` when disabled)."""
        return self.engine.metrics_snapshot()

    def close(self) -> None:
        """Close this shard's engine (and its attached state store)."""
        self.engine.close()

    def __repr__(self) -> str:
        return f"<EngineShard {self.shard_id} queries={self.num_queries}>"
