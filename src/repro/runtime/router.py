"""Relevance-aware fan-out routing: which shards need this document at all.

A broker with several shards replicates documents because *some* subscription might
pair the current document with an earlier one — but a document that cannot
bind any variable of any query on a shard can neither match there now (its
right-block witness atoms would be empty) nor contribute left-block state
for a later match (its left-block atoms would be empty too).  Shipping it
to that shard only costs dispatch overhead and dead ``RdocTS`` rows.

:class:`ShardRouter` lifts the Stage-1 relevance idea
(:class:`~repro.core.relevance.RelevanceIndex`, paper Section 4.4) up one
level.  Per join subscription it posts two members under the owning shard:

* the query's reduced *right*-block variables — all bound means the
  document could complete a match on that shard right now, and
* the query's reduced *left*-block variables — all bound means the
  document could become the stored half of a future match there.

Routing then asks ``relevant(bound)`` with the set of variables the
document binds, computed by one scan of the published text
(:meth:`~repro.xpath.evaluator.XPathEvaluator.evaluate_text`) over the
router's own evaluator — its own :class:`~repro.xscl.normalize.VariableCatalog`
too, which is safe because canonical names are a pure function of
``(stream, absolute path)``: the router's names are internally consistent
even if a shard's catalog (fed only its own queries) numbers collisions
differently.

One widening keeps this *exactly* faithful to what each shard's Stage 1
would produce: the evaluator's structural-edge witnesses treat a
descendant variable with no NFA binding of its own as bound through its
ancestor (any edge target counts when the descendant has no binding of its
own), and the processors' relevance check counts those edge-bound
variables.  The router therefore widens the NFA-bound set with every
registered edge's descendant whose ancestor is NFA-bound.  One level is
exhaustive: an edge anchored at a variable with no NFA binding of its own
yields no witness pairs, so edge-bound-ness never propagates further down.

The routed shard set is thus a superset of the shards where the document
produces witnesses a query could consume — routing changes which shards
*see* a document, never the match set.  Cancellation removes both members
(and, refcounted, the variables/edges), so retracted templates stop
attracting documents.
"""

from __future__ import annotations

from typing import Hashable, NamedTuple, Optional, Union

from repro.core.relevance import RelevanceIndex
from repro.templates.join_graph import JoinGraph, Side
from repro.templates.minor import ReducedJoinGraph, reduce_join_graph
from repro.xpath.evaluator import Stage1Registrations, XPathEvaluator
from repro.xscl.ast import XsclQuery
from repro.xscl.normalize import VariableCatalog, canonicalize_query
from repro.xscl.parser import parse_query

__all__ = ["RoutedQuery", "ShardRouter"]


class RoutedQuery(NamedTuple):
    """What the router derives from one join query (see :meth:`ShardRouter.derive`)."""

    canonical: XsclQuery  # in the router's own canonical variable names
    reduced: ReducedJoinGraph  # the reduced join graph of ``canonical``


class ShardRouter:
    """A variable→shard-set inverted index over the registered join queries."""

    def __init__(self) -> None:
        self._catalog = VariableCatalog()
        self._evaluator = XPathEvaluator()
        self._registrations = Stage1Registrations()
        self._index = RelevanceIndex()
        # live ancestor -> descendants of its registered structural edges
        # (the bound-set widening; entries leave when their last edge dies)
        self._edge_children: dict[str, set[str]] = {}
        self._num_queries = 0
        self.documents_routed = 0
        self.shards_dispatched = 0
        self.shards_skipped = 0

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def derive(self, query: XsclQuery) -> RoutedQuery:
        """The canonical form and reduced join graph :meth:`register` indexes.

        A pure function of the query while the router lives (its catalog
        only grows), so a caller may derive once per distinct text and pass
        the result to every :meth:`register` of that text.
        """
        canonical = canonicalize_query(query, self._catalog)
        return RoutedQuery(canonical, reduce_join_graph(JoinGraph.from_query(canonical)))

    def register(
        self,
        subscription_id: str,
        query: Union[str, XsclQuery],
        shard_id: Hashable,
        routed: Optional[RoutedQuery] = None,
    ) -> None:
        """Index one join subscription under its owning shard.

        ``routed`` is :meth:`derive` of the query, when the caller has it.
        """
        if routed is None:
            if isinstance(query, str):
                query = parse_query(query)
            routed = self.derive(query)
        canonical, reduced = routed
        patterns = {
            Side.LEFT: canonical.left.pattern,
            Side.RIGHT: canonical.right.pattern,
        }
        variables: list[str] = []
        left_vars: list[str] = []
        right_vars: list[str] = []
        for side, var in reduced.nodes:
            pattern = patterns[side]
            self._evaluator.register_variable(
                var, pattern.stream, pattern.absolute_path_of(var)
            )
            variables.append(var)
            (left_vars if side is Side.LEFT else right_vars).append(var)
        edges: list[tuple[str, str]] = []
        for (_, p_var), (_, c_var) in reduced.structural_edges:
            edges.append((p_var, c_var))
            self._edge_children.setdefault(p_var, set()).add(c_var)
        self._registrations.record(subscription_id, variables, edges)
        # Two members per query: "could match now" (right block) and "could
        # seed a future match" (left block).  A symmetric JOIN needs no
        # extra members — its ::swap twin's blocks are these two, swapped.
        self._index.add(shard_id, right_vars, member=(subscription_id, "rhs"))
        self._index.add(shard_id, left_vars, member=(subscription_id, "lhs"))
        self._num_queries += 1

    def cancel(self, subscription_id: str) -> bool:
        """Un-route a retracted subscription; returns whether it was indexed."""
        removed = self._index.remove((subscription_id, "rhs"))
        self._index.remove((subscription_id, "lhs"))
        dead_vars, dead_edges = self._registrations.withdraw(subscription_id)
        for ancestor, descendant in dead_edges:
            children = self._edge_children.get(ancestor)
            if children is not None:
                children.discard(descendant)
                if not children:
                    del self._edge_children[ancestor]
        if dead_vars:
            self._evaluator.deregister(variables=dead_vars)
        if removed:
            self._num_queries -= 1
        return removed

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def route(self, record: tuple) -> set:
        """The shards hosting at least one query this document can bind.

        ``record`` is the broker's ``(text, docid, timestamp, stream)`` form.
        """
        bound = self._evaluator.evaluate_text(*record).bound_variables()
        if bound and self._edge_children:
            widened = set(bound)
            for variable in bound:
                children = self._edge_children.get(variable)
                if children:
                    widened.update(children)
            bound = widened
        return self._index.relevant(bound)

    def account(self, dispatched: int, candidates: int) -> None:
        """Fold one routed document into the skip counters."""
        self.documents_routed += 1
        self.shards_dispatched += dispatched
        self.shards_skipped += candidates - dispatched

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def num_queries(self) -> int:
        """Number of join subscriptions currently indexed."""
        return self._num_queries

    def stats(self) -> dict:
        """Routing counters and index shape for the broker's stats view."""
        return {
            "queries": self._num_queries,
            "variables": self._index.num_variables,
            "documents_routed": self.documents_routed,
            "shards_dispatched": self.shards_dispatched,
            "shards_skipped": self.shards_skipped,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardRouter queries={self._num_queries} "
            f"skipped={self.shards_skipped}/{self.shards_dispatched + self.shards_skipped}>"
        )
