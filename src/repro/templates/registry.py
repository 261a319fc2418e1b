"""The template registry: partitions queries into template equivalence classes.

``TemplateRegistry.add_query`` computes a query's join graph, reduces it
(graph minor), and either matches it against an existing template or mints a
new one; the two results form the query's :class:`QueryShape`, which a
caller may pass back to register an equal query without recomputing either.
It also maintains, per template, the relation ``RT`` (one tuple per query)
and the compiled conjunctive queries (base and materialized forms), which is
everything the Join Processor needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.relational.conjunctive import ConjunctiveQuery
from repro.relational.relation import Relation
from repro.templates.cqt import build_cqt, build_cqt_materialized
from repro.templates.join_graph import JoinGraph
from repro.templates.minor import ReducedJoinGraph, reduce_join_graph
from repro.templates.template import (
    QueryTemplate,
    TemplateAssignment,
    reduced_graph_signature,
    signature_key,
)
from repro.xscl.ast import XsclQuery


def _full_graph_as_reduced(join_graph: JoinGraph) -> ReducedJoinGraph:
    """Wrap a full join graph in the reduced-graph interface (ablation path)."""
    reduced = ReducedJoinGraph()
    reduced.nodes = set(join_graph.nodes)
    reduced.structural_edges = list(join_graph.structural_edges)
    reduced.value_edges = list(join_graph.value_edges)
    return reduced


def _graph_key(reduced: ReducedJoinGraph) -> tuple:
    """Hashable identity of a reduced graph (exact nodes and edge sets).

    Two reduced graphs with the same key are the same graph (edge *lists*
    are normalized by sorting — they are semantically sets), so a template
    assignment computed for one is valid for the other verbatim.
    """
    return (
        tuple(sorted((side.value, name) for side, name in reduced.nodes)),
        tuple(
            sorted(
                ((ps.value, pn), (cs.value, cn))
                for (ps, pn), (cs, cn) in reduced.structural_edges
            )
        ),
        tuple(
            sorted(
                ((ls.value, ln), (rs.value, rn))
                for (ls, ln), (rs, rn) in reduced.value_edges
            )
        ),
    )


class QueryShape(NamedTuple):
    """What registering a canonical query derives from the query alone.

    The reduced join graph and, under a template registry, the template
    assignment (``None`` for the sequential strategy, which keeps no
    templates).  Both are pure functions of the canonical query, so a shape
    computed for one registration is valid for every later registration of
    an equal query.
    """

    reduced: ReducedJoinGraph
    assignment: Optional[TemplateAssignment] = None


@dataclass
class RegisteredQuery:
    """Bookkeeping for one registered query."""

    qid: str
    query: XsclQuery
    assignment: TemplateAssignment
    reduced: ReducedJoinGraph
    window: float

    @property
    def template(self) -> QueryTemplate:
        """The template this query belongs to."""
        return self.assignment.template

    @property
    def names(self) -> dict[str, str]:
        """Meta-variable -> this query's variable name (what its ``RT`` tuple stores)."""
        return self.assignment.assignment

    @property
    def shape(self) -> QueryShape:
        """The reduced graph and template assignment, reusable for an equal query."""
        return QueryShape(self.reduced, self.assignment)


@dataclass
class _TemplateEntry:
    template: QueryTemplate
    rt: Relation
    cqt: ConjunctiveQuery
    cqt_materialized: ConjunctiveQuery
    # Insertion-ordered membership set: O(1) add and remove where a list
    # would make every retraction a linear scan of the template's members.
    query_ids: dict[str, None] = field(default_factory=dict)
    # qid -> row position in ``rt``, maintained under swap-deletion, so a
    # retraction removes the query's RT tuple in O(1) instead of scanning
    # the (potentially hundred-thousand-row) relation for it.
    rt_pos: dict[str, int] = field(default_factory=dict)


class TemplateRegistry:
    """Partition registered queries into query templates and maintain RT.

    Parameters
    ----------
    use_graph_minor:
        Apply the Section 4.2 graph-minor reduction before template matching
        (the default).  Disabling it — templates are then isomorphism classes
        of the *full* join graphs — is only useful for the ablation study:
        far fewer queries share a template.
    """

    def __init__(self, use_graph_minor: bool = True) -> None:
        self.use_graph_minor = use_graph_minor
        self._entries: list[_TemplateEntry] = []
        self._by_signature: dict[tuple, list[_TemplateEntry]] = {}
        self._queries: dict[str, RegisteredQuery] = {}
        # Exact reduced-graph -> assignment memo, the layer under the
        # engines' text memo (repro.xscl.memo): a live text's later
        # subscribers pass their shape in and never get here; this serves
        # the first subscriber of a text whose reduced graph the registry
        # has seen — a text resubscribed after its last cancel dropped it,
        # or a different text reducing to the same graph — and skips the
        # isomorphism test.  Entries are never invalidated — templates are
        # retired in place, not deleted, so a cached assignment stays
        # correct forever.
        self._assignment_memo: dict[tuple, TemplateAssignment] = {}
        #: Bumped whenever a template gains its first member or loses its
        #: last: the set of live templates changed (see :meth:`live_template_keys`).
        self.live_version = 0

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def add_query(
        self, qid: str, query: XsclQuery, shape: Optional[QueryShape] = None
    ) -> RegisteredQuery:
        """Register a (canonicalized) join query and return its bookkeeping record.

        ``shape`` is the :attr:`RegisteredQuery.shape` of an earlier
        registration of an equal query; passing it skips the join graph,
        its reduction and the template match.
        """
        if qid in self._queries:
            raise ValueError(f"query id {qid!r} is already registered")
        if shape is None:
            join_graph = JoinGraph.from_query(query)
            if self.use_graph_minor:
                reduced = reduce_join_graph(join_graph)
            else:
                reduced = _full_graph_as_reduced(join_graph)
            assignment = self._match_or_create(reduced)
        else:
            reduced, assignment = shape
        entry = self._entry_of(assignment.template)
        if not entry.query_ids:
            self.live_version += 1
        window = query.join.window
        entry.rt_pos[qid] = len(entry.rt.rows)
        entry.rt.insert(assignment.rt_values(qid, window))
        entry.query_ids[qid] = None

        record = RegisteredQuery(
            qid=qid,
            query=query,
            assignment=assignment,
            reduced=reduced,
            window=window,
        )
        self._queries[qid] = record
        return record

    def remove_query(self, qid: str) -> RegisteredQuery:
        """Retract a registered query and return its (former) record.

        The query's ``RT`` tuple is deleted and its template's membership
        shrinks; a template left with no member queries is *retired* — it
        keeps its id (ids index internal tables) and is revived in place if
        an equivalent query registers again, but it no longer counts toward
        :attr:`num_templates` and no longer appears in :attr:`templates`.
        Raises :class:`KeyError` for unknown query ids.
        """
        record = self._queries.pop(qid)
        entry = self._entries[record.template.template_id]
        del entry.query_ids[qid]
        if not entry.query_ids:
            self.live_version += 1
        # O(1) RT removal: swap-delete at the tracked position, then repoint
        # the position map at whichever row was swapped into the hole.
        position = entry.rt_pos.pop(qid)
        entry.rt.swap_delete_at(position)
        if position < len(entry.rt.rows):
            moved_qid = entry.rt.rows[position][0]
            entry.rt_pos[moved_qid] = position
        return record

    def __contains__(self, qid: str) -> bool:
        return qid in self._queries

    def _match_or_create(self, reduced: ReducedJoinGraph) -> TemplateAssignment:
        key = _graph_key(reduced)
        cached = self._assignment_memo.get(key)
        if cached is not None:
            return cached

        for entry in self._by_signature.get(reduced_graph_signature(reduced), ()):
            assignment = entry.template.match(reduced)
            if assignment is not None:
                self._assignment_memo[key] = assignment
                return assignment

        template, assignment = QueryTemplate.from_reduced(len(self._entries), reduced)
        entry = _TemplateEntry(
            template=template,
            rt=Relation(template.rt_schema(), name=template.rt_relation_name()),
            cqt=build_cqt(template),
            cqt_materialized=build_cqt_materialized(template),
        )
        self._entries.append(entry)
        self._by_signature.setdefault(template.signature, []).append(entry)
        self._assignment_memo[key] = assignment
        return assignment

    def _entry_of(self, template: QueryTemplate) -> _TemplateEntry:
        return self._entries[template.template_id]

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    @property
    def templates(self) -> list[QueryTemplate]:
        """All *live* templates (with at least one member query), in creation order."""
        return [e.template for e in self._entries if e.query_ids]

    @property
    def num_templates(self) -> int:
        """Number of distinct live templates."""
        return sum(1 for e in self._entries if e.query_ids)

    @property
    def num_retired_templates(self) -> int:
        """Templates whose member queries were all cancelled (kept for revival)."""
        return sum(1 for e in self._entries if not e.query_ids)

    @property
    def num_queries(self) -> int:
        """Number of registered queries."""
        return len(self._queries)

    def queries(self) -> list[RegisteredQuery]:
        """All registered query records."""
        return list(self._queries.values())

    def query(self, qid: str) -> RegisteredQuery:
        """The record of one registered query."""
        return self._queries[qid]

    def rt_relation(self, template: QueryTemplate) -> Relation:
        """The RT relation of ``template`` (one tuple per member query)."""
        return self._entry_of(template).rt

    def cqt(self, template: QueryTemplate, materialized: bool = False) -> ConjunctiveQuery:
        """The compiled conjunctive query of ``template``."""
        entry = self._entry_of(template)
        return entry.cqt_materialized if materialized else entry.cqt

    def queries_of(self, template: QueryTemplate) -> list[str]:
        """Query ids belonging to ``template``."""
        return list(self._entry_of(template).query_ids)

    def has_queries(self, template: QueryTemplate) -> bool:
        """Whether ``template`` has any member query (O(1); no list copy)."""
        return bool(self._entry_of(template).query_ids)

    def template_sizes(self) -> dict[int, int]:
        """Mapping template id -> number of member queries."""
        return {e.template.template_id: len(e.query_ids) for e in self._entries}

    def live_template_keys(self) -> list[str]:
        """The sorted :func:`signature_key` of every live template.

        Template ids follow creation order, which cancels and resubscribes
        reshuffle; a template's degree signature is a function of its
        members' reduced graph, so a replay of the live members derives the
        same multiset of keys.
        """
        return sorted(signature_key(e.template.signature) for e in self._entries if e.query_ids)
