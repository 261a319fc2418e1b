"""Stage 2 join processing: one skeleton, two strategies.

The paper's Stage 2 is one loop per document — bind the witnesses, pick
the relevant *units*, evaluate one conjunctive query per unit (Algorithm
1/4), window-check and convert its rows (Algorithm 3), fold the document
into the state (Algorithm 2) — and :class:`_JoinProcessor` is that loop,
written once.  The two public processors differ only in what a unit is:

* :class:`MMQJPJoinProcessor` — a unit is a *query template*: one
  conjunctive query joins the template's ``RT`` relation and so evaluates
  all member queries at once, optionally over the materialized views of
  Section 5;
* :class:`SequentialJoinProcessor` — the paper's baseline: a unit is one
  query's own join graph with its constants inlined, so the FOLLOWED BY /
  JOIN operator of every query is evaluated separately.

A strategy supplies ``add_query`` / ``remove_query`` and the units to
evaluate for a set of relevant ids; everything else — state and evaluation
environment, match filter, delta context, the ``process`` loop, Algorithm 3
on the output rows, state maintenance and pruning — is the skeleton's.
Both consume the same inputs and produce the same matches.

Registration goes through the processor, which updates the relevance index
and records the query's :class:`~repro.core.results.MatchLayout` at the
point of change; a processor handed an already-populated registry indexes
its records once, at construction.  Algorithm 3 then costs a fixed amount
per output row: one window comparison and, if it holds, one row-backed
:class:`~repro.core.results.Match` whose bindings are built only when read.

Every document is evaluated the same way, whatever the configuration:

* units whose right-hand-side variables the current document did not all
  bind are skipped outright via an inverted index
  (:mod:`repro.core.relevance`);
* each remaining unit's conjunctive query runs through a compiled, cached
  plan (:mod:`repro.relational.plan`), *outward from the delta*: a
  semi-join reduction pass restricts every state relation to the rows
  reachable from the current document's witnesses before the main join
  runs (:class:`~repro.relational.conjunctive.DeltaProgram`), with one
  :class:`~repro.relational.conjunctive.DeltaContext` per document so
  reductions are shared across units — and a unit whose reduction meets an
  empty relation or join-variable domain ends there, without a main join.

Stage 2 has no switch: the evaluation environment owns a shared value
dictionary, every bound relation carries interned id columns, and the plan
executor and the reduction pass run batch kernels over them.
``tests/oracle.py`` states what every strategy and configuration must
deliver.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from repro.core.costs import CostBreakdown
from repro.core.materialize import compute_materialized_views
from repro.core.relevance import RelevanceIndex
from repro.core.results import Match, MatchLayout
from repro.core.state import JoinState
from repro.core.witnesses import WitnessRelations
from repro.relational.conjunctive import ConjunctiveQuery, DeltaContext
from repro.relational.database import IndexedDatabase
from repro.relational.plan import PlanCache
from repro.relational.terms import Const, Var
from repro.templates.join_graph import JoinGraph, Side
from repro.templates.minor import ReducedJoinGraph, reduce_join_graph
from repro.templates.registry import QueryShape, RegisteredQuery, TemplateRegistry
from repro.xscl.ast import JoinOperator, XsclQuery


def window_satisfied(operator: JoinOperator, delta: float, window: float) -> bool:
    """Algorithm 3's temporal check for one candidate match.

    ``delta`` is ``rhs_timestamp - lhs_timestamp`` (the current document is
    always the right-hand/following event).
    """
    if operator is JoinOperator.FOLLOWED_BY:
        return 0 < delta <= window
    return 0 <= delta <= window


class _Unit(NamedTuple):
    """One conjunctive query of Stage 2 and where its output rows hold what.

    The positions are resolved once per unit from the query's head schema.
    Both head shapes carry the query id, the left document and the window
    as columns; what a row cannot say — the operator and the variable
    names — is in each query's :class:`~repro.core.results.MatchLayout`
    (:meth:`_JoinProcessor._lay_out`), which shares the unit's node pairs.
    """

    cq: ConjunctiveQuery
    #: The one query id this unit can output, or ``None`` when each row
    #: names its own (a template): decides where the match filter applies.
    qid: Optional[str]
    qid_pos: int
    docid_pos: int
    window_pos: int
    lhs: tuple  # (row position, node key) of every left-block node
    rhs: tuple  # ... and of every right-block (current-document) node


def _make_unit(cq: ConjunctiveQuery, qid: Optional[str], nodes: Iterable[tuple]) -> _Unit:
    """Resolve a unit's positions; ``nodes`` yields ``(key, head attribute, side)``."""
    index_of = cq.head_schema.index
    lhs, rhs = [], []
    for key, attribute, side in nodes:
        (lhs if side is Side.LEFT else rhs).append((index_of(attribute), key))
    return _Unit(
        cq, qid, index_of("qid"), index_of("docid1"), index_of("wl"), tuple(lhs), tuple(rhs)
    )


class _JoinProcessor:
    """The Stage 2 skeleton shared by both strategies (see the module docstring).

    Parameters
    ----------
    state:
        A preloaded :class:`~repro.core.state.JoinState` to evaluate
        against.
    plan_cache:
        A preconfigured :class:`~repro.relational.plan.PlanCache` (e.g.
        with a growth budget) to use instead of a fresh one.
    """

    #: The template registry of the strategy (``None``: it keeps none).
    registry: Optional[TemplateRegistry] = None

    def __init__(self, state: Optional[JoinState], plan_cache: Optional[PlanCache]):
        self.state = state if state is not None else JoinState()
        self.costs = CostBreakdown()
        # The state relations are bound as *indexed* (stable): their id
        # columns and group indexes follow them incrementally; the
        # per-document witness and view relations are rebound ephemerally
        # each document.
        self.env = IndexedDatabase()
        for name, relation in self.state.relations().items():
            self.env.bind(name, relation, indexed=True)
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.relevance = RelevanceIndex()
        self.delta_stats = {"documents": 0, **dict.fromkeys(DeltaContext.COUNTERS, 0)}
        self.match_filter: Optional[Callable[[str], bool]] = None
        #: qid -> its MatchLayout: every query's rows read without its record.
        self._layouts: dict[str, MatchLayout] = {}

    @property
    def num_templates(self) -> Optional[int]:
        """Number of live query templates (``None``: the strategy keeps no registry)."""
        return None if self.registry is None else self.registry.num_templates

    def set_match_filter(self, match_filter: Optional[Callable[[str], bool]]) -> None:
        """Suppress match construction for query ids the filter rejects.

        The filter receives a query id and returns whether its matches are
        worth materializing (e.g. the broker's "subscription exists and is
        active" check), once per query id and document.  Rejected rows skip
        Algorithm 3 entirely — no window check, no
        :class:`~repro.core.results.Match`, and a unit that can only output
        a rejected query id is not even evaluated — so they also never
        appear in ``num_matches`` statistics.  ``None`` restores the
        build-everything behavior.
        """
        self.match_filter = match_filter

    # ------------------------------------------------------------------ #
    # what a strategy supplies
    # ------------------------------------------------------------------ #
    def add_query(
        self, qid: str, query: XsclQuery, shape: Optional[QueryShape] = None
    ) -> QueryShape:
        """Register one (canonicalized) join query; returns its :class:`QueryShape`.

        The shape's reduced join graph holds the variables and edges the
        engine registers with Stage 1.  ``shape`` is what an earlier
        ``add_query`` of an equal query returned; passing it back skips
        re-deriving the graph (and, under MMQJP, the template match).
        Raises :class:`ValueError` for an already-registered id.
        """
        raise NotImplementedError

    def remove_query(self, qid: str) -> None:
        """Retract one registered query with its postings and, once unused, its plan.

        Raises :class:`KeyError` for unknown query ids.
        """
        raise NotImplementedError

    def _units(self, relevant: set) -> Iterable[_Unit]:
        """The units of the ``relevant`` groups, in registration order."""
        raise NotImplementedError

    def _before_units(self, witnesses: WitnessRelations, relevant: set) -> None:
        """Per-document work ahead of the unit loop (MMQJP: the Section 5 views)."""

    def _retire(self, unit: _Unit) -> None:
        """Drop what was compiled for a unit nothing can reach any more."""
        self.plan_cache.invalidate(unit.cq)

    def _lay_out(self, qid: str, query: XsclQuery, unit: _Unit, names: Mapping) -> None:
        """Record how ``qid``'s rows of ``unit`` read; ``names`` maps node keys to variables."""
        self._layouts[qid] = MatchLayout(
            query.join.operator is JoinOperator.FOLLOWED_BY, unit.lhs, unit.rhs, names
        )

    # ------------------------------------------------------------------ #
    # Algorithm 1 / Algorithm 4, with Algorithm 3 on every output row
    # ------------------------------------------------------------------ #
    def process(self, witnesses: WitnessRelations) -> list[Match]:
        """Evaluate all registered queries against the current document's witnesses.

        Algorithm 3 runs on each output row: the window check (FOLLOWED BY
        ``0 < Δ ≤ w``, JOIN ``0 ≤ Δ ≤ w``, as :func:`window_satisfied`),
        then one row-backed :class:`Match`.  What a row does not change is
        resolved once per document: each query id's layout and match
        filter verdict, each left document's timestamp.  No match is
        de-duplicated here: a query id belongs to one unit, whose head is
        distinct over the query id, the left document and every node of
        the layout, so rows and :meth:`Match.key` values correspond one to
        one.
        """
        env = self.env
        env.bind_all(witnesses.relations())
        relevant = self.relevance.relevant(witnesses.bound_variables())
        delta = DeltaContext()
        self._before_units(witnesses, relevant)

        evaluate = self.plan_cache.evaluate
        measure = self.costs.measure
        layouts, match_filter = self._layouts, self.match_filter
        # qid -> its layout, or None once the filter rejected it
        admitted = layouts if match_filter is None else {}
        timestamp_of = self.state.timestamp_of
        lhs_timestamps: dict = {}
        rhs_docid, rhs_timestamp = witnesses.docid, witnesses.timestamp
        from_row = Match.from_row
        matches: list[Match] = []
        append = matches.append
        for unit in self._units(relevant):
            if unit.qid is not None and match_filter is not None:
                if not match_filter(unit.qid):
                    continue  # undeliverable query: never run its plan
                admitted[unit.qid] = layouts[unit.qid]
            with measure("conjunctive_query"):
                rows = evaluate(unit.cq, env, delta=delta).rows
            if not rows:
                continue
            with measure("window_check"):
                qid_pos, docid_pos, window_pos = unit.qid_pos, unit.docid_pos, unit.window_pos
                for row in rows:
                    qid = row[qid_pos]
                    layout = admitted.get(qid)
                    if layout is None:
                        if qid in admitted:
                            continue  # undeliverable: never build the Match
                        layout = admitted[qid] = layouts[qid] if match_filter(qid) else None
                        if layout is None:
                            continue
                    lhs_docid = row[docid_pos]
                    lhs_timestamp = lhs_timestamps.get(lhs_docid)
                    if lhs_timestamp is None:
                        lhs_timestamp = lhs_timestamps[lhs_docid] = timestamp_of(lhs_docid)
                    window = row[window_pos]
                    delta_t = rhs_timestamp - lhs_timestamp
                    if (0 < delta_t <= window) if layout.strict else (0 <= delta_t <= window):
                        append(
                            from_row(
                                qid, lhs_docid, rhs_docid, lhs_timestamp, rhs_timestamp,
                                window, row, layout,
                            )
                        )
        stats = self.delta_stats
        stats["documents"] += 1
        for counter, value in delta.stats().items():
            stats[counter] += value
        return matches

    # ------------------------------------------------------------------ #
    # Algorithm 2, pruning and retraction of state
    # ------------------------------------------------------------------ #
    def maintain_state(self, witnesses: WitnessRelations) -> None:
        """Fold the current document into the join state."""
        with self.costs.measure("state_maintenance"):
            self.state.merge(witnesses)

    def prune_state(self, min_timestamp: float) -> set[str]:
        """Drop state older than ``min_timestamp``; returns the dropped docids.

        The stale set is computed once, here, and handed back so the engine
        drops exactly those stored documents and store rows.
        """
        stale = self.state.stale_docids(min_timestamp)
        self.state.drop_documents(stale)
        return stale

    def drop_variables(self, variables: set[str]) -> int:
        """Reclaim join-state rows of variables no longer used by any query."""
        return self.state.drop_variables(variables)

    def clear_state(self) -> None:
        """Drop all join state (last query deregistered)."""
        self.state.clear()


class MMQJPJoinProcessor(_JoinProcessor):
    """Template-based multi-query join processing (Algorithms 1, 2 and 4).

    Parameters
    ----------
    registry:
        The :class:`~repro.templates.registry.TemplateRegistry` to evaluate;
        queries it already holds are indexed here, later ones register
        through :meth:`add_query`.
    use_view_materialization:
        Evaluate over the Section 5 views ``RL`` / ``RR``, computed for
        every document a template is relevant to.
    state / plan_cache:
        As for :class:`_JoinProcessor`.
    """

    def __init__(
        self,
        registry: TemplateRegistry,
        state: Optional[JoinState] = None,
        use_view_materialization: bool = False,
        plan_cache: Optional[PlanCache] = None,
    ):
        super().__init__(state, plan_cache)
        self.registry = registry
        self.use_view_materialization = bool(use_view_materialization)
        self.templates_skipped = 0
        self._template_units: dict[int, _Unit] = {}
        for record in registry.queries():
            self._index(record)

    # ------------------------------------------------------------------ #
    # registration and retraction
    # ------------------------------------------------------------------ #
    def add_query(
        self, qid: str, query: XsclQuery, shape: Optional[QueryShape] = None
    ) -> QueryShape:
        record = self.registry.add_query(qid, query, shape)
        self._index(record)
        return record.shape

    def _index(self, record: RegisteredQuery) -> None:
        """Post one registry record: its template's unit, its layout and its relevance entry."""
        template = record.template
        sides = template.node_sides
        unit = self._template_units.get(template.template_id)
        if unit is None:
            unit = self._template_units[template.template_id] = _make_unit(
                self.registry.cqt(template, materialized=self.use_view_materialization),
                None,
                ((meta, f"node_{meta}", sides[meta]) for meta in template.meta_order),
            )
        names = record.names
        self._lay_out(record.qid, record.query, unit, names)
        self.relevance.add(
            template.template_id,
            (names[meta] for meta in template.meta_order if sides[meta] is Side.RIGHT),
            member=record.qid,
        )

    def remove_query(self, qid: str) -> None:
        """Retract one registered query (engine-level ``deregister_query`` path).

        Removes the query's ``RT`` tuple, layout and relevance posting; when
        its template is left with no member queries the template's unit and
        compiled plan are dropped too (the template entry itself is retired
        in place and revived on re-registration).
        """
        record = self.registry.remove_query(qid)
        del self._layouts[qid]
        self.relevance.remove(qid)
        if not self.registry.has_queries(record.template):
            self._retire(self._template_units.pop(record.template.template_id))

    def _units(self, relevant: set) -> list[_Unit]:
        registry, env, units = self.registry, self.env, self._template_units
        out = []
        for template in registry.templates:
            if template.template_id not in relevant:
                self.templates_skipped += 1
                continue
            # Bound per document, not once: processors sharing a registry
            # share its RT relations, and binding is what points a
            # relation's column store at this environment's dictionary.
            env.bind(template.rt_relation_name(), registry.rt_relation(template), indexed=True)
            out.append(units[template.template_id])
        return out

    # ------------------------------------------------------------------ #
    # Section 5: materialized views
    # ------------------------------------------------------------------ #
    def _before_units(self, witnesses: WitnessRelations, relevant: set) -> None:
        if self.use_view_materialization and relevant:
            views = compute_materialized_views(
                self.state, witnesses, self.env.dictionary, costs=self.costs
            )
            self.env.bind_all(views.relations())


# --------------------------------------------------------------------------- #
# the Sequential baseline
# --------------------------------------------------------------------------- #
def build_per_query_cq(qid: str, query: XsclQuery, reduced: ReducedJoinGraph) -> ConjunctiveQuery:
    """Build the stand-alone conjunctive query used by the Sequential baseline.

    The query has the same shape as a template's ``CQT`` but all variable
    names are constants and there is no ``RT`` relation — it evaluates
    exactly one XSCL query.
    """
    def node_var(key) -> Var:
        return Var(f"n_{key[0].value}_{key[1]}")

    side_nodes = sorted(reduced.nodes, key=lambda k: (k[0].value, k[1]))
    head_schema = ["qid", "docid1"] + [f"node_{k[0].value}_{k[1]}" for k in side_nodes] + ["wl"]
    head_terms = [Const(qid), Var("docid")] + [node_var(k) for k in side_nodes] + [
        Const(query.join.window)
    ]
    cq = ConjunctiveQuery(
        head_name=f"Rout_query_{qid}",
        head_schema=head_schema,
        head_terms=head_terms,
    )

    for i, (left_key, right_key) in enumerate(reduced.value_edges):
        s = Var(f"s_{i}")
        cq.add_atom("Rdoc", [Var("docid"), node_var(left_key), s])
        cq.add_atom("RdocW", [node_var(right_key), s])

    for parent, child in reduced.structural_edges:
        if parent[0] is Side.LEFT:
            cq.add_atom(
                "Rbin",
                [Var("docid"), Const(parent[1]), Const(child[1]), node_var(parent), node_var(child)],
            )
        else:
            cq.add_atom(
                "RbinW", [Const(parent[1]), Const(child[1]), node_var(parent), node_var(child)]
            )

    for key in reduced.isolated_nodes():
        if key[0] is Side.LEFT:
            cq.add_atom("Rvar", [Var("docid"), Const(key[1]), node_var(key)])
        else:
            cq.add_atom("RvarW", [Const(key[1]), node_var(key)])
    return cq


class SequentialJoinProcessor(_JoinProcessor):
    """The paper's baseline: evaluate every query's join operator separately.

    The skeleton's machinery applies at per-query granularity: each query's
    conjunctive query is compiled once, queries whose RHS variables the
    current document did not bind are skipped entirely, and the per-query
    joins run over delta-reduced state relations (shared across the
    document's queries through one
    :class:`~repro.relational.conjunctive.DeltaContext`).
    Touches no template registry, ``RT`` relation or ``CQT``.
    """

    def __init__(
        self,
        state: Optional[JoinState] = None,
        plan_cache: Optional[PlanCache] = None,
    ):
        super().__init__(state, plan_cache)
        self._queries: dict[str, _Unit] = {}

    def add_query(
        self, qid: str, query: XsclQuery, shape: Optional[QueryShape] = None
    ) -> QueryShape:
        if qid in self._queries:
            raise ValueError(f"query id {qid!r} is already registered")
        if shape is None:
            shape = QueryShape(reduce_join_graph(JoinGraph.from_query(query)))
        reduced = shape.reduced
        unit = self._queries[qid] = _make_unit(
            build_per_query_cq(qid, query, reduced),
            qid,
            ((var, f"node_{side.value}_{var}", side) for side, var in reduced.nodes),
        )
        # A per-query CQ names its own variables: a node's key is its name.
        self._lay_out(qid, query, unit, {var: var for _, var in reduced.nodes})
        self.relevance.add(
            qid, (var for side, var in reduced.nodes if side is Side.RIGHT), member=qid
        )
        return shape

    def remove_query(self, qid: str) -> None:
        try:
            unit = self._queries.pop(qid)
        except KeyError:
            raise KeyError(f"query id {qid!r} is not registered") from None
        del self._layouts[qid]
        self.relevance.remove(qid)
        self._retire(unit)

    def _units(self, relevant: set) -> list[_Unit]:
        return [unit for qid, unit in self._queries.items() if qid in relevant]
