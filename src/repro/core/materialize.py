"""View materialization for the Join Processor (paper Section 5).

Instead of re-deriving, inside every template's conjunctive query, the join
of previous-document values with current-document values, the engine can
materialize once per document:

* ``Rvj (docid, node1, node2, strVal)`` — pairs of a previous-document node
  and a current-document node with equal string values,
* ``RL (docid, var1, var2, node1, node2, strVal)`` — ``Rvj`` joined with the
  structural-edge witnesses ``Rbin`` of previous documents,
* ``RR (var1, var2, node1, node2, strVal)`` — ``Rvj`` joined with the
  current document's ``RbinW``,
* ``RLvar`` / ``RRvar`` — the unary analogues over ``Rvar`` / ``RvarW``.

All templates' conjunctive queries are then evaluated over these shared
views, so the value-join work is done once instead of once per template.

The state side is read through the same id columns and group indexes the
compiled plans and the delta reduction probe
(:meth:`~repro.relational.columnar.ColumnStore.positions_of`): the common
values are a lookup of the current document's string values on
``Rdoc.strVal``, and ``RL`` / ``RLvar`` look the matched previous-document
nodes up on ``Rbin (docid, node2)`` / ``Rvar (docid, node)``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from repro.core.costs import CostBreakdown
from repro.core.state import JoinState
from repro.core.witnesses import WitnessRelations
from repro.relational.columnar import ColumnStore, ValueDictionary
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.templates.cqt import RELATION_SCHEMAS

#: The views' schemas, built once rather than once a document.
_SCHEMAS = {
    name: RelationSchema(RELATION_SCHEMAS[name]) for name in ("Rvj", "RL", "RR", "RLvar", "RRvar")
}

@dataclass
class MaterializedViews:
    """The materialized relations used by the Section 5 conjunctive queries."""

    rvj: Relation
    rl: Relation
    rr: Relation
    rlvar: Relation
    rrvar: Relation
    common_values: set[str]

    def relations(self) -> dict[str, Relation]:
        """The views keyed by their canonical relation names."""
        return {
            "Rvj": self.rvj,
            "RL": self.rl,
            "RR": self.rr,
            "RLvar": self.rlvar,
            "RRvar": self.rrvar,
        }


def compute_materialized_views(
    state: JoinState,
    witnesses: WitnessRelations,
    dictionary: ValueDictionary,
    costs: Optional[CostBreakdown] = None,
) -> MaterializedViews:
    """Compute ``Rvj``, ``RL``, ``RR`` (and unary analogues) for the current document.

    ``dictionary`` is the value dictionary of the evaluation environment the
    state is bound into; the state relations' column stores intern through
    it.  Phase timings are recorded into ``costs`` under ``"rvj"``, ``"rl"``
    and ``"rr"`` — the components shown in Figures 14 and 15.
    """
    costs = costs if costs is not None else CostBreakdown()

    # Rvj carries a docid column in this implementation so that node ids of
    # different previous documents cannot be confused; the paper's benchmark
    # only ever loads a single previous document, where the distinction does
    # not matter.
    rvj = Relation(_SCHEMAS["Rvj"], name="Rvj")
    rl = Relation(_SCHEMAS["RL"], name="RL")
    rr = Relation(_SCHEMAS["RR"], name="RR")
    rlvar = Relation(_SCHEMAS["RLvar"], name="RLvar")
    rrvar = Relation(_SCHEMAS["RRvar"], name="RRvar")

    if not witnesses.rdocw.rows:
        # A document without string-value witnesses can share no value with
        # the state: every view is empty, and syncing the state's id
        # columns would be wasted work.
        return MaterializedViews(
            rvj=rvj, rl=rl, rr=rr, rlvar=rlvar, rrvar=rrvar, common_values=set()
        )

    # ------------------------------------------------------------------ #
    # Rvj: semi-join on string values, then the value-pair relation.
    # ------------------------------------------------------------------ #
    with costs.measure("rvj"):
        current_by_value: dict[str, list[int]] = defaultdict(list)
        for node, value in witnesses.rdocw.rows:
            current_by_value[value].append(node)
        # Synced first, so every value the state holds is interned: a
        # current value without an id is in no previous document.
        rdoc_store = _synced(state.rdoc, dictionary)
        get_id = dictionary.get_id
        ids = {get_id(value) for value in current_by_value}
        ids.discard(None)
        positions = rdoc_store.positions_of(2, ids) if ids else []
        rdoc_rows = state.rdoc.rows
        previous = [rdoc_rows[p] for p in positions]  # (docid, node, strVal)
        common_values = {value for _, _, value in previous}
        rvj.rows = [
            (docid, prev_node, cur_node, value)
            for docid, prev_node, value in previous
            for cur_node in current_by_value[value]
        ]

    # ------------------------------------------------------------------ #
    # RL (and RLvar): previous-document bindings restricted to common values.
    # ------------------------------------------------------------------ #
    with costs.measure("rl"):
        values_of: dict[tuple, list[str]] = defaultdict(list)
        for docid, prev_node, value in previous:
            values_of[(docid, prev_node)].append(value)
        keys = {(get_id(docid), get_id(node)) for docid, node in values_of}
        rl.rows = [
            row + (value,)
            for row in _rows_at(state.rbin, dictionary, (0, 4), keys)
            for value in values_of[(row[0], row[4])]
        ]
        rlvar.rows = [
            row + (value,)
            for row in _rows_at(state.rvar, dictionary, (0, 2), keys)
            for value in values_of[(row[0], row[2])]
        ]

    # ------------------------------------------------------------------ #
    # RR (and RRvar): current-document bindings restricted to common values.
    # ------------------------------------------------------------------ #
    with costs.measure("rr"):
        rbinw_by_leaf: dict[int, list[tuple]] = defaultdict(list)
        for row in witnesses.rbinw.rows:
            rbinw_by_leaf[row[3]].append(row)  # keyed on node2 (the leaf node)
        rvarw_by_node: dict[int, list[tuple]] = defaultdict(list)
        for row in witnesses.rvarw.rows:
            rvarw_by_node[row[1]].append(row)
        seen_rr: set[tuple] = set()
        seen_rrvar: set[tuple] = set()
        for value in common_values:
            for cur_node in current_by_value[value]:
                for var1, var2, node1, node2 in rbinw_by_leaf.get(cur_node, ()):
                    row = (var1, var2, node1, node2, value)
                    if row not in seen_rr:
                        seen_rr.add(row)
                        rr.insert(row)
                for var, node in rvarw_by_node.get(cur_node, ()):
                    row = (var, node, value)
                    if row not in seen_rrvar:
                        seen_rrvar.add(row)
                        rrvar.insert(row)

    return MaterializedViews(
        rvj=rvj, rl=rl, rr=rr, rlvar=rlvar, rrvar=rrvar, common_values=common_values
    )


def _synced(relation: Relation, dictionary: ValueDictionary) -> ColumnStore:
    """``relation``'s column store over ``dictionary``, synced with its rows."""
    relation.enable_columnar(dictionary)
    return relation.column_store()


def _rows_at(relation: Relation, dictionary, key_cols: tuple, keys: set) -> list[tuple]:
    """The rows of ``relation`` whose ids on ``key_cols`` form a key in ``keys``."""
    if not keys:
        return []
    rows = relation.rows
    return [rows[p] for p in _synced(relation, dictionary).positions_of(key_cols, keys)]
