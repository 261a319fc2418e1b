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
The optional :class:`ViewCache` additionally caches *slices* of ``RL`` keyed
on string value (Algorithms 4 and 5), so that work done for previous
documents is remembered across the stream.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.costs import CostBreakdown
from repro.core.state import JoinState
from repro.core.witnesses import WitnessRelations
from repro.relational.relation import Relation
from repro.templates.cqt import RELATION_SCHEMAS


class ViewCache:
    """An LRU cache of ``RL`` slices keyed on string value (Section 5).

    Each entry holds the rows of ``RL`` whose ``strVal`` equals the key.
    ``max_entries=None`` means an unbounded cache.
    """

    def __init__(self, max_entries: Optional[int] = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None for unbounded)")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, list[tuple]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, value: str) -> Optional[list[tuple]]:
        """Return the cached ``RL`` rows for ``value`` (marking it recently used)."""
        rows = self._entries.get(value)
        if rows is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(value)
        return rows

    def put(self, value: str, rows: list[tuple]) -> None:
        """Insert or replace the entry for ``value`` (evicting LRU entries if needed)."""
        self._entries[value] = list(rows)
        self._entries.move_to_end(value)
        while self.max_entries is not None and len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def append(self, value: str, rows: Iterable[tuple]) -> None:
        """Add rows to an existing entry (no-op if ``value`` is not cached)."""
        if value in self._entries:
            self._entries[value].extend(rows)

    def remove_documents(self, docids: set[str]) -> None:
        """Drop cached rows belonging to pruned documents."""
        for value, rows in list(self._entries.items()):
            kept = [row for row in rows if row[0] not in docids]
            if kept:
                self._entries[value] = kept
            else:
                del self._entries[value]

    def clear(self) -> None:
        """Drop every cached slice (query-retraction path; counters are kept)."""
        self._entries.clear()

    def __contains__(self, value: str) -> bool:
        return value in self._entries

    def __len__(self) -> int:
        return len(self._entries)


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
    view_cache: Optional[ViewCache] = None,
    costs: Optional[CostBreakdown] = None,
) -> MaterializedViews:
    """Compute ``Rvj``, ``RL``, ``RR`` (and unary analogues) for the current document.

    Phase timings are recorded into ``costs`` under ``"rvj"``, ``"rl"`` and
    ``"rr"`` — the components shown in Figures 14 and 15.
    """
    costs = costs if costs is not None else CostBreakdown()

    # Rvj carries a docid column in this implementation so that node ids of
    # different previous documents cannot be confused; the paper's benchmark
    # only ever loads a single previous document, where the distinction does
    # not matter.
    rvj = Relation(RELATION_SCHEMAS["Rvj"], name="Rvj")
    rl = Relation(RELATION_SCHEMAS["RL"], name="RL")
    rr = Relation(RELATION_SCHEMAS["RR"], name="RR")
    rlvar = Relation(RELATION_SCHEMAS["RLvar"], name="RLvar")
    rrvar = Relation(RELATION_SCHEMAS["RRvar"], name="RRvar")

    if not witnesses.rdocw.rows:
        # A document without string-value witnesses can share no value with
        # the state: every view is empty, and probing (or building) the
        # state's Rdoc index would be wasted work.
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
        previous_by_value: dict[str, list[tuple[str, int]]] = defaultdict(list)
        # Persistent index: only the current document's values are probed,
        # so the semi-join never scans the full Rdoc state.
        rdoc_index = state.index_on("Rdoc", ("strVal",))
        common_values = {v for v in current_by_value if v in rdoc_index}
        for value in common_values:
            for docid, node, _ in rdoc_index.lookup(value):
                previous_by_value[value].append((docid, node))
        for value in common_values:
            for docid, prev_node in previous_by_value[value]:
                for cur_node in current_by_value[value]:
                    rvj.insert((docid, prev_node, cur_node, value))

    # ------------------------------------------------------------------ #
    # RL (and RLvar): previous-document bindings restricted to common values.
    # ------------------------------------------------------------------ #
    with costs.measure("rl"):
        if view_cache is None:
            _compute_rl_direct(state, common_values, previous_by_value, rl, rlvar)
        else:
            _compute_rl_cached(state, common_values, previous_by_value, rl, rlvar, view_cache)

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


def _rbin_leaf_lookup(state: JoinState):
    """Rbin rows by (docid, leaf node), from the state's shared live index."""
    return state.index_on("Rbin", ("docid", "node2")).lookup


def _rvar_node_lookup(state: JoinState):
    """Rvar rows by (docid, node), from the state's shared live index."""
    return state.index_on("Rvar", ("docid", "node")).lookup


def _compute_rl_direct(
    state: JoinState,
    common_values: set[str],
    previous_by_value: dict[str, list[tuple[str, int]]],
    rl: Relation,
    rlvar: Relation,
) -> None:
    """Compute RL/RLvar from scratch for every common string value."""
    rbin_of = _rbin_leaf_lookup(state)
    rvar_of = _rvar_node_lookup(state)
    for value in common_values:
        for docid, prev_node in previous_by_value[value]:
            for _, var1, var2, node1, node2 in rbin_of(docid, prev_node):
                rl.insert((docid, var1, var2, node1, node2, value))
            for _, var, node in rvar_of(docid, prev_node):
                rlvar.insert((docid, var, node, value))


def _compute_rl_cached(
    state: JoinState,
    common_values: set[str],
    previous_by_value: dict[str, list[tuple[str, int]]],
    rl: Relation,
    rlvar: Relation,
    view_cache: ViewCache,
) -> None:
    """Compute RL per string value, consulting (and filling) the view cache.

    ``RLvar`` is always recomputed — it is tiny compared to ``RL`` and keeping
    it out of the cache keeps Algorithm 5 identical to the paper.
    """
    rbin_of = None
    rvar_of = _rvar_node_lookup(state)

    for value in sorted(common_values):
        cached = view_cache.get(value)
        if cached is None:
            if rbin_of is None:
                rbin_of = _rbin_leaf_lookup(state)
            slice_rows: list[tuple] = []
            for docid, prev_node in previous_by_value[value]:
                for _, var1, var2, node1, node2 in rbin_of(docid, prev_node):
                    slice_rows.append((docid, var1, var2, node1, node2, value))
            view_cache.put(value, slice_rows)
            cached = slice_rows
        rl.insert_many(cached)
        for docid, prev_node in previous_by_value[value]:
            for _, var, node in rvar_of(docid, prev_node):
                rlvar.insert((docid, var, node, value))


def maintain_view_cache(
    view_cache: ViewCache,
    views: MaterializedViews,
    current_docid: str,
) -> None:
    """Algorithm 5: fold the current document's ``RR`` slices into the cached ``RL`` slices.

    Rows of ``RR`` become ``RL`` rows of the (now previous) current document,
    so future documents that share a string value reuse them without
    touching ``Rbin``.
    """
    by_value: dict[str, list[tuple]] = defaultdict(list)
    for var1, var2, node1, node2, value in views.rr.rows:
        by_value[value].append((current_docid, var1, var2, node1, node2, value))
    for value, rows in by_value.items():
        if value in view_cache:
            view_cache.append(value, rows)
        else:
            view_cache.put(value, rows)
