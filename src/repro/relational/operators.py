"""Relational operators over :class:`~repro.relational.relation.Relation`.

All operators are pure functions returning new relations.  Joins are hash
joins; semantics are bag semantics unless stated otherwise (mirroring what a
SQL engine would produce without DISTINCT).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Sequence

from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema, SchemaError


# --------------------------------------------------------------------------- #
# unary operators
# --------------------------------------------------------------------------- #
def select(relation: Relation, predicate: Callable[[dict[str, object]], bool]) -> Relation:
    """Selection σ: keep rows satisfying ``predicate`` (called on a row dict)."""
    return relation.where(predicate)


def select_eq(relation: Relation, attribute: str, value) -> Relation:
    """Selection with a single equality condition ``attribute = value``."""
    i = relation.schema.index_of(attribute)
    out = Relation(relation.schema, name=relation.name)
    out.rows = [row for row in relation.rows if row[i] == value]
    return out


def project(relation: Relation, attributes: Sequence[str], distinct: bool = False) -> Relation:
    """Projection π onto ``attributes`` (in the given order).

    With ``distinct=True`` duplicate projected rows are removed (set semantics).
    """
    idx = relation.schema.indexes_of(attributes)
    out = Relation(RelationSchema(attributes), name=relation.name)
    if distinct:
        seen: set[tuple] = set()
        for row in relation.rows:
            t = tuple(row[i] for i in idx)
            if t not in seen:
                seen.add(t)
                out.rows.append(t)
    else:
        out.rows = [tuple(row[i] for i in idx) for row in relation.rows]
    return out


def rename(relation: Relation, mapping: dict[str, str], name: str | None = None) -> Relation:
    """Rename attributes according to ``mapping`` (ρ)."""
    out = Relation(relation.schema.rename(mapping), name=name if name is not None else relation.name)
    out.rows = list(relation.rows)
    return out


def distinct(relation: Relation) -> Relation:
    """Duplicate elimination δ."""
    return relation.distinct()


# --------------------------------------------------------------------------- #
# set / bag operators
# --------------------------------------------------------------------------- #
def union(left: Relation, right: Relation, distinct_rows: bool = False) -> Relation:
    """Bag union (``UNION ALL``), or set union with ``distinct_rows=True``."""
    if left.schema != right.schema:
        raise SchemaError(f"union over incompatible schemas {left.schema} vs {right.schema}")
    out = Relation(left.schema, name=left.name)
    out.rows = list(left.rows) + list(right.rows)
    return out.distinct() if distinct_rows else out


def difference(left: Relation, right: Relation) -> Relation:
    """Set difference (rows of ``left`` not present in ``right``)."""
    if left.schema != right.schema:
        raise SchemaError(f"difference over incompatible schemas {left.schema} vs {right.schema}")
    right_rows = set(right.rows)
    out = Relation(left.schema, name=left.name)
    out.rows = [row for row in left.rows if row not in right_rows]
    return out


def intersection(left: Relation, right: Relation) -> Relation:
    """Set intersection."""
    if left.schema != right.schema:
        raise SchemaError(f"intersection over incompatible schemas {left.schema} vs {right.schema}")
    right_rows = set(right.rows)
    out = Relation(left.schema, name=left.name)
    seen: set[tuple] = set()
    for row in left.rows:
        if row in right_rows and row not in seen:
            seen.add(row)
            out.rows.append(row)
    return out


def cartesian(left: Relation, right: Relation, name: str = "") -> Relation:
    """Cartesian product ×.  Attribute names must not collide."""
    schema = left.schema.concat(right.schema)
    out = Relation(schema, name=name)
    out.rows = [l + r for l in left.rows for r in right.rows]
    return out


# --------------------------------------------------------------------------- #
# joins
# --------------------------------------------------------------------------- #
def _build_hash(relation: Relation, key_idx: Sequence[int]) -> dict[tuple, list[tuple]]:
    table: dict[tuple, list[tuple]] = defaultdict(list)
    for row in relation.rows:
        table[tuple(row[i] for i in key_idx)].append(row)
    return table


def equi_join(
    left: Relation,
    right: Relation,
    on: Sequence[tuple[str, str]],
    name: str = "",
) -> Relation:
    """Equi hash join on pairs of attributes ``on = [(left_attr, right_attr), ...]``.

    The result schema is the concatenation of both schemas; right attributes
    that would collide with a left attribute name are suffixed with ``_r``.
    """
    if not on:
        return cartesian(left, right, name=name)
    left_idx = left.schema.indexes_of([a for a, _ in on])
    right_idx = right.schema.indexes_of([b for _, b in on])

    right_attrs = []
    for a in right.schema.attributes:
        right_attrs.append(a + "_r" if a in left.schema else a)
    schema = RelationSchema(left.schema.attributes + tuple(right_attrs))

    # Build the hash table on the smaller input.
    out = Relation(schema, name=name)
    if len(left) <= len(right):
        table = _build_hash(left, left_idx)
        for rrow in right.rows:
            key = tuple(rrow[i] for i in right_idx)
            for lrow in table.get(key, ()):
                out.rows.append(lrow + rrow)
    else:
        table = _build_hash(right, right_idx)
        for lrow in left.rows:
            key = tuple(lrow[i] for i in left_idx)
            for rrow in table.get(key, ()):
                out.rows.append(lrow + rrow)
    return out


def natural_join(left: Relation, right: Relation, name: str = "") -> Relation:
    """Natural join ⋈ on all shared attribute names.

    Shared attributes appear once in the output (taken from the left input).
    """
    shared = [a for a in left.schema.attributes if a in right.schema]
    if not shared:
        return cartesian(left, right, name=name)
    left_idx = left.schema.indexes_of(shared)
    right_idx = right.schema.indexes_of(shared)
    right_rest = [a for a in right.schema.attributes if a not in left.schema]
    right_rest_idx = right.schema.indexes_of(right_rest)

    schema = RelationSchema(left.schema.attributes + tuple(right_rest))
    out = Relation(schema, name=name)
    table = _build_hash(right, right_idx)
    for lrow in left.rows:
        key = tuple(lrow[i] for i in left_idx)
        for rrow in table.get(key, ()):
            out.rows.append(lrow + tuple(rrow[i] for i in right_rest_idx))
    return out


def semijoin(left: Relation, right: Relation, on: Sequence[tuple[str, str]]) -> Relation:
    """Left semi join ⋉: rows of ``left`` that have at least one match in ``right``."""
    left_idx = left.schema.indexes_of([a for a, _ in on])
    right_idx = right.schema.indexes_of([b for _, b in on])
    keys = {tuple(row[i] for i in right_idx) for row in right.rows}
    out = Relation(left.schema, name=left.name)
    out.rows = [row for row in left.rows if tuple(row[i] for i in left_idx) in keys]
    return out


def antijoin(left: Relation, right: Relation, on: Sequence[tuple[str, str]]) -> Relation:
    """Left anti join ▷: rows of ``left`` with no match in ``right``."""
    left_idx = left.schema.indexes_of([a for a, _ in on])
    right_idx = right.schema.indexes_of([b for _, b in on])
    keys = {tuple(row[i] for i in right_idx) for row in right.rows}
    out = Relation(left.schema, name=left.name)
    out.rows = [row for row in left.rows if tuple(row[i] for i in left_idx) not in keys]
    return out


def group_count(relation: Relation, by: Sequence[str], count_attr: str = "count") -> Relation:
    """Group by ``by`` attributes and count rows per group."""
    idx = relation.schema.indexes_of(by)
    counts: dict[tuple, int] = defaultdict(int)
    for row in relation.rows:
        counts[tuple(row[i] for i in idx)] += 1
    out = Relation(RelationSchema(list(by) + [count_attr]), name=relation.name)
    for key, cnt in counts.items():
        out.rows.append(key + (cnt,))
    return out
