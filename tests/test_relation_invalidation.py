"""Cache invalidation under mutation: NDV counters and column stores.

Satellite regression suite for the delete-path bookkeeping: the NDV
(distinct-count) caches and the column store (its id columns and the group
index behind :meth:`ColumnStore.positions_of`) must stay consistent with
``rows`` across arbitrary interleavings of ``insert_many`` /
``delete_rows`` / probes.  The second property drives the column store through every
mutation it mirrors (appends, prefix drops, swap-deletes) and every one it
does not (predicate deletes, clears, non-leading drops) in random order.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.relational.columnar import ColumnStore, ValueDictionary
from repro.relational.relation import PartitionedRelation, Relation


def _check_ndv(relation: Relation) -> None:
    for c in range(len(relation.schema)):
        assert relation.distinct_count(c) == len({r[c] for r in relation.rows})


# --------------------------------------------------------------------------- #
# deterministic regressions
# --------------------------------------------------------------------------- #
def _check_positions(relation: Relation, column: int) -> None:
    """``positions_of`` on ``column`` must agree with a scan of ``rows`` for every value."""
    store = relation.column_store()
    d = store.dictionary
    for value in {row[column] for row in relation.rows}:
        expected = [p for p, row in enumerate(relation.rows) if row[column] == value]
        assert store.positions_of(column, {d.get_id(value)}) == expected


def test_delete_rows_keeps_live_index_consistent():
    rel = Relation(["a", "b"], rows=[(i % 3, i) for i in range(12)])
    dictionary = ValueDictionary()
    rel.enable_columnar(dictionary)
    assert len(rel.column_store().positions_of(0, {dictionary.id_of(0)})) == 4
    rel.delete_rows(lambda row: row[1] < 6)
    _check_positions(rel, 0)
    positions = rel.column_store().positions_of(0, {dictionary.id_of(0)})
    assert [rel.rows[p] for p in positions] == [(0, 6), (0, 9)]


def test_delete_rows_refreshes_ndv_cache():
    rel = Relation(["a", "b"], rows=[(i % 4, i % 2) for i in range(16)])
    assert rel.distinct_count(0) == 4
    rel.delete_rows(lambda row: row[0] in (2, 3))
    _check_ndv(rel)
    assert rel.distinct_count(0) == 2
    # Inserts and swap-deletes (an ``RT`` under churn) update the counters
    # in place: no recount.
    counter = rel._ndv_counters[0]
    rel.insert((7, 0))
    assert rel.distinct_count(0) == 3
    assert rel.swap_delete_at(len(rel) - 1) == (7, 0)
    assert rel.distinct_count(0) == 2
    assert rel.swap_delete_at(0) == (0, 0)
    _check_ndv(rel)
    assert rel._ndv_counters[0] is counter


def test_partitioned_delete_rows_updates_ndv_counters():
    rel = PartitionedRelation(
        ["docid", "v"],
        rows=[("d1", "x"), ("d1", "y"), ("d2", "x"), ("d3", "z")],
    )
    assert rel.distinct_count(1) == 3
    rel.delete_rows(lambda row: row[0] == "d3")
    assert rel.distinct_count(1) == 2
    rel.drop_partitions(["d1"])
    _check_ndv(rel)
    assert rel.distinct_count(0) == 1


def test_delete_rows_invalidates_column_store():
    rel = Relation(["a"], rows=[(i,) for i in range(8)])
    rel.enable_columnar(ValueDictionary())
    store = rel.column_store()
    assert len(store) == 8
    rel.delete_rows(lambda row: row[0] >= 4)
    store = rel.column_store()
    d = store.dictionary
    assert [d.value_of(i) for i in store.columns()[0]] == [0, 1, 2, 3]


# --------------------------------------------------------------------------- #
# property: random interleavings
# --------------------------------------------------------------------------- #
_value = st.integers(min_value=0, max_value=5)
_op = st.one_of(
    st.tuples(st.just("insert"), st.lists(st.tuples(_value, _value), max_size=5)),
    st.tuples(st.just("delete"), _value),
    st.tuples(st.just("probe"), _value),
)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(_op, max_size=14),
    partitioned=st.booleans(),
)
def test_interleaved_mutation_keeps_all_caches_consistent(ops, partitioned):
    model: list[tuple] = [(i % 3, i % 2) for i in range(6)]
    if partitioned:
        rel = PartitionedRelation(
            ["a", "b"], rows=list(model), partition_attribute="a"
        )
    else:
        rel = Relation(["a", "b"], rows=list(model))
    dictionary = ValueDictionary()
    rel.enable_columnar(dictionary)
    rel.column_store().positions_of(1, set())  # a group index before the interleaving

    for op in ops:
        if op[0] == "insert":
            rel.insert_many(op[1])
            model.extend(tuple(r) for r in op[1])
        elif op[0] == "delete":
            target = op[1]
            rel.delete_rows(lambda row: row[0] == target)
            model = [row for row in model if row[0] != target]
        else:
            positions = rel.column_store().positions_of(1, {dictionary.id_of(op[1])})
            expected = [row for row in model if row[1] == op[1]]
            # Partitioned relations keep rows partition-grouped, so probe
            # results match the model as a multiset, not positionally.
            assert sorted(rel.rows[p] for p in positions) == sorted(expected)

    assert sorted(rel.rows) == sorted(model)
    _check_ndv(rel)
    store = rel.column_store()
    d = store.dictionary
    cols = [list(c) for c in store.columns()]
    decoded = [
        (d.value_of(int(cols[0][i])), d.value_of(int(cols[1][i])))
        for i in range(len(store))
    ]
    assert decoded == rel.rows  # the store mirrors the canonical order


# --------------------------------------------------------------------------- #
# property: the column store follows the relation's mutations
# --------------------------------------------------------------------------- #
def _decoded(store: ColumnStore) -> list[tuple]:
    value_of = store.dictionary.value_of
    return list(zip(*([value_of(int(i)) for i in col] for col in store.columns())))


def _probe_pairs(store: ColumnStore, key_cols: tuple, probes: list[tuple]):
    probe_cols = [
        np.array([p[k] for p in probes], dtype=np.int64) for k in range(len(key_cols))
    ]
    probe_idx, row_pos = store.probe(key_cols, probe_cols)
    return list(zip(probe_idx.tolist(), row_pos.tolist()))


def _check_store(rel: Relation) -> ColumnStore:
    """The synced store equals a store built from scratch over ``rel.rows``."""
    store = rel.column_store()
    assert store is not None and store.stamp == rel._stamp()
    rows = rel.rows
    assert len(store) == len(rows)
    assert _decoded(store) == (rows if rows else [])
    fresh = ColumnStore(len(rel.schema), store.dictionary)
    fresh.sync(rows, (0, len(rows), 0))
    id_of = store.dictionary.id_of
    ids = [id_of(v) for v in range(6)] + [id_of("never stored")]
    for key_cols, probes in (
        ((0,), [(i,) for i in ids]),
        ((1,), [(i,) for i in ids]),
        ((0, 1), [(a, b) for a in ids for b in ids]),
    ):
        # pair for pair: probe-major, then position
        got = _probe_pairs(store, key_cols, probes)
        assert got == _probe_pairs(fresh, key_cols, probes)
        assert got == sorted(got)
    return store


_key = st.integers(min_value=0, max_value=5)
_rows = st.lists(st.tuples(_key, _key), max_size=4)
_store_op = st.one_of(
    st.tuples(st.just("insert"), _rows),
    st.tuples(st.just("bulk"), _key),  # enough rows to trip the quarter rule
    st.tuples(st.just("drop_leading"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("drop_keys"), st.lists(st.integers(0, 7), max_size=3)),
    st.tuples(st.just("swap"), st.integers(min_value=0, max_value=10_000)),
    st.tuples(st.just("delete"), _key),
    st.tuples(st.just("clear"), st.none()),
    st.tuples(st.just("retain"), st.none()),
)


@settings(max_examples=80, deadline=None)
@given(
    # (operation, whether the store is read — and so synced — right after it)
    ops=st.lists(st.tuples(_store_op, st.booleans()), max_size=16),
    partitioned=st.booleans(),
)
def test_column_store_follows_every_mutation(ops, partitioned):
    model: list[tuple] = [(i // 2, i % 3) for i in range(8)]
    if partitioned:
        rel = PartitionedRelation(
            ["a", "b"], rows=list(model), partition_attribute="a"
        )
    else:
        rel = Relation(["a", "b"], rows=list(model))
    rel.enable_columnar(ValueDictionary())
    store = _check_store(rel)
    retained = []  # columns() views kept alive across mutations
    behind = False  # a delete the store could not mirror since its last sync
    rebuilds = 0

    for (name, arg), read in ops:
        rows = list(rel)  # iteration leaves a pending re-stitch pending
        mirrors = store.prefix_drops + store.swap_deletes
        mirrorable = False
        if name == "insert":
            rel.insert_many(arg)
            model.extend(arg)
        elif name == "bulk":
            new = [(arg, i % 4) for i in range(70)]
            rel.insert_many(new)
            model.extend(new)
        elif name in ("drop_leading", "drop_keys"):
            if not partitioned:
                continue
            if name == "drop_leading":
                keys = set(list(dict.fromkeys(r[0] for r in rows))[:arg])
            else:
                keys = set(arg)  # any mix of leading, inner and unknown keys
            removed = sum(1 for r in rows if r[0] in keys)
            assert rel.drop_partitions(keys) == removed
            model = [r for r in model if r[0] not in keys]
            if removed and all(r[0] in keys for r in rows[:removed]):
                mirrorable = True
                assert rel.rows == rows[removed:]  # sliced, not re-stitched
            else:
                behind = behind or removed > 0
        elif name == "swap":
            if partitioned or not rows:
                continue
            position = arg % len(rows)
            assert rel.swap_delete_at(position) == rows[position]
            model.remove(rows[position])
            mirrorable = True
        elif name == "delete":
            removed = rel.delete_rows(lambda row: row[1] == arg)
            model = [r for r in model if r[1] != arg]
            behind = behind or removed > 0
        elif name == "clear":
            rel.clear()
            model = []
            behind = True
        else:
            retained.append(store.columns())
            continue

        # A mirrorable delete is applied to the store as it happens,
        # pending appends included — unless the store was already behind.
        mirrored = store.prefix_drops + store.swap_deletes - mirrors
        assert mirrored == (1 if mirrorable and not behind else 0)
        if mirrored:
            assert store.stamp == rel._stamp()
        if partitioned:  # every view of the rows agrees with the flat one
            assert list(rel) == rel.rows and len(rel) == len(rel.rows)
            for key in range(8):
                assert rel.partition(key) == [r for r in rel.rows if r[0] == key]
        assert sorted(rel.rows) == sorted(model)
        _check_ndv(rel)
        if read:
            store = _check_store(rel)
            rebuilds += behind  # the one fallback, once per sync
            behind = False
            assert store.rebuilds == rebuilds
    _check_store(rel)
    assert all(len(view) == 2 for view in retained)
