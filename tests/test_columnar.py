"""The join state's layout: interned ids in column stores, and their kernels.

Covers the :mod:`repro.relational.columnar` building blocks (dictionary,
store sync, group index and its three key packings), the plan executor
against the row reference :func:`evaluate_conjunctive`, the delta pass's id
domains, and a sliding-window broker session against ``tests/oracle.py``.
"""

from __future__ import annotations

import itertools
import random
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.relational.columnar as columnar
from repro import RuntimeConfig, open_broker
from repro.relational.columnar import ColumnStore, ValueDictionary, distinct_ids, select_positions
from repro.relational.conjunctive import ConjunctiveQuery, DeltaContext, evaluate_conjunctive
from repro.relational.database import IndexedDatabase
from repro.relational.plan import PlanCache, compile_plan
from repro.relational.relation import PartitionedRelation, Relation
from repro.relational.terms import Const, Var
from repro.xmlmodel import parse_document
from tests import oracle
from tests.test_oracle_agreement import run_script


# --------------------------------------------------------------------------- #
# ValueDictionary
# --------------------------------------------------------------------------- #
def test_dictionary_interns_densely_and_stably():
    d = ValueDictionary()
    a = d.id_of("x")
    b = d.id_of(7)
    assert d.id_of("x") == a  # stable across calls
    assert (a, b) == (0, 1)  # dense, insertion-ordered
    assert d.value_of(a) == "x" and d.value_of(b) == 7
    assert len(d) == 2
    assert d.values[a] == "x"


def test_dictionary_get_id_handles_unseen_and_unhashable():
    d = ValueDictionary()
    d.id_of("x")
    assert d.get_id("x") == 0
    assert d.get_id("never-seen") is None
    assert d.get_id(["unhashable"]) is None


# --------------------------------------------------------------------------- #
# ColumnStore sync
# --------------------------------------------------------------------------- #
def _stored(relation: Relation, dictionary=None) -> ColumnStore:
    dictionary = dictionary if dictionary is not None else ValueDictionary()
    relation.enable_columnar(dictionary)
    store = relation.column_store()
    assert store is not None
    return store


def _decode(store: ColumnStore) -> list[tuple]:
    cols = [list(c) for c in store.columns()]
    value_of = store.dictionary.value_of
    return [
        tuple(value_of(int(cols[c][i])) for c in range(len(cols)))
        for i in range(len(store))
    ]


def test_store_mirrors_rows_and_appends_incrementally():
    rel = Relation(["a", "b"], rows=[(1, "x"), (2, "y")])
    store = _stored(rel)
    assert _decode(store) == [(1, "x"), (2, "y")]
    before = len(store.dictionary)
    rel.insert((1, "z"))
    store = rel.column_store()
    assert _decode(store) == [(1, "x"), (2, "y"), (1, "z")]
    # Only the appended suffix was interned (one new value).
    assert len(store.dictionary) == before + 1


def test_store_rebuilds_after_delete_and_clear():
    rel = Relation(["a"], rows=[(i,) for i in range(6)])
    store = _stored(rel)
    assert len(store) == 6
    rel.delete_rows(lambda row: row[0] % 2 == 0)
    store = rel.column_store()
    assert _decode(store) == [(1,), (3,), (5,)]
    rel.clear()
    store = rel.column_store()
    assert store is not None and len(store) == 0


def test_store_survives_retained_views_across_sync():
    # A caller that holds on to columns() across a mutation must not be able
    # to wedge the sidecar (numpy views pin the array buffers).
    rel = Relation(["a"], rows=[(1,), (2,)])
    store = _stored(rel)
    retained = store.columns()
    rel.insert((3,))
    store = rel.column_store()
    assert _decode(store) == [(1,), (2,), (3,)]
    assert len(retained[0]) == 2  # the old view still sees the old prefix


def test_an_unhashable_value_is_a_type_error_naming_its_relation():
    rel = Relation(["a"], rows=[(1,)], name="Rdoc")
    env = IndexedDatabase()
    env.bind("Rdoc", rel, indexed=True)
    store = rel.column_store()
    rel.insert(([1, 2],))  # lists cannot be interned
    with pytest.raises(TypeError, match="'Rdoc' holds an unhashable value"):
        rel.column_store()
    assert store.stamp != rel._stamp() and len(store) == 1  # left as it was
    cq = ConjunctiveQuery("out", ["a"], [Var("a")])
    cq.add_atom("Rdoc", [Var("a")])
    with pytest.raises(TypeError, match="'Rdoc'"):
        PlanCache().evaluate(cq, env)


def test_frozen_store_reencodes_when_its_relation_mutates():
    dictionary = ValueDictionary()
    ids = [dictionary.id_of(v) for v in ("x", "y")]
    derived = Relation(["a"], rows=[("x",), ("y",)])
    derived._attach_store(
        ColumnStore.from_columns([np.array(ids, dtype=np.int64)], dictionary, derived._stamp())
    )
    assert _decode(derived.column_store()) == [("x",), ("y",)]
    derived.insert(("z",))
    assert _decode(derived.column_store()) == [("x",), ("y",), ("z",)]


def test_enable_columnar_rehomes_on_new_dictionary():
    rel = Relation(["a"], rows=[("x",)])
    first = ValueDictionary()
    rel.enable_columnar(first)
    assert rel.column_store().dictionary is first
    second = ValueDictionary()
    rel.enable_columnar(second)
    assert rel.column_store().dictionary is second
    rel.enable_columnar(second)  # idempotent per dictionary
    assert rel.column_store().dictionary is second


def _docs(*sizes: int, first: int = 1) -> list[tuple]:
    """Rows of consecutive documents ``d<first>``, ... with the given sizes."""
    return [
        (f"d{first + d}", f"v{i}") for d, size in enumerate(sizes) for i in range(size)
    ]


def test_prefix_drop_is_mirrored_without_reencoding():
    rel = PartitionedRelation(["docid", "v"], rows=_docs(2, 1, 3))
    store = _stored(rel)
    assert (store.rows_encoded, store.rebuilds) == (6, 0)
    rel.insert(("d4", "new"))  # a pending append rides along with the drop
    rel.drop_partitions({"d2", "d1", "never-seen"})
    assert store.stamp == rel._stamp()  # mirrored as it happened
    assert rel.column_store() is store
    assert _decode(store) == rel.rows == _docs(3, first=3) + [("d4", "new")]
    assert (store.rows_encoded, store.rebuilds, store.prefix_drops) == (7, 0, 1)


def test_non_leading_drop_falls_back_to_a_rebuild():
    rel = PartitionedRelation(["docid", "v"], rows=_docs(2, 1, 3))
    store = _stored(rel)
    rel.drop_partitions(["d2"])  # d1 survives in front of it: not a prefix
    assert store.stamp != rel._stamp()
    assert _decode(rel.column_store()) == rel.rows == _docs(2) + _docs(3, first=3)
    assert (store.rebuilds, store.prefix_drops, store.rows_encoded) == (1, 0, 11)
    # A leading drop on a store that is already behind is not mirrored either.
    rel.drop_partitions(["d3"])
    rel.drop_partitions(["d1"])
    assert store.prefix_drops == 0
    assert _decode(rel.column_store()) == rel.rows == []
    assert store.rebuilds == 2


def test_interleaved_partitions_are_a_prefix_only_row_for_row():
    rel = PartitionedRelation(
        ["docid", "v"], rows=[("d1", "a"), ("d2", "b"), ("d1", "c"), ("d3", "d")]
    )
    store = _stored(rel)
    rel.drop_partitions(["d1"])  # first partition, but d2's row sits inside it
    assert (store.prefix_drops, rel._flat_dirty) == (0, True)
    assert _decode(rel.column_store()) == rel.rows == [("d2", "b"), ("d3", "d")]
    rel.drop_partitions(["d2"])
    assert (store.prefix_drops, rel._flat_dirty) == (1, False)
    assert _decode(rel.column_store()) == rel.rows == [("d3", "d")]


def test_never_synced_store_stays_lazy_under_mirrored_deletes():
    rel = PartitionedRelation(["docid", "v"], rows=_docs(2, 2))
    rel.enable_columnar(ValueDictionary())
    rel.drop_partitions(["d1"])
    store = rel._colstore
    assert (store.stamp, store.rows_encoded, store.prefix_drops) == (None, 0, 0)
    assert _decode(rel.column_store()) == _docs(2, first=2)
    assert (store.rows_encoded, store.rebuilds) == (2, 0)  # first sync: no rebuild


def test_swap_delete_is_mirrored_without_reencoding():
    rel = Relation(["q", "w"], rows=[(f"q{i}", i % 2) for i in range(5)])
    store = _stored(rel)
    rel.insert(("q5", 1))
    rel.swap_delete_at(1)  # the pending append moves into the hole
    assert store.stamp == rel._stamp()
    assert _decode(rel.column_store()) == rel.rows
    assert rel.rows[1] == ("q5", 1) and len(rel.rows) == 5
    rel.swap_delete_at(4)  # the last row: nothing to move
    assert _decode(rel.column_store()) == rel.rows
    assert (store.swap_deletes, store.rebuilds, store.rows_encoded) == (2, 0, 6)


def test_store_survives_retained_views_across_mirrored_deletes():
    rel = PartitionedRelation(["docid", "v"], rows=_docs(2, 2, 2))
    store = _stored(rel)
    retained = [store.columns()]
    rel.drop_partitions(["d1"])  # cannot resize under an exported buffer
    retained.append(rel.column_store().columns())
    assert _decode(store) == rel.rows == _docs(2, 2, first=2)
    flat = Relation(["a"], rows=[(i,) for i in range(4)])
    flat_store = _stored(flat)
    retained.append(flat_store.columns())
    flat.swap_delete_at(0)
    assert _decode(flat.column_store()) == flat.rows == [(3,), (1,), (2,)]
    # the old views still see the old rows
    assert [len(view[0]) for view in retained] == [6, 4, 4]
    assert retained[2][0].tolist() == [flat_store.dictionary.get_id(i) for i in range(4)]


# --------------------------------------------------------------------------- #
# selection kernels
# --------------------------------------------------------------------------- #
def test_select_positions_and_distinct_ids_match_bruteforce():
    rel = Relation(
        ["a", "b"], rows=[(i % 4, f"v{i % 3}") for i in range(40)]
    )
    d = ValueDictionary()
    store = _stored(rel, d)
    dom_a = frozenset({d.id_of(1), d.id_of(3)})
    dom_b = frozenset({d.id_of("v0")})
    got = list(
        select_positions(
            store.columns(), len(store), [(0, dom_a), (1, dom_b)]
        )
    )
    expected = [
        i
        for i, row in enumerate(rel.rows)
        if row[0] in (1, 3) and row[1] == "v0"
    ]
    assert [int(p) for p in got] == expected
    ids = distinct_ids(store.columns()[0])
    assert {d.value_of(i) for i in ids} == {0, 1, 2, 3}


# --------------------------------------------------------------------------- #
# GroupIndex
# --------------------------------------------------------------------------- #
def test_group_probe_matches_bucket_semantics():
    rel = Relation(
        ["a", "b", "c"],
        rows=[(i % 3, i % 2, i) for i in range(30)],
    )
    d = ValueDictionary()
    store = _stored(rel, d)
    probes = [(d.id_of(0), d.id_of(1)), (d.id_of(2), d.id_of(0)), (99, 0)]
    probe_cols = [
        np.array([p[0] for p in probes], dtype=np.int64),
        np.array([p[1] for p in probes], dtype=np.int64),
    ]
    probe_idx, row_pos = store.probe((0, 1), probe_cols)
    got = [(int(p), int(r)) for p, r in zip(probe_idx, row_pos)]
    expected = []
    for pi, (va, vb) in enumerate(probes):
        for ri, row in enumerate(rel.rows):
            if d.get_id(row[0]) == va and d.get_id(row[1]) == vb:
                expected.append((pi, ri))
    assert got == expected  # probe-major, original row order within a key


def test_group_survives_appends_via_suffix_probe():
    rel = Relation(["a"], rows=[(i % 4,) for i in range(16)])
    d = ValueDictionary()
    store = _stored(rel, d)
    gi = store.group((0,))
    assert gi is not None and gi.built_n == 16
    rel.insert((2,))
    rel.insert((9,))  # a brand-new value, id beyond the build-side base
    store = rel.column_store()
    assert store.group((0,)) is gi  # still the prefix index, not a rebuild
    probe = [np.array([d.id_of(2), d.id_of(9)], dtype=np.int64)]
    probe_idx, row_pos = store.probe((0,), probe)
    got = [(int(p), int(r)) for p, r in zip(probe_idx, row_pos)]
    expected = [(0, i) for i, row in enumerate(rel.rows) if row[0] == 2]
    expected += [(1, i) for i, row in enumerate(rel.rows) if row[0] == 9]
    assert sorted(got) == sorted(expected)
    assert got == sorted(got, key=lambda pr: (pr[0], pr[1]))


def test_group_rebuilds_once_suffix_outgrows_prefix():
    rel = Relation(["a"], rows=[(i,) for i in range(8)])
    store = _stored(rel)
    gi = store.group((0,))
    assert gi.built_n == 8
    rel.insert_many([(i,) for i in range(200)])  # way past the 64-row floor
    store = rel.column_store()
    rebuilt = store.group((0,))
    assert rebuilt is not gi and rebuilt.built_n == 208


def _probe_pairs(store: ColumnStore, rel: Relation, values) -> list[tuple]:
    get_id = store.dictionary.get_id
    probe = [np.array([get_id(v) for v in values], dtype=np.int64)]
    probe_idx, row_pos = store.probe((1,), probe)
    got = list(zip(probe_idx.tolist(), row_pos.tolist()))
    assert got == [
        (p, r) for p, v in enumerate(values) for r, row in enumerate(rel.rows) if row[1] == v
    ]  # probe-major, store rows in position order
    return got


def test_group_survives_prefix_drops_by_masking_dead_rows():
    rows = [(f"d{d}", f"v{(d + i) % 5}") for d in range(40) for i in range(3)]
    rel = PartitionedRelation(["docid", "v"], rows=rows)
    store = _stored(rel)
    gi = store.group((1,))
    assert (gi.built_n, gi.dropped, store.group_builds) == (120, 0, 1)
    values = [f"v{i}" for i in range(5)]
    for d in range(10):  # slide the window: drop the oldest, append a new one
        rel.drop_partitions({f"d{d}"})
        rel.insert_many([(f"d{40 + d}", f"v{(d + i) % 5}") for i in range(3)])
        store = rel.column_store()
        assert store.group((1,)) is gi  # masked prefix + scanned suffix
        assert (gi.built_n, gi.dropped) == (120 - 3 * (d + 1), 3 * (d + 1))
        assert len(_probe_pairs(store, rel, values)) == 120
    assert (store.group_builds, store.rebuilds) == (1, 0)
    # Dead prefix + unindexed suffix beyond a quarter of the build (min 64):
    # the next probe pays one argsort over the live rows.
    for d in range(10, 12):
        rel.drop_partitions({f"d{d}"})
        rel.insert_many([(f"d{40 + d}", "v0")] * 3)
    store = rel.column_store()
    rebuilt = store.group((1,))
    assert rebuilt is not gi and (rebuilt.built_n, rebuilt.dropped) == (120, 0)
    assert store.group_builds == 2
    _probe_pairs(store, rel, values)


def test_group_outlives_the_rows_it_was_built_over():
    rel = PartitionedRelation(["docid", "v"], rows=_docs(3, 3))
    store = _stored(rel)
    gi = store.group((1,))
    rel.insert_many(_docs(2, first=3))
    rel.drop_partitions({"d1", "d2", "d3"})  # more rows than the index covers
    rel.insert_many(_docs(3, first=4))
    store = rel.column_store()
    assert store.group((1,)) is gi and (gi.built_n, gi.dropped) == (0, 8)
    assert _probe_pairs(store, rel, ["v0", "v1", "v2"]) == [(0, 0), (1, 1), (2, 2)]


def test_swap_delete_discards_group_indexes():
    rel = Relation(["q", "v"], rows=[(f"q{i}", f"v{i % 3}") for i in range(9)])
    store = _stored(rel)
    gi = store.group((1,))
    rel.swap_delete_at(2)
    store = rel.column_store()
    assert store.group((1,)) is not gi and store.group_builds == 2
    _probe_pairs(store, rel, ["v0", "v1", "v2"])


#: The ``_PACK_LIMIT`` that makes a one-column key over row ids past 100
#: pack as each of the three packings, and which of ``(ranks, tuples)`` it
#: sets: the ids themselves, their ranks (a few distinct ids), whole keys.
_PACKINGS = {
    "ids": (columnar._PACK_LIMIT, (False, False)),
    "ranks": (64, (True, False)),
    "tuples": (0, (False, True)),
}
_lookup_op = st.one_of(
    st.tuples(st.just("insert"), st.lists(st.integers(0, 7), max_size=4)),
    st.tuples(st.just("bulk"), st.integers(0, 7)),  # trips the quarter rule
    st.tuples(st.just("drop"), st.integers(1, 3)),  # the oldest documents
    st.tuples(st.just("swap"), st.integers(0, 10_000)),
)


@pytest.mark.parametrize("packing", sorted(_PACKINGS))
@settings(max_examples=40, deadline=None)
@given(
    # (mutation, the values looked up after it)
    ops=st.lists(st.tuples(_lookup_op, st.sets(st.integers(0, 9), max_size=4)), max_size=12),
    partitioned=st.booleans(),
)
def test_positions_of_equals_a_scan_of_the_rows(packing, ops, partitioned):
    d = ValueDictionary()
    for i in range(100):
        d.id_of(("pad", i))
    rows = [(f"d{i // 3}", i % 5) for i in range(12)]
    rel = (PartitionedRelation if partitioned else Relation)(["docid", "v"], rows=rows)
    rel.enable_columnar(d)
    docs = itertools.count(4)
    limit, packed = _PACKINGS[packing]
    with mock.patch.object(columnar, "_PACK_LIMIT", limit):
        for (name, arg), values in ops:
            if name == "insert":
                rel.insert_many((f"d{next(docs)}", v) for v in arg)
            elif name == "bulk":
                doc = f"d{next(docs)}"
                rel.insert_many((doc, (arg + i) % 8) for i in range(70))
            elif name == "drop" and partitioned:
                rel.drop_partitions(rel.partition_keys()[:arg])
            elif name == "swap" and not partitioned and len(rel):
                rel.swap_delete_at(arg % len(rel))
            store = rel.column_store()
            for c, keys in ((0, [f"d{v}" for v in values]), (1, values)):
                ids = frozenset(d.id_of(k) for k in keys)
                expected = [i for i, row in enumerate(rel.rows) if d.get_id(row[c]) in ids]
                assert store.positions_of(c, ids) == expected
                gi = store._groups[(c,)]
                if len(gi.positions):  # built over rows: packed as asked
                    assert (gi.ranks is not None, gi.tuples is not None) == packed
            # both columns: keys are id pairs, however the pair packs
            pairs = frozenset((d.id_of(f"d{a}"), d.id_of(b)) for a in values for b in values)
            expected = [
                i for i, row in enumerate(rel.rows) if (d.get_id(row[0]), d.get_id(row[1])) in pairs
            ]
            assert store.positions_of((0, 1), pairs) == expected


def _brute_pairs(cols, probes) -> list[tuple]:
    keys = list(zip(*(c.tolist() for c in cols)))
    return [(p, r) for p, probe in enumerate(probes) for r, key in enumerate(keys) if key == probe]


def _probe_built(gi, probes) -> list[tuple]:
    probe_cols = [np.array(column, dtype=np.int64) for column in zip(*probes)]
    probe_idx, row_pos = gi.probe(probe_cols)
    return list(zip(probe_idx.tolist(), row_pos.tolist()))


def test_an_overflowing_key_packs_ranks_then_whole_keys():
    # Ids past the pack limit, but few of them per column: ranks pack.
    huge = columnar._PACK_LIMIT >> 1
    cols = [np.array([huge, 3, huge, 3, 7]), np.array([huge, huge, 5, huge, 5])]
    gi = columnar._build_group(cols)
    assert gi.ranks is not None and gi.tuples is None
    probes = [(huge, huge), (3, huge), (7, 5), (3, 5), (huge, 3), (4, 4), (3, 6)]
    assert _probe_built(gi, probes) == _brute_pairs(cols, probes)
    # Seven columns of a thousand distinct ids each: even the ranks
    # overflow, so whole keys are ranked among the distinct keys.
    rng = random.Random(7)
    cols = [np.array(rng.sample(range(1000), 1000) * 2) for _ in range(7)]
    gi = columnar._build_group(cols)
    assert gi.ranks is None and gi.tuples is not None and len(gi.tuples) == 1000
    rows = list(zip(*(c.tolist() for c in cols)))
    probes = rows[:5] + [(1,) * 7, rows[3][:6] + (1000,)] + rows[990:995]
    assert _probe_built(gi, probes) == _brute_pairs(cols, probes)


# --------------------------------------------------------------------------- #
# the plan executor against the row reference
# --------------------------------------------------------------------------- #
def _plan_relations() -> dict[str, Relation]:
    return {
        "R": Relation(["a", "b"], rows=[(i % 4, i % 6) for i in range(24)]),
        "S": Relation(["b", "c"], rows=[(i % 6, f"c{i % 5}") for i in range(18)]),
        "T": Relation(["c", "k"], rows=[(f"c{i % 5}", "k") for i in range(10)]),
    }


def _plan_env(relations: dict[str, Relation]) -> IndexedDatabase:
    env = IndexedDatabase()
    for name, relation in relations.items():
        env.bind(name, relation, indexed=True)
    return env


def _plan_query(distinct: bool) -> ConjunctiveQuery:
    cq = ConjunctiveQuery(
        head_name="out",
        head_schema=["a", "c"],
        head_terms=[Var("a"), Var("c")],
        distinct=distinct,
    )
    cq.add_atom("R", [Var("a"), Var("b")])
    cq.add_atom("S", [Var("b"), Var("c")])
    cq.add_atom("T", [Var("c"), Const("k")])
    return cq


@pytest.mark.parametrize("distinct", (False, True))
def test_plan_execute_columnar_equals_row_path(distinct):
    cq = _plan_query(distinct)
    relations = _plan_relations()
    expected = evaluate_conjunctive(cq, relations)
    env = _plan_env(relations)
    actual = compile_plan(cq, env).execute(env)
    assert actual == expected  # multiset equality
    assert actual.rows == expected.rows  # and identical row order


def test_plan_execute_columnar_unseen_constant_is_empty():
    env = _plan_env(_plan_relations())
    cq = ConjunctiveQuery(
        head_name="out", head_schema=["a"], head_terms=[Var("a")]
    )
    cq.add_atom("R", [Var("a"), Const("never-inserted")])
    assert compile_plan(cq, env).execute(env).rows == []


# --------------------------------------------------------------------------- #
# DeltaContext id-space memoization
# --------------------------------------------------------------------------- #
def test_delta_context_domains_are_memoized_id_sets():
    rel = Relation(["a", "k"], rows=[("x", 1), ("y", 2), ("z", 1)])
    d = ValueDictionary()
    rel.enable_columnar(d)
    ctx = DeltaContext()
    ids = ctx.column_values(rel, 0)
    assert ids == frozenset({d.get_id("x"), d.get_id("y"), d.get_id("z")})
    assert ctx.column_values(rel, 0) is ids  # asking again returns the same object
    assert ctx.column_values(rel, 0, ((1, 1),)) == frozenset({d.get_id("x"), d.get_id("z")})
    assert ctx.column_values(rel, 0, ((1, "nowhere"),)) == frozenset()


def test_delta_context_reduce_attaches_derived_store():
    rel = Relation(["a", "b"], rows=[(i % 4, i) for i in range(20)])
    d = ValueDictionary()
    rel.enable_columnar(d)
    assert rel.column_store() is not None
    ctx = DeltaContext()
    dom = frozenset({d.id_of(1), d.id_of(3)})
    out = ctx.reduce("rel", rel, (), ((0, dom),))
    assert out.rows == [row for row in rel.rows if row[0] in (1, 3)]
    assert out.column_store() is not None  # derived store, no re-interning
    # Equal constraints are shared (memoized by domain identity).
    again = ctx.reduce("rel", rel, (), ((0, dom),))
    assert again is out


# --------------------------------------------------------------------------- #
# end to end (every engine and topology: test_oracle_agreement.py)
# --------------------------------------------------------------------------- #
def test_broker_agrees_with_the_oracle_while_the_window_slides():
    query = (
        "S//blog->b[.//author->a][.//title->t] FOLLOWED BY{{a=a AND t=t, {w}}} "
        "S//blog->b[.//author->a][.//title->t]"
    )
    texts = [
        f"<blog><author>A{i % 7}</author><title>T{i % 3}</title></blog>" for i in range(240)
    ]
    script = [
        ("subscribe", f"q{i}", query.format(w=window), None)
        for i, window in enumerate((40, 25, 40))
    ] + [
        ("publish", partial(parse_document, text, f"d{i}", float(i + 1)))
        for i, text in enumerate(texts)
    ]
    expected = run_script(oracle.Oracle(), script)
    assert sum(map(len, expected)) > 500
    with open_broker(RuntimeConfig(construct_outputs=False, executor="serial")) as broker:
        assert run_script(broker, script[:49]) == expected[:46]
        filled = dict(broker.stats()["columnar"])  # the window is full and sliding
        assert run_script(broker, script[49:]) == expected[46:]
        final = broker.stats()["columnar"]
    slid = final["prefix_drops"] - filled["prefix_drops"]
    argsorts = final["group_builds"] - filled["group_builds"]
    assert final["rebuilds"] == 0 and slid > 150
    # The quarter rule fired several times (the rebuild path ran), yet
    # most publishes probed an index with a masked dead prefix.
    assert 4 <= argsorts < slid // 4
