"""Unit tests for the state index (a relation's column store), the catalog and SQL rendering."""

import numpy as np
import pytest

from repro.relational import (
    ConjunctiveQuery,
    Const,
    Database,
    Relation,
    SchemaError,
    Var,
    render_sql,
    term,
)
from repro.relational.columnar import ValueDictionary


# --------------------------------------------------------------------------- #
# the column store as an index: positions_of, probe, group
# --------------------------------------------------------------------------- #
@pytest.fixture
def rdoc() -> Relation:
    rel = Relation(
        ["docid", "node", "strVal"],
        rows=[("d1", 1, "Ada"), ("d1", 2, "Streams"), ("d2", 1, "Ada")],
        name="Rdoc",
    )
    rel.enable_columnar(ValueDictionary())
    return rel


def _ids(rel: Relation, *values) -> tuple:
    return tuple(rel.column_store().dictionary.get_id(v) for v in values)


def test_index_lookup(rdoc):
    store = rdoc.column_store()
    assert store.positions_of(2, set(_ids(rdoc, "Ada"))) == [0, 2]
    # a value no row holds was never interned: there is nothing to probe
    assert _ids(rdoc, "nothing") == (None,)


def test_index_composite_key(rdoc):
    store = rdoc.column_store()
    assert store.positions_of((0, 1), {_ids(rdoc, "d1", 2)}) == [1]
    assert store.positions_of((0, 1), {_ids(rdoc, "d2", 2)}) == []
    assert store.positions_of((0, 1), {_ids(rdoc, "d1", 1), _ids(rdoc, "d2", 1)}) == [0, 2]


def test_index_lookup_relation(rdoc):
    # a batch probe pairs each probing row with every row holding its key;
    # "Ada" is interned but no docid, so its probe row pairs with nothing
    store = rdoc.column_store()
    probe = [np.array(_ids(rdoc, "d2", "d1", "Ada"), dtype=np.int64)]
    probe_idx, row_pos = store.probe((0,), probe)
    assert list(zip(probe_idx.tolist(), row_pos.tolist())) == [(0, 2), (1, 0), (1, 1)]


def test_index_add_row_and_contains(rdoc):
    store = rdoc.column_store()
    index = store.group((2,))
    rdoc.insert(("d3", 5, "Joins"))
    assert rdoc.column_store() is store
    assert store.positions_of(2, set(_ids(rdoc, "Joins"))) == [3]
    assert store.positions_of(2, set(_ids(rdoc, "Ada", "Joins"))) == [0, 2, 3]
    assert store.group((2,)) is index  # the appended row is scanned, not re-indexed


def test_index_keys(rdoc):
    slots, positions = rdoc.column_store().group((0,)).lookup()
    d1, d2 = _ids(rdoc, "d1", "d2")
    assert sorted(slots) == sorted([d1, d2])
    start, end = slots[d1]
    assert positions[start:end] == [0, 1]


# --------------------------------------------------------------------------- #
# Database
# --------------------------------------------------------------------------- #
def test_database_create_and_get():
    db = Database()
    rel = db.create("Rbin", ["docid", "var1", "var2", "node1", "node2"])
    assert db.get("Rbin") is rel
    assert "Rbin" in db
    assert db.names() == ["Rbin"]


def test_database_duplicate_create_rejected():
    db = Database()
    db.create("R", ["a"])
    with pytest.raises(SchemaError):
        db.create("R", ["a"])


def test_database_create_or_replace():
    db = Database()
    db.create("R", ["a"])
    replacement = Relation(["a", "b"], rows=[(1, 2)])
    db.create_or_replace("R", replacement)
    assert db.get("R") is replacement
    assert db.get("R").name == "R"


def test_database_missing_relation():
    with pytest.raises(SchemaError):
        Database().get("nope")


def test_database_drop_and_total_rows():
    db = Database()
    db.create("R", ["a"]).insert_many([(1,), (2,)])
    db.create("S", ["b"]).insert((3,))
    assert db.total_rows() == 3
    db.drop("S")
    assert "S" not in db
    db.drop("S")  # idempotent


def test_database_iteration():
    db = Database()
    db.create("A", ["x"])
    db.create("B", ["x"])
    assert sorted(db) == ["A", "B"]


# --------------------------------------------------------------------------- #
# term coercion and SQL rendering
# --------------------------------------------------------------------------- #
def test_term_coercion():
    assert term("?x") == Var("x")
    assert term("plain") == Const("plain")
    assert term(5) == Const(5)
    assert term(Var("y")) == Var("y")
    assert term("?") == Const("?")


def test_render_sql_with_schemas():
    cq = ConjunctiveQuery("out", ["person", "city"], [Var("p"), Var("c")])
    cq.add_atom("lives", [Var("p"), Var("c")])
    cq.add_atom("capital", [Var("c"), Const("yes")])
    sql = render_sql(cq, {"lives": ["person", "city"], "capital": ["city", "flag"]})
    assert "FROM lives AS t0, capital AS t1" in sql
    assert "t1.city = t0.city" in sql
    assert "t1.flag = 'yes'" in sql
    assert sql.startswith("SELECT DISTINCT t0.person AS person")


def test_render_sql_positional_columns():
    cq = ConjunctiveQuery("out", ["a"], [Var("x")], distinct=False)
    cq.add_atom("r", [Var("x"), Const(3)])
    sql = render_sql(cq)
    assert "t0.c1 = 3" in sql
    assert "DISTINCT" not in sql


def test_render_sql_escapes_strings_and_infinity():
    cq = ConjunctiveQuery("out", ["a"], [Var("x")])
    cq.add_atom("r", [Var("x"), Const("O'Reilly"), Const(float("inf"))])
    sql = render_sql(cq)
    assert "'O''Reilly'" in sql
    assert "'infinity'" in sql


def test_render_sql_unbound_head_variable_rejected():
    cq = ConjunctiveQuery("out", ["a"], [Var("missing")])
    cq.add_atom("r", [Const(1)])
    with pytest.raises(ValueError):
        render_sql(cq)
