"""Property-based tests (hypothesis) for the relational substrate.

These check the equivalence of the conjunctive-query evaluator with a
brute-force nested-loop reference implementation on random instances, and
the relations' cached distinct counts.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.relational import ConjunctiveQuery, Relation, Var, evaluate_conjunctive

# Small value domains keep the instances interesting (collisions happen).
values = st.integers(min_value=0, max_value=4)
rows2 = st.lists(st.tuples(values, values), max_size=12)
rows3 = st.lists(st.tuples(values, values, values), max_size=12)


def _rel(schema, rows, name="r"):
    return Relation(schema, rows=rows, name=name)


def _brute_force_two_hop(edge_rows):
    return sorted({(a, c) for a, b in edge_rows for b2, c in edge_rows if b == b2})


@given(rows2)
@settings(max_examples=60)
def test_conjunctive_query_matches_brute_force(edge_rows):
    edges = _rel(["src", "dst"], edge_rows, "edge")
    cq = ConjunctiveQuery("out", ["a", "c"], [Var("a"), Var("c")])
    cq.add_atom("edge", [Var("a"), Var("b")])
    cq.add_atom("edge", [Var("b"), Var("c")])
    result = evaluate_conjunctive(cq, {"edge": edges})
    assert sorted(result.rows) == _brute_force_two_hop(edge_rows)


@given(rows2, rows2)
@settings(max_examples=60)
def test_conjunctive_query_order_invariance(a_rows, b_rows):
    """Greedy and given join orders must produce identical results."""
    a = _rel(["x", "y"], a_rows, "a")
    b = _rel(["y", "z"], b_rows, "b")
    cq = ConjunctiveQuery("out", ["x", "z"], [Var("x"), Var("z")])
    cq.add_atom("a", [Var("x"), Var("y")])
    cq.add_atom("b", [Var("y"), Var("z")])
    env = {"a": a, "b": b}
    greedy = evaluate_conjunctive(cq, env, order="greedy")
    given_order = evaluate_conjunctive(cq, env, order="given")
    assert sorted(greedy.rows) == sorted(given_order.rows)


@given(rows3)
def test_distinct_count_matches_set_semantics(rows):
    rel = _rel(["a", "b", "c"], rows)
    for column in range(3):
        assert rel.distinct_count(column) == len({r[column] for r in rows})
    # Cache stays correct after inserting more rows.
    rel.insert((9, 9, 9))
    assert rel.distinct_count(0) == len({r[0] for r in rel.rows})
