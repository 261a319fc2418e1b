"""Unit tests for view materialization (Section 5)."""

import random

import pytest

from repro.core import JoinState, MMQJPJoinProcessor, WitnessRelations, compute_materialized_views
from repro.core import processor as processor_module
from repro.core.costs import CostBreakdown
from repro.relational.columnar import ValueDictionary
from repro.templates import TemplateRegistry
from repro.templates.cqt import RELATION_SCHEMAS
from repro.workloads.synthetic import build_technical_benchmark_data
from repro.xmlmodel.schema import two_level_schema
from tests.test_processor_contract import matching_query


def _views(state, witnesses, **kwargs):
    return compute_materialized_views(state, witnesses, ValueDictionary(), **kwargs)


@pytest.fixture
def state() -> JoinState:
    s = JoinState()
    # One previous document with two bound leaves under a root.
    s.insert_document_rows(
        "d1",
        1.0,
        rbin_rows=[("root", "author", 0, 1), ("root", "title", 0, 2)],
        rdoc_rows=[(1, "Ada"), (2, "Streams")],
        rvar_rows=[("root", 0), ("author", 1), ("title", 2)],
    )
    return s


@pytest.fixture
def witnesses() -> WitnessRelations:
    # Current document: author value matches d1's, title value does not.
    return WitnessRelations.from_rows(
        "d2",
        2.0,
        rbinw_rows=[("root", "author", 0, 1), ("root", "title", 0, 2)],
        rdocw_rows=[(1, "Ada"), (2, "Databases")],
        rvarw_rows=[("root", 0), ("author", 1), ("title", 2)],
    )


def test_common_values_semijoin(state, witnesses):
    views = _views(state, witnesses)
    assert views.common_values == {"Ada"}


def test_rvj_contains_matching_node_pairs(state, witnesses):
    views = _views(state, witnesses)
    assert views.rvj.rows == [("d1", 1, 1, "Ada")]


def test_rl_restricted_to_common_values(state, witnesses):
    views = _views(state, witnesses)
    assert views.rl.rows == [("d1", "root", "author", 0, 1, "Ada")]
    assert views.rlvar.rows == [("d1", "author", 1, "Ada")]


def test_rr_restricted_to_common_values(state, witnesses):
    views = _views(state, witnesses)
    assert views.rr.rows == [("root", "author", 0, 1, "Ada")]
    assert views.rrvar.rows == [("author", 1, "Ada")]


def test_costs_record_three_phases(state, witnesses):
    costs = CostBreakdown()
    _views(state, witnesses, costs=costs)
    assert set(costs.seconds) == {"rvj", "rl", "rr"}


def test_no_common_values_yields_empty_views(state):
    witnesses = WitnessRelations.from_rows(
        "d3", 3.0, rbinw_rows=[("root", "author", 0, 1)], rdocw_rows=[(1, "Nobody")]
    )
    views = _views(state, witnesses)
    assert len(views.rvj) == 0
    assert len(views.rl) == 0
    assert len(views.rr) == 0


def test_views_are_keyed_by_their_canonical_names(state, witnesses):
    relations = _views(state, witnesses).relations()
    assert sorted(relations) == sorted(["Rvj", "RL", "RR", "RLvar", "RRvar"])
    for name, relation in relations.items():
        assert list(relation.schema.attributes) == RELATION_SCHEMAS[name]
        assert relation.name == name


def test_a_document_without_string_values_leaves_the_state_unencoded(state):
    witnesses = WitnessRelations.from_rows(
        "d3", 3.0, rbinw_rows=[("root", "author", 0, 1)], rdocw_rows=[]
    )
    views = _views(state, witnesses)
    assert views.common_values == set()
    assert not any(views.relations().values())
    assert state.rdoc.column_store() is None  # no column store was attached


def test_current_values_are_not_interned(state):
    dictionary = ValueDictionary()
    witnesses = WitnessRelations.from_rows(
        "d3", 3.0, rbinw_rows=[("root", "author", 0, 1)], rdocw_rows=[(1, "Zed")]
    )
    views = compute_materialized_views(state, witnesses, dictionary)
    assert len(views.rvj) == 0
    assert dictionary.get_id("Zed") is None  # probed with get_id, not id_of
    assert dictionary.get_id("Ada") is not None  # the state is interned


def test_rvj_pairs_every_previous_node_with_every_current_node_of_a_value(state):
    state.insert_document_rows(
        "d0", 0.5, rbin_rows=[("root", "author", 0, 7)], rdoc_rows=[(7, "Ada")],
        rvar_rows=[("author", 7)],
    )
    witnesses = WitnessRelations.from_rows(
        "d2", 2.0,
        rbinw_rows=[("root", "author", 0, 1), ("root", "author", 0, 3)],
        rdocw_rows=[(1, "Ada"), (3, "Ada")],
    )
    views = _views(state, witnesses)
    assert sorted(views.rvj.rows) == [
        ("d0", 7, 1, "Ada"), ("d0", 7, 3, "Ada"), ("d1", 1, 1, "Ada"), ("d1", 1, 3, "Ada"),
    ]
    # RR is the current document's side: one row per binding, however
    # many previous documents share the value
    assert sorted(views.rr.rows) == [
        ("root", "author", 0, 1, "Ada"), ("root", "author", 0, 3, "Ada"),
    ]


def test_rl_keys_previous_nodes_by_document(state):
    # d0's node 1 holds another value: its edges must not join d1's "Ada"
    state.insert_document_rows(
        "d0", 0.5,
        rbin_rows=[("root", "editor", 0, 1)],
        rdoc_rows=[(1, "Grace")],
        rvar_rows=[("editor", 1)],
    )
    views = _views(state, WitnessRelations.from_rows(
        "d2", 2.0, rbinw_rows=[("root", "author", 0, 1)], rdocw_rows=[(1, "Ada")],
        rvarw_rows=[("author", 1)],
    ))
    assert views.rl.rows == [("d1", "root", "author", 0, 1, "Ada")]
    assert views.rlvar.rows == [("d1", "author", 1, "Ada")]


def test_one_dictionary_encodes_the_state_once(state, witnesses):
    dictionary = ValueDictionary()
    first = compute_materialized_views(state, witnesses, dictionary)
    store = state.rdoc.column_store()
    assert store.dictionary is dictionary
    encoded = store.rows_encoded
    again = compute_materialized_views(state, witnesses, dictionary)
    assert state.rdoc.column_store() is store and store.rows_encoded == encoded
    assert again.rl.rows == first.rl.rows
    # another environment re-homes the stores and reads the same views
    other = compute_materialized_views(state, witnesses, ValueDictionary())
    assert state.rdoc.column_store() is not store
    assert other.rl.rows == first.rl.rows and other.rr.rows == first.rr.rows


def test_views_are_computed_only_for_a_relevant_document(state, witnesses, monkeypatch):
    calls = []
    real = processor_module.compute_materialized_views

    def counting(*args, **kwargs):
        calls.append(args[1].docid)
        return real(*args, **kwargs)

    monkeypatch.setattr(processor_module, "compute_materialized_views", counting)
    data = build_technical_benchmark_data(two_level_schema(4))
    processor = MMQJPJoinProcessor(
        TemplateRegistry(), state=data.fresh_state(), use_view_materialization=True
    )
    processor.add_query("hit", matching_query())
    assert processor.process(WitnessRelations.empty("idle", 9.0)) == []
    assert calls == []
    assert [m.qid for m in processor.process(data.witness)] == ["hit"]
    assert calls == [data.witness.docid]


def test_cost_breakdown_merge_and_reset():
    a = CostBreakdown()
    with a.measure("phase1"):
        pass
    b = CostBreakdown()
    b.add("phase2", 0.5)
    a.merge(b)
    assert set(a.seconds) == {"phase1", "phase2"}
    assert a.total >= 0.5
    assert a.as_milliseconds()["phase2"] == 500.0
    a.reset()
    assert a.total == 0.0


# --------------------------------------------------------------------------- #
# the views read the state's id columns through every kind of mutation
# --------------------------------------------------------------------------- #
def _reference_views(state, witnesses):
    """Rvj / RL / RLvar by nested loops over the state's rows."""
    current = {}
    for node, value in witnesses.rdocw.rows:
        current.setdefault(value, []).append(node)
    previous = [row for row in state.rdoc.rows if row[2] in current]
    rvj = [(d, n, c, v) for d, n, v in previous for c in current[v]]
    rl = [r + (v,) for d, n, v in previous for r in state.rbin.rows if (r[0], r[4]) == (d, n)]
    rlvar = [r + (v,) for d, n, v in previous for r in state.rvar.rows if (r[0], r[2]) == (d, n)]
    return sorted(rvj), sorted(rl), sorted(rlvar)


def _document(rng):
    leaves = range(1, rng.randrange(2, 6))
    return dict(
        rbin_rows=[("root", f"v{rng.randrange(4)}", 0, n) for n in leaves],
        rdoc_rows=[(n, f"s{rng.randrange(6)}") for n in leaves],
        rvar_rows=[("root", 0)] + [(f"v{rng.randrange(4)}", n) for n in leaves],
    )


def test_views_follow_the_state_through_every_mutation():
    rng = random.Random(3)
    state = JoinState()
    for k in range(40):
        state.insert_document_rows(f"d{k}", float(k), **_document(rng))
    dictionary = ValueDictionary()  # one environment, as in the processor
    current = WitnessRelations.from_rows(
        "now", 100.0,
        rbinw_rows=[("root", "v1", 0, 1), ("root", "v2", 0, 2)],
        rdocw_rows=[(1, "s1"), (2, "s4"), (3, "s9")],
        rvarw_rows=[("v1", 1), ("v2", 2)],
    )
    steps = [
        lambda: None,
        lambda: state.insert_document_rows("d40", 40.0, **_document(rng)),  # append
        lambda: state.prune(5.0),  # a row prefix
        lambda: state.drop_documents({"d17", "d30"}),  # not a prefix
        lambda: state.drop_variables({"v2"}),  # delete_rows: re-encodes
        lambda: state.insert_document_rows("d41", 41.0, **_document(rng)),
    ]
    for step in steps:
        step()
        views = compute_materialized_views(state, current, dictionary)
        got = sorted(views.rvj.rows), sorted(views.rl.rows), sorted(views.rlvar.rows)
        assert got == _reference_views(state, current)
        assert views.common_values == {row[3] for row in views.rvj.rows}
    assert views.rl.rows and views.rlvar.rows
