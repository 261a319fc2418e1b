"""Unit tests for what is particular to one Stage 2 strategy or to neither.

The behaviour every strategy shares is checked once, parametrised, in
``tests/test_processor_contract.py``.
"""

import pytest

from repro.core import MMQJPJoinProcessor
from repro.core.processor import build_per_query_cq, window_satisfied
from repro.templates import JoinGraph, TemplateRegistry, reduce_join_graph
from repro.workloads.synthetic import build_technical_benchmark_data
from repro.xscl.ast import JoinOperator
from tests.test_processor_contract import SCHEMA, matching_query


@pytest.fixture
def data():
    return build_technical_benchmark_data(SCHEMA)


def test_window_satisfied_followed_by():
    assert window_satisfied(JoinOperator.FOLLOWED_BY, 1.0, 10.0)
    assert not window_satisfied(JoinOperator.FOLLOWED_BY, 0.0, 10.0)
    assert not window_satisfied(JoinOperator.FOLLOWED_BY, 11.0, 10.0)


def test_window_satisfied_join_allows_simultaneous_events():
    assert window_satisfied(JoinOperator.JOIN, 0.0, 10.0)
    assert not window_satisfied(JoinOperator.JOIN, 11.0, 10.0)


def test_mmqjp_costs_recorded(data):
    registry = TemplateRegistry()
    registry.add_query("hit", matching_query())
    processor = MMQJPJoinProcessor(
        registry, state=data.fresh_state(), use_view_materialization=True
    )
    processor.process(data.witness)
    for phase in ("conjunctive_query", "rvj", "rl", "rr"):
        assert processor.costs.get(phase) >= 0.0
    assert processor.costs.total > 0.0


def test_per_query_cq_uses_constants_for_variable_names():
    query = matching_query()
    reduced = reduce_join_graph(JoinGraph.from_query(query))
    cq = build_per_query_cq("q7", query, reduced)
    # The head carries the query id and window as constants.
    assert cq.head_terms[0].value == "q7"
    assert cq.head_terms[-1].value == float("inf")
    rt_atoms = [a for a in cq.body if a.relation.startswith("RT")]
    assert rt_atoms == []
