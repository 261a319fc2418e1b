"""Unit tests for XSCL AST helpers."""

import copy
import random
from dataclasses import replace

import pytest

from repro.workloads.querygen import generate_query
from repro.xmlmodel.schema import two_level_schema
from repro.xscl import INFINITE_WINDOW, JoinOperator, JoinSpec, ValueJoinPredicate, parse_query
from repro.xscl.ast import QueryBlock, XsclQuery
from repro.xscl.render import render_query
from tests.conftest import PAPER_Q1, PAPER_WINDOWS


@pytest.fixture
def q1() -> XsclQuery:
    return parse_query(PAPER_Q1, window_symbols=PAPER_WINDOWS)


def test_join_spec_validation():
    with pytest.raises(ValueError):
        JoinSpec(JoinOperator.JOIN, (), 1.0)
    with pytest.raises(ValueError):
        JoinSpec(JoinOperator.JOIN, (ValueJoinPredicate("a", "b"),), -1.0)


def test_join_spec_str_formats_infinity():
    spec = JoinSpec(JoinOperator.FOLLOWED_BY, (ValueJoinPredicate("a", "b"),), INFINITE_WINDOW)
    assert str(spec) == "FOLLOWED BY{a=b, INF}"


def test_query_requires_join_and_right_together(q1):
    with pytest.raises(ValueError):
        XsclQuery(left=q1.left, right=q1.right, join=None)
    with pytest.raises(ValueError):
        XsclQuery(left=q1.left, right=None, join=q1.join)


def test_all_variables_deduplicated(q1):
    assert q1.all_variables() == ["x1", "x2", "x3", "x4", "x5", "x6"]


def test_join_variable_accessors(q1):
    assert q1.left_join_variables() == ["x2", "x3"]
    assert q1.right_join_variables() == ["x5", "x6"]
    single = parse_query("blog//entry->e")
    assert single.left_join_variables() == []
    assert single.right_join_variables() == []


def test_rename_variables_is_non_destructive(q1):
    renamed = q1.rename_variables({"x2": "author_var"})
    assert "author_var" in renamed.left.variables()
    assert renamed.join.predicates[0].left_var == "author_var"
    # The original query is untouched.
    assert "x2" in q1.left.variables()
    assert q1.join.predicates[0].left_var == "x2"


def test_is_join_query_flag(q1):
    assert q1.is_join_query
    assert not parse_query("blog//entry->e").is_join_query


def test_repr_mentions_operator_and_blocks(q1):
    text = repr(q1)
    assert "FOLLOWED BY" in text
    assert "2 value joins" in text


def rename_variables_deepcopy(query: XsclQuery, mapping: dict[str, str]) -> XsclQuery:
    """The reference rename: deep-copy every pattern, then rename in place."""

    def rename_block(block):
        if block is None:
            return None
        pattern = copy.deepcopy(block.pattern)
        for node in pattern.iter_nodes():
            if node.variable is not None:
                node.variable = mapping.get(node.variable, node.variable)
        return QueryBlock(pattern=pattern)

    join = query.join
    if join is not None:
        join = JoinSpec(
            operator=join.operator,
            predicates=tuple(
                ValueJoinPredicate(
                    mapping.get(p.left_var, p.left_var), mapping.get(p.right_var, p.right_var)
                )
                for p in join.predicates
            ),
            window=join.window,
        )
    return replace(query, left=rename_block(query.left), right=rename_block(query.right), join=join)


def test_rename_variables_matches_deepcopy_baseline(q1):
    mapping = {"x2": "a", "x5": "b", "x6": "x6"}
    queries = [q1] + [
        generate_query(two_level_schema(4), k, random.Random(seed), window=9.0)
        for k, seed in [(1, 0), (2, 1), (4, 7)]
    ]
    for query in queries:
        fast = query.rename_variables(mapping)
        slow = rename_variables_deepcopy(query, mapping)
        assert render_query(fast) == render_query(slow)


def test_rename_variables_shares_frozen_paths(q1):
    # The structural copy rebuilds only the mutable PatternNode layer; the
    # frozen LocationPath objects must be shared, not cloned (this is what
    # makes subscribe-time canonicalization cheap).
    renamed = q1.rename_variables({"x2": "a"})
    for fresh, original in zip(
        renamed.left.pattern.iter_nodes(), q1.left.pattern.iter_nodes()
    ):
        assert fresh is not original
        assert fresh.path is original.path
