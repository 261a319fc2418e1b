"""Tests for template enumeration (Table 3)."""

import pytest

from repro.templates import TemplateRegistry, count_templates, enumerate_template_queries
from repro.templates.enumerate import set_partitions, template_count_table


def test_set_partitions_counts_are_bell_numbers():
    assert len(list(set_partitions([]))) == 1
    assert len(list(set_partitions([1]))) == 1
    assert len(list(set_partitions([1, 2]))) == 2
    assert len(list(set_partitions([1, 2, 3]))) == 5
    assert len(list(set_partitions([1, 2, 3, 4]))) == 15


def test_set_partitions_cover_all_items():
    for partition in set_partitions([1, 2, 3]):
        flattened = sorted(x for block in partition for x in block)
        assert flattened == [1, 2, 3]


@pytest.mark.parametrize(
    "num_value_joins, expected_flat",
    [(1, 1), (2, 3), (3, 6)],
)
def test_flat_schema_template_counts_match_table3(num_value_joins, expected_flat):
    assert count_templates(num_value_joins, "flat") == expected_flat


@pytest.mark.parametrize(
    "num_value_joins, expected_complex",
    [(1, 1), (2, 3), (3, 16)],
)
def test_complex_schema_template_counts_match_table3(num_value_joins, expected_complex):
    assert count_templates(num_value_joins, "complex") == expected_complex


@pytest.mark.slow
def test_four_value_join_counts():
    """Table 3's last row: 16 flat templates; 146 complex ones (the paper: < 230)."""
    assert count_templates(4, "flat") == 16
    assert count_templates(4, "complex") == 146


def test_template_count_table_shape():
    rows = template_count_table(2)
    assert [r["value_joins"] for r in rows] == [1, 2]
    assert rows[0]["templates_flat"] == 1
    assert rows[1]["templates_complex"] == 3


def test_enumerated_queries_have_requested_value_joins():
    queries = list(enumerate_template_queries(2, "flat"))
    assert queries
    assert all(len(q.join.predicates) == 2 for q in queries)
    # No duplicated predicates (those would really be 1-value-join queries).
    for query in queries:
        assert len(set(query.join.predicates)) == 2


def test_enumerated_queries_register_cleanly():
    registry = TemplateRegistry()
    for i, query in enumerate(enumerate_template_queries(2, "complex")):
        registry.add_query(f"e{i}", query)
    assert registry.num_templates == 3


def test_invalid_value_join_count_rejected():
    with pytest.raises(ValueError):
        list(enumerate_template_queries(0, "flat"))
