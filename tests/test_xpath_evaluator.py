"""Unit tests for the Stage 1 evaluator (witness generation)."""

import pytest

from repro.xmlmodel import parse_document
from repro.xpath import XPathEvaluator, parse_path
from repro.xpath.evaluator import VariableConflictError
from repro.xpath.pattern import simple_pattern


@pytest.fixture
def evaluator() -> XPathEvaluator:
    ev = XPathEvaluator()
    pattern = simple_pattern("S", "x1", "//book", {"x2": ".//author", "x3": ".//title"})
    ev.register_pattern(pattern)
    return ev


@pytest.fixture
def book_doc():
    return parse_document(
        "<book>"
        "<authors><author>Ada</author><author>Grace</author></authors>"
        "<title>Streams</title>"
        "</book>",
        docid="b1",
        timestamp=5.0,
    )


def test_variable_bindings(evaluator, book_doc):
    witnesses = evaluator.evaluate(book_doc)
    assert witnesses.docid == "b1"
    assert witnesses.timestamp == 5.0
    assert witnesses.var_nodes["x1"] == {0}
    assert witnesses.var_nodes["x2"] == {2, 3}
    assert witnesses.var_nodes["x3"] == {4}


def test_edge_pairs(evaluator, book_doc):
    witnesses = evaluator.evaluate(book_doc)
    assert witnesses.edge_pairs[("x1", "x2")] == {(0, 2), (0, 3)}
    assert witnesses.edge_pairs[("x1", "x3")] == {(0, 4)}


def test_node_values_for_bound_nodes(evaluator, book_doc):
    witnesses = evaluator.evaluate(book_doc)
    assert witnesses.node_values[2] == "Ada"
    assert witnesses.node_values[4] == "Streams"
    assert 0 in witnesses.node_values  # the bound root is recorded too


def test_non_matching_document_is_empty(evaluator):
    witnesses = evaluator.evaluate(parse_document("<blog><author>Ada</author></blog>"))
    assert witnesses.is_empty
    assert witnesses.bound_variables() == set()


def test_other_stream_not_matched(evaluator, book_doc):
    book_doc.stream = "otherstream"
    witnesses = evaluator.evaluate(book_doc)
    assert witnesses.is_empty


def test_variables_shared_across_patterns(evaluator):
    # Registering a second pattern using the same definitions must not conflict.
    again = simple_pattern("S", "x1", "//book", {"x2": ".//author"})
    evaluator.register_pattern(again)
    assert set(evaluator.variables) == {"x1", "x2", "x3"}


def test_conflicting_variable_definition_rejected(evaluator):
    other = simple_pattern("S", "x1", "//blog", {})
    with pytest.raises(VariableConflictError):
        evaluator.register_pattern(other)


def test_conflicting_edge_registration_rejected(evaluator):
    with pytest.raises(VariableConflictError):
        evaluator.register_edge("x1", "x2", parse_path(".//title"))


def test_explicit_edge_subset():
    ev = XPathEvaluator()
    pattern = simple_pattern("S", "r", "//item", {"a": ".//x", "b": ".//y"})
    ev.register_pattern(pattern, edges=[("r", "a")])
    assert set(ev.edges) == {("r", "a")}


def test_register_variable_requires_absolute_path():
    ev = XPathEvaluator()
    with pytest.raises(ValueError):
        ev.register_variable("v", "S", parse_path(".//x"))


def test_register_edge_requires_relative_path():
    ev = XPathEvaluator()
    with pytest.raises(ValueError):
        ev.register_edge("a", "b", parse_path("//x"))


def test_multi_level_edge_witnesses():
    """Edges spanning spliced intermediates anchor at the ancestor binding."""
    ev = XPathEvaluator()
    ev.register_variable("r", "S", parse_path("//lib"))
    ev.register_variable("t", "S", parse_path("//lib//shelf//title"))
    ev.register_edge("r", "t", parse_path(".//shelf//title"))
    doc = parse_document(
        "<lib><shelf><title>A</title></shelf><title>loose</title></lib>", docid="x"
    )
    witnesses = ev.evaluate(doc)
    assert witnesses.edge_pairs[("r", "t")] == {(0, 2)}


def test_num_nfa_states_reflects_sharing():
    ev = XPathEvaluator()
    ev.register_variable("a", "S", parse_path("//item//title"))
    before = ev.num_nfa_states()
    ev.register_variable("b", "S", parse_path("//item//author"))
    assert ev.num_nfa_states() == before + 1


def test_stream_matchers_rebuild_only_for_new_registrations_on_their_stream(
    evaluator, monkeypatch
):
    from repro.xpath import evaluator as module

    built = []

    class Counting(module.StreamMatcher):
        def __init__(self, nfa, edges, stream_variables):
            built.append(frozenset(stream_variables))
            super().__init__(nfa, edges, stream_variables)

    monkeypatch.setattr(module, "StreamMatcher", Counting)
    evaluator.register_variable("y1", "T", parse_path("//blog"))

    def publish_on_both():
        book = evaluator.evaluate_text("<book><author>Ada</author></book>", "b", 1.0)
        blog = evaluator.evaluate_text("<blog><author>Ada</author></blog>", "g", 2.0, stream="T")
        assert book.var_nodes["x2"] == {1}
        return blog

    publish_on_both()
    assert len(built) == 2
    # a known variable and a known edge: every compiled matcher survives
    evaluator.register_pattern(simple_pattern("S", "x1", "//book", {"x2": ".//author"}))
    evaluator.register_variable("y1", "T", parse_path("//blog"))
    publish_on_both()
    assert len(built) == 2
    # a new variable, then a new edge, on T: only T's matcher is rebuilt
    evaluator.register_variable("y2", "T", parse_path("//blog//author"))
    assert publish_on_both().var_nodes["y2"] == {1}
    evaluator.register_edge("y1", "y2", parse_path(".//author"))
    assert publish_on_both().edge_pairs[("y1", "y2")] == {(0, 1)}
    assert built[2:] == [frozenset({"y1", "y2"})] * 2
    # retracting them touches T alone as well
    evaluator.deregister(variables=["y2"], edges=[("y1", "y2")])
    assert "y2" not in publish_on_both().var_nodes
    assert built[4:] == [frozenset({"y1"})]
