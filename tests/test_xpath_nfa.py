"""Unit tests for the shared path NFA (YFilter-style matching)."""

import pytest

from repro.xmlmodel import XmlDocument, element, parse_document
from repro.xpath import PathNFA, parse_path


@pytest.fixture
def catalog_doc() -> XmlDocument:
    return parse_document(
        "<catalog>"
        "  <book><title>T1</title><author>A1</author></book>"
        "  <box><book><title>T2</title></book></box>"
        "  <magazine><title>M1</title></magazine>"
        "</catalog>"
    )


def test_descendant_path_matches_at_any_depth(catalog_doc):
    nfa = PathNFA()
    nfa.add_path("books", parse_path("//book"))
    matches = nfa.match_document(catalog_doc)
    assert {catalog_doc.node(n).tag for n in matches["books"]} == {"book"}
    assert len(matches["books"]) == 2


def test_child_path_matches_only_direct_children(catalog_doc):
    nfa = PathNFA()
    nfa.add_path("direct", parse_path("/catalog/book"))
    matches = nfa.match_document(catalog_doc)
    assert len(matches["direct"]) == 1


def test_multi_step_descendant_path(catalog_doc):
    nfa = PathNFA()
    nfa.add_path("book_titles", parse_path("//book//title"))
    matches = nfa.match_document(catalog_doc)
    values = sorted(catalog_doc.node(n).string_value() for n in matches["book_titles"])
    assert values == ["T1", "T2"]


def test_wildcard_step(catalog_doc):
    nfa = PathNFA()
    nfa.add_path("all_titles", parse_path("//*//title"))
    matches = nfa.match_document(catalog_doc)
    assert len(matches["all_titles"]) == 3


def test_unmatched_path_absent_from_result(catalog_doc):
    nfa = PathNFA()
    nfa.add_path("missing", parse_path("//newspaper"))
    assert "missing" not in nfa.match_document(catalog_doc)


def test_root_element_matches_descendant_path():
    nfa = PathNFA()
    nfa.add_path("item", parse_path("//item"))
    doc = XmlDocument(element("item", element("title", text="x")))
    assert nfa.match_document(doc)["item"] == {0}


def test_shared_prefixes_share_states():
    solo = PathNFA()
    solo.add_path("a", parse_path("//book//title"))
    states_single = solo.num_states

    shared = PathNFA()
    shared.add_path("a", parse_path("//book//title"))
    shared.add_path("b", parse_path("//book//author"))
    # The //book prefix is shared, so only one extra state is needed.
    assert shared.num_states == states_single + 1


def test_duplicate_registration_is_idempotent():
    nfa = PathNFA()
    nfa.add_path("a", parse_path("//book"))
    nfa.add_path("a", parse_path("//book"))
    assert len(nfa.paths) == 1


def test_conflicting_registration_rejected():
    nfa = PathNFA()
    nfa.add_path("a", parse_path("//book"))
    with pytest.raises(ValueError):
        nfa.add_path("a", parse_path("//blog"))


def test_relative_path_rejected():
    nfa = PathNFA()
    with pytest.raises(ValueError):
        nfa.add_path("a", parse_path(".//book"))


def test_many_paths_one_pass(catalog_doc):
    nfa = PathNFA()
    for tag in ("book", "title", "author", "magazine", "box", "nothing"):
        nfa.add_path(tag, parse_path(f"//{tag}"))
    matches = nfa.match_document(catalog_doc)
    assert set(matches) == {"book", "title", "author", "magazine", "box"}
