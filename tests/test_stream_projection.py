"""Tag projection in the Stage-1 text scan.

A run of attribute-free leaves whose tags no registered path or edge tests
reaches :class:`~repro.xpath.streaming.WitnessBuilder` as one ``leaves``
call.  These tests pin that:

* witness sets from the text (:meth:`XPathEvaluator.evaluate_text`) equal
  those of the parsed tree (:meth:`XPathEvaluator.evaluate`) over generated
  documents full of leaf runs, text, entities, CDATA and comments, under
  child, descendant and ``*`` registrations — and malformed variants fail
  with the same message;
* the projection fires on an element-dense document, a ``*`` step switches
  it off, and a rebuilt matcher reuses its compiled pattern;
* a builder-made tree, serialized once, scans to the witnesses of the tree
  itself — except that surrounding whitespace in its text is stripped;
* the validation-only scan is the same scanner, not a nested ``scan_text``;
* DOCTYPE entity declarations (the real DBLP header) decode on every path,
  so ``H&uuml;tter`` joins ``Hütter``;
* decimal and hex character references decode on every path, so
  ``Ren&#233;`` joins ``René``, and one to a code point XML does not allow
  is rejected.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import RuntimeConfig
from repro.pubsub.broker import Broker
from repro.xmlmodel import XmlDocument, element, parse_document, to_xml
from repro.xmlmodel import stream
from repro.xmlmodel.parser import XmlParseError, _parse_node_reference
from repro.xpath import XPathEvaluator, parse_path
from repro.xpath import streaming

DBLP_SNIPPET = Path(__file__).parent / "data" / "dblp_snippet.xml"

# --------------------------------------------------------------------- #
# witness parity: text scan vs parsed tree
# --------------------------------------------------------------------- #

#: (variable, absolute path); ``cite`` and ``*`` put leaf tags in the alphabet.
VARIABLES = (
    ("v_a", "//a"),
    ("v_ab", "/a/b"),
    ("v_ac", "//a//c"),
    ("v_b", "//b"),
    ("v_cite", "//b/cite"),
    ("v_star", "//a/*"),
)
#: (ancestor, descendant) -> relative path
EDGES = (
    (("v_a", "v_ac"), ".//c"),
    (("v_a", "v_b"), "./b"),
    (("v_b", "v_cite"), "./cite"),
    (("v_a", "v_star"), "./*"),
    (("v_b", "v_ac"), ".//note"),
)
_DOCTYPE = '<!DOCTYPE a [ <!ENTITY uuml "ü"> <!-- a ]> in a comment --> ]>'

_space = st.sampled_from(["", " ", "\n  ", "\t"])
_leaf_text = st.sampled_from(
    ["", "x", " pad ", "H&uuml;tter", "a &amp; b", "&undeclared;", "  "]
)
_text = st.sampled_from(["t", " mid ", "&uuml;", "1 &lt; 2", "  "])
_misc = st.sampled_from(["<!-- c -->", "<![CDATA[raw <&> ]]>"])


@st.composite
def _leaf(draw) -> str:
    tag = draw(st.sampled_from(["cite", "note", "cite", "c", "x-y"]))
    shape = draw(st.integers(min_value=0, max_value=5))
    if shape == 0:
        return f"<{tag}/>"
    if shape == 1:
        return f'<{tag} k="v">{draw(_leaf_text)}</{tag}>'
    return f"<{tag}>{draw(_leaf_text)}</{tag}>"


@st.composite
def _element(draw, depth: int = 0) -> str:
    tag = draw(st.sampled_from(["a", "b", "c", "r"]))
    items = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.integers(min_value=0, max_value=4 if depth < 2 else 3))
        if kind == 0:
            run = draw(st.lists(st.tuples(_space, _leaf()), min_size=1, max_size=5))
            items.append("".join(space + leaf for space, leaf in run))
        elif kind == 1:
            items.append(draw(_text))
        elif kind == 2:
            items.append(draw(_misc))
        elif kind == 3:
            items.append(draw(_space))
        else:
            items.append(draw(_element(depth=depth + 1)))
    return f"<{tag}>{''.join(items)}</{tag}>"


@st.composite
def documents(draw) -> str:
    prolog = draw(st.sampled_from(["", _DOCTYPE, "<!DOCTYPE a>"]))
    return prolog + draw(_element())


@st.composite
def evaluators(draw) -> XPathEvaluator:
    chosen = draw(
        st.lists(st.sampled_from(VARIABLES), min_size=1, max_size=4, unique=True)
    )
    evaluator = XPathEvaluator()
    for variable, path in chosen:
        evaluator.register_variable(variable, "S", parse_path(path))
    for key, path in EDGES:
        if draw(st.booleans()):
            evaluator.register_edge(*key, parse_path(path))
    return evaluator


def _witnesses(witnesses):
    return witnesses.var_nodes, witnesses.edge_pairs, witnesses.node_values


@settings(max_examples=300, deadline=None)
@given(text=documents(), evaluator=evaluators())
def test_text_witnesses_equal_tree_witnesses(text, evaluator):
    from_text = evaluator.evaluate_text(text, "d", 1.0)
    from_tree = evaluator.evaluate(parse_document(text, docid="d", timestamp=1.0))
    assert _witnesses(from_text) == _witnesses(from_tree)


@pytest.mark.parametrize(
    "text",
    [
        # whitespace between the leaves is part of the parent's own text
        "<a>x <cite>1</cite> <cite>2</cite>\n<cite>3</cite> y</a>",
        '<!DOCTYPE a [ <!ENTITY e "é"> ]><a><b>&e;<note> &e; </note>t</b></a>',
        "<a><c>k</c><cite>1</cite><!-- c --><cite>2</cite><![CDATA[ <z> ]]>w</a>",
        '<a><cite>1</cite><cite k="v">2</cite><cite/><cite>3</cite><c>4</c></a>',
    ],
)
def test_text_witnesses_equal_tree_witnesses_by_hand(text):
    evaluator = XPathEvaluator()
    for variable, path in VARIABLES[:4]:
        evaluator.register_variable(variable, "S", parse_path(path))
    from_text = evaluator.evaluate_text(text, "d", 1.0)
    assert evaluator._stream_matchers["S"].leaf_run is not None
    from_tree = evaluator.evaluate(parse_document(text, docid="d", timestamp=1.0))
    assert _witnesses(from_text) == _witnesses(from_tree)


@settings(max_examples=200, deadline=None)
@given(text=documents(), evaluator=evaluators(), cut=st.data())
def test_malformed_text_fails_like_the_tree_parser(text, evaluator, cut):
    i = cut.draw(st.integers(min_value=0, max_value=len(text) - 1))
    mutated = cut.draw(st.sampled_from([text[:i], text[:i] + text[i + 1 :]]))

    def outcome(run):
        try:
            run(mutated)
            return None
        except XmlParseError as exc:
            return str(exc)

    expected = outcome(parse_document)
    assert outcome(lambda t: evaluator.evaluate_text(t, "d", 1.0)) == expected
    assert outcome(stream.validate_text) == expected


# --------------------------------------------------------------------- #
# a tree takes the text path: serialized once, then scanned
# --------------------------------------------------------------------- #

#: Text without surrounding whitespace (the parser strips it, see below),
#: with every character the serializer escapes.
_tree_text = st.sampled_from([None, "x", "a & b", "1 < 2 > 0", '"q" \'s\'', "H\u00fctter"])
_tree_attrs = st.dictionaries(
    st.sampled_from(["id", "k"]), st.sampled_from(["v", 'a&"<b>'])
)


@st.composite
def _tree_node(draw, depth: int = 0):
    children = (
        draw(st.lists(_tree_node(depth=depth + 1), max_size=3)) if depth < 3 else []
    )
    return element(
        draw(st.sampled_from(["a", "b", "c", "cite", "note"])),
        *children,
        text=draw(_tree_text),
        attributes=draw(_tree_attrs),
    )


@settings(max_examples=300, deadline=None)
@given(root=_tree_node(), evaluator=evaluators())
def test_a_tree_scans_like_its_serialized_text(root, evaluator):
    tree = XmlDocument(root, docid="d", timestamp=1.0)
    from_tree = evaluator.evaluate(tree)
    from_text = evaluator.evaluate_text(to_xml(tree, pretty=False), "d", 1.0)
    assert _witnesses(from_text) == _witnesses(from_tree)


def test_a_tree_joins_on_its_stripped_text():
    # The one difference: text with surrounding whitespace, which only a
    # programmatic tree can hold, scans to its stripped value.  That is what
    # such a tree already joined on after close + resume_from, which parses
    # the stored text.
    tree = XmlDocument(element("blog", element("author", text="  Ada ")))
    evaluator = XPathEvaluator()
    evaluator.register_variable("a", "S", parse_path("//blog//author"))
    assert evaluator.evaluate(tree).node_values == {1: "  Ada "}
    scanned = evaluator.evaluate_text(to_xml(tree, pretty=False), "d", 1.0)
    assert scanned.node_values == {1: "Ada"}
    broker = Broker(RuntimeConfig(construct_outputs=False, executor="serial"))
    broker.subscribe(
        "S//blog->b[.//author->a] FOLLOWED BY{a=a, 10} S//blog->b[.//author->a]"
    )
    broker.publish(tree)
    assert len(broker.publish("<blog><author>Ada</author></blog>")) == 1


# --------------------------------------------------------------------- #
# the projection fires, and switches off
# --------------------------------------------------------------------- #


def _cites_article(authors: int = 3, cites: int = 400) -> str:
    # the shape of the ``ingest_cites`` benchmark documents
    return (
        "<article><key>dblp/article7</key><authors>"
        + "".join(f"<author>Author {i}</author>" for i in range(authors))
        + "</authors><title>Title 3: advances in stream joins</title>"
        "<venue>venue2</venue><year>2007</year><citations>"
        + "".join(f"<cite>dblp/article{i}</cite>" for i in range(cites))
        + "</citations></article>"
    )


def _article_evaluator() -> XPathEvaluator:
    evaluator = XPathEvaluator()
    evaluator.register_variable("x1", "S", parse_path("//article"))
    evaluator.register_variable("x2", "S", parse_path("//article//author"))
    evaluator.register_edge("x1", "x2", parse_path(".//author"))
    return evaluator


@pytest.fixture
def start_calls(monkeypatch):
    calls = []
    original = streaming.WitnessBuilder.start

    def counting(self, tag, attributes):
        calls.append(tag)
        original(self, tag, attributes)

    monkeypatch.setattr(streaming.WitnessBuilder, "start", counting)
    return calls


def test_inert_leaves_reach_the_builder_as_one_call(start_calls):
    text = _cites_article(authors=3)
    evaluator = _article_evaluator()
    witnesses = evaluator.evaluate_text(text, "d", 1.0)
    # key, title, venue, year and the 400 cites are never named
    assert sorted(start_calls) == sorted(
        ["article", "authors", "citations"] + ["author"] * 3
    )
    assert _witnesses(witnesses) == _witnesses(evaluator.evaluate(parse_document(text)))
    assert witnesses.node_values[0].endswith("dblp/article399")


def test_a_star_step_brings_back_every_element(start_calls):
    text = _cites_article(authors=2, cites=50)
    evaluator = _article_evaluator()
    evaluator.register_variable("x3", "S", parse_path("//citations/*"))
    witnesses = evaluator.evaluate_text(text, "d", 1.0)
    assert len(start_calls) == len(parse_document(text))
    assert len(witnesses.var_nodes["x3"]) == 50


def test_a_named_leaf_stops_the_run(start_calls):
    evaluator = _article_evaluator()
    evaluator.register_variable("x3", "S", parse_path("//article//cite"))
    witnesses = evaluator.evaluate_text(_cites_article(cites=5), "d", 1.0)
    assert start_calls.count("cite") == 5
    assert len(witnesses.var_nodes["x3"]) == 5


def test_matcher_alphabet_sets_the_pattern():
    evaluator = _article_evaluator()
    evaluator.evaluate_text("<article/>", "d", 1.0)
    pattern = evaluator._stream_matchers["S"].leaf_run
    run = "<key>k</key> <title>t</title><author>a</author>"
    assert pattern.match(run).end() == run.index("<author>")
    evaluator.register_edge("x1", "x3", parse_path(".//*"))
    evaluator.register_variable("x3", "S", parse_path("//article//year"))
    evaluator.evaluate_text("<article/>", "d", 1.0)
    assert evaluator._stream_matchers["S"].leaf_run is None


def test_rebuilt_matcher_reuses_the_compiled_pattern(monkeypatch):
    compiled = []
    real_compile = re.compile

    def counting(pattern, *args, **kwargs):
        compiled.append(pattern)
        return real_compile(pattern, *args, **kwargs)

    monkeypatch.setattr(stream.re, "compile", counting)
    evaluator = XPathEvaluator()
    # tag names no other test uses, so the pattern cache starts cold
    evaluator.register_variable("p1", "S", parse_path("//proj-root"))
    evaluator.evaluate_text("<proj-root/>", "d", 1.0)
    first = evaluator._stream_matchers["S"]
    assert len(compiled) == 1
    # a new variable over the same tags rebuilds the matcher, not the pattern
    evaluator.register_variable("p2", "S", parse_path("/proj-root"))
    evaluator.evaluate_text("<proj-root/>", "d", 1.0)
    second = evaluator._stream_matchers["S"]
    assert second is not first
    assert second.leaf_run is first.leaf_run
    assert len(compiled) == 1


def test_validation_scan_does_not_nest_scan_text(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("validate_text went through scan_text")

    monkeypatch.setattr(stream, "scan_text", boom)
    stream.validate_text(_cites_article())
    with pytest.raises(XmlParseError, match="mismatched end tag"):
        stream.validate_text("<a><cite>x</cite><b></a>")
    # the publish path of a stream nobody subscribes to
    assert streaming.scan_witness_sets(_cites_article(), None) == ({}, {}, {})


# --------------------------------------------------------------------- #
# DOCTYPE entity declarations (real DBLP input)
# --------------------------------------------------------------------- #


def test_dblp_snippet_parses_with_declared_entities():
    text = DBLP_SNIPPET.read_text(encoding="utf-8")
    document = parse_document(text)
    authors = [node.text for node in document.nodes() if node.tag == "author"]
    assert "Thomas Hütter" in authors
    assert not any("&" in name for name in authors)
    assert document.root.tag == "dblp"
    assert _parse_node_reference(text).children[0].tag == "bib"
    stream.validate_text(text)


def test_entities_decode_in_text_attributes_and_projected_leaves():
    text = (
        '<!DOCTYPE r [ <!ENTITY uuml "ü"> <!ENTITY who \'Hütter\'> ]>'
        '<r k="&uuml;&amp;&x;"><a>H&uuml;tter <cite>&who;</cite></a></r>'
    )
    document = parse_document(text)
    assert document.root.attributes == {"k": "ü&&x;"}
    assert document.string_value(1) == "HütterHütter"
    evaluator = XPathEvaluator()
    evaluator.register_variable("v", "S", parse_path("//a"))
    assert evaluator.evaluate_text(text, "d", 1.0).node_values == {1: "HütterHütter"}


def test_undeclared_entities_without_a_subset_stay_verbatim():
    assert parse_document("<!DOCTYPE r><r>H&uuml;tter</r>").root.text == "H&uuml;tter"


def test_unterminated_internal_subset_is_rejected_identically():
    text = '<!DOCTYPE r [ <!ENTITY uuml "ü"> <r/>'
    with pytest.raises(XmlParseError) as scanned:
        parse_document(text)
    with pytest.raises(XmlParseError) as reference:
        _parse_node_reference(text)
    assert str(scanned.value) == str(reference.value)
    assert "unterminated DOCTYPE" in str(scanned.value)


_COAUTHOR = (
    "S//inproceedings->x1[.//author->x2] "
    "FOLLOWED BY{x2=x4, 10} "
    "S//article->x3[.//author->x4]"
)


@pytest.mark.parametrize("store_documents", [False, True])
def test_declared_entity_joins_its_literal_spelling(store_documents):
    # text fast path (nothing stored) and tree path (documents stored)
    config = RuntimeConfig(
        store_documents=store_documents,
        construct_outputs=store_documents,
        storage="memory",
        executor="serial",
    )
    broker = Broker(config)
    broker.subscribe(_COAUTHOR)
    assert broker.publish(DBLP_SNIPPET.read_text(encoding="utf-8"), timestamp=1.0) == []
    literal = "<article><author>Thomas Hütter</author></article>"
    deliveries = broker.publish(literal, timestamp=2.0)
    assert len(deliveries) == 1
    # without the declaration the reference stays verbatim and joins nothing
    broker.publish(
        "<inproceedings><author>Willi H&uuml;tter</author></inproceedings>", 3.0
    )
    assert broker.publish("<article><author>Willi Hütter</author></article>", 4.0) == []


# --------------------------------------------------------------------- #
# character references (XML 1.0 section 4.1)
# --------------------------------------------------------------------- #


def test_character_references_decode_in_text_attributes_and_projected_leaves():
    # one pass, as for named entities: &#38;amp; is "&amp;", never "&"
    text = '<r k="&#x41;&#66;&#x1F600;"><a>Ren&#233;<cite>&#38;amp;</cite></a></r>'
    document = parse_document(text)
    assert document.root.attributes == {"k": "AB\U0001F600"}
    assert document.string_value(1) == "René&amp;"
    assert _parse_node_reference(text).children[0].text == "René"
    evaluator = XPathEvaluator()
    evaluator.register_variable("v", "S", parse_path("//a"))
    assert evaluator.evaluate_text(text, "d", 1.0).node_values == {1: "René&amp;"}


@pytest.mark.parametrize("ref", ["&#0;", "&#x1F;", "&#xD800;", "&#xFFFE;", "&#1114112;"])
def test_a_reference_to_a_non_xml_character_is_rejected(ref):
    # in text, in an attribute, and in a leaf run nothing reads
    for text in (f"<a>x{ref}</a>", f'<a k="{ref}"/>', f"<a><b>x{ref}</b></a>"):
        for parse in (parse_document, _parse_node_reference, stream.validate_text):
            with pytest.raises(XmlParseError, match="not an XML character"):
                parse(text)


_BOOK_BLOG = "S//book->x1[.//author->x2] FOLLOWED BY{x2=x5, 10} S//blog->x4[.//author->x5]"


@pytest.mark.parametrize(
    "config",
    [
        RuntimeConfig(engine="mmqjp"),
        RuntimeConfig(engine="sequential"),
        RuntimeConfig(engine="mmqjp-vm"),
        RuntimeConfig(shards=2, executor="processes"),
    ],
    ids=["mmqjp", "sequential", "mmqjp-vm", "processes"],
)
@pytest.mark.parametrize(
    "book, blog", [("Ren&#233;", "René"), ("Ren&#233;", "Ren&#xE9;"), ("A&amp;B", "A&#38;B")]
)
def test_a_character_reference_joins_its_character(config, book, blog):
    with Broker(config) as broker:
        broker.subscribe(_BOOK_BLOG)
        broker.publish(f"<book><author>{book}</author><title>t</title></book>", timestamp=1.0)
        assert len(broker.publish(f"<blog><author>{blog}</author></blog>", timestamp=2.0)) == 1
