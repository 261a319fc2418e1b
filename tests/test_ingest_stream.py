"""Property tests for the one Stage-1 path: text is scanned, never built into a tree.

Three equivalences pin the text path to the tree-building baseline:

* the streaming scanner produces the exact same indexed node tree as the
  recursive-descent reference parser, over hypothesis-generated documents
  with attributes, entities (predefined and DOCTYPE-declared), text between
  siblings, comments, PIs and CDATA sections;
* malformed input fails identically — same :class:`XmlParseError`
  message from either parser and from the validation-only scan;
* a throughput-mode broker fed raw text delivers the exact same match sets
  as the same broker fed the parsed documents (serialized once, then the
  same path), for ``publish`` and ``publish_many`` alike.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import RuntimeConfig
from repro.pubsub.broker import Broker
from repro.xmlmodel import XmlDocument, to_xml
from repro.xmlmodel.parser import XmlParseError, _parse_node_reference, parse_document
from repro.xmlmodel.stream import parse_node_streaming, validate_text

from tests.conftest import (
    PAPER_Q1,
    PAPER_Q2,
    make_blog_article,
    make_book_announcement,
)

# --------------------------------------------------------------------- #
# document generator
# --------------------------------------------------------------------- #

_tag = st.sampled_from(["a", "b", "item", "x-y", "ns_1"])
_attr_key = st.sampled_from(["id", "lang", "data-k"])
# Text fragments mix plain runs with every escapable character and the
# historically buggy nested-escape sequence (&amp;quot; must stay "&quot;").
_text = st.sampled_from(
    ["plain", "a & b", "<", ">", '"q"', "'a'", "&quot;", "  pad  ", "1 < 2 > 0"]
)
# Miscellaneous constructs legal inside element content (processing
# instructions are prolog-only for both parsers).
_misc = st.sampled_from(["", "<!-- a comment -->", "<![CDATA[raw <&> text]]>"])
_prolog = st.sampled_from(
    [
        "",
        '<?xml version="1.0"?>',
        "<!-- lead -->",
        "<?pi data?>",
        "<!DOCTYPE a>",
        '<!DOCTYPE a [ <!ENTITY e "\u00e9"> ]>',
    ]
)
#: Raw content after a child element: text between siblings, whitespace and
#: an entity reference that is declared only under the DOCTYPE prolog.
_tail = st.sampled_from(["", " ", "\n  ", "tail", "&e;"])


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@st.composite
def xml_text(draw, depth: int = 0) -> str:
    tag = draw(_tag)
    attrs = draw(st.dictionaries(_attr_key, _text, max_size=2))
    rendered_attrs = "".join(
        f' {k}="{_escape(v).replace(chr(34), "&quot;")}"' for k, v in attrs.items()
    )
    if draw(st.booleans()) and depth > 0:
        return f"<{tag}{rendered_attrs}/>"
    children = (
        []
        if depth >= 2
        else draw(st.lists(xml_text(depth=depth + 1), max_size=3))
    )
    body = draw(_misc) + _escape(draw(_text))
    for child in children:
        body += child + draw(_tail)
    body += draw(_misc)
    element = f"<{tag}{rendered_attrs}>{body}</{tag}>"
    if depth == 0:
        element = draw(_prolog) + element + draw(st.sampled_from(["", "<!-- tail -->"]))
    return element


def _assert_same_tree(left, right) -> None:
    assert left.tag == right.tag
    assert left.text == right.text
    assert left.attributes == right.attributes
    assert (left.node_id, left.post_id, left.depth) == (
        right.node_id,
        right.post_id,
        right.depth,
    )
    assert len(left.children) == len(right.children)
    for a, b in zip(left.children, right.children):
        _assert_same_tree(a, b)


# --------------------------------------------------------------------- #
# parse equivalence
# --------------------------------------------------------------------- #


@settings(max_examples=200, deadline=None)
@given(text=xml_text())
def test_streaming_parse_matches_reference(text):
    # Wrapping the reference root in an XmlDocument assigns pre/post ids,
    # so the comparison also pins the scanner's inline id assignment.
    _assert_same_tree(
        parse_node_streaming(text), XmlDocument(_parse_node_reference(text)).root
    )


@settings(max_examples=200, deadline=None)
@given(text=xml_text(), cut=st.data())
def test_malformed_input_error_parity(text, cut):
    # Corrupt a valid document by truncation or single-character deletion;
    # both parsers must agree on accept/reject and on the exact message.
    i = cut.draw(st.integers(min_value=0, max_value=len(text) - 1))
    mutated = cut.draw(st.sampled_from([text[:i], text[:i] + text[i + 1 :]]))

    def outcome(parse):
        try:
            parse(mutated)
            return ("accepted", None)
        except XmlParseError as exc:
            return ("rejected", str(exc))

    assert outcome(parse_node_streaming) == outcome(_parse_node_reference)
    assert outcome(validate_text) == outcome(_parse_node_reference)


@pytest.mark.parametrize(
    "bad",
    ["", "<a><b></a>", "<a>", "<a></b>", "<a></a><b></b>", "<a attr=1></a>", "plain"],
)
def test_malformed_classics_rejected_identically(bad):
    with pytest.raises(XmlParseError) as stream_err:
        parse_node_streaming(bad)
    with pytest.raises(XmlParseError) as ref_err:
        _parse_node_reference(bad)
    assert str(stream_err.value) == str(ref_err.value)


# --------------------------------------------------------------------- #
# broker match equivalence
# --------------------------------------------------------------------- #

_AUTHORS = ["Danny Ayers", "Andrew Watt", "Grace Hopper"]
_TITLES = ["Beginning RSS and Atom Programming", "Streams & Joins"]


#: What a broker is fed: the raw text, or the document parsed beforehand.
INPUTS = ("text", "tree")


def _throughput_config() -> RuntimeConfig:
    return RuntimeConfig(
        store_documents=False, construct_outputs=False, storage="memory", executor="serial"
    )


def _as_input(text: str, kind: str):
    return text if kind == "text" else parse_document(text)


def _match_keys(deliveries):
    keys = []
    for result in deliveries:
        match = result.match
        keys.append(
            (
                result.subscription_id,
                match.lhs_timestamp,
                match.rhs_timestamp,
                tuple(sorted(match.lhs_bindings.items())),
                tuple(sorted(match.rhs_bindings.items())),
            )
        )
    return sorted(keys)


def _workload(specs):
    docs = []
    for i, (is_book, author, title) in enumerate(specs):
        if is_book:
            doc = make_book_announcement(docid=f"d{i}", timestamp=float(i + 1))
        else:
            doc = make_blog_article(
                docid=f"d{i}",
                timestamp=float(i + 1),
                author=_AUTHORS[author],
                title=_TITLES[title],
            )
        docs.append((to_xml(doc, pretty=False), doc.timestamp))
    return docs


doc_specs = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=len(_AUTHORS) - 1),
        st.integers(min_value=0, max_value=len(_TITLES) - 1),
    ),
    min_size=2,
    max_size=8,
)


@settings(max_examples=25, deadline=None)
@given(specs=doc_specs)
def test_stream_broker_matches_tree_broker(specs):
    workload = _workload(specs)
    keys = {}
    for kind in INPUTS:
        broker = Broker(_throughput_config())
        broker.subscribe(PAPER_Q1.replace("T1", "100"))
        broker.subscribe(PAPER_Q2.replace("T2", "100"))
        deliveries = []
        for text, timestamp in workload:
            deliveries.extend(broker.publish(_as_input(text, kind), timestamp=timestamp))
        keys[kind] = _match_keys(deliveries)
    assert keys["text"] == keys["tree"]


@settings(max_examples=15, deadline=None)
@given(specs=doc_specs)
def test_stream_broker_publish_many_matches_tree(specs):
    workload = [text for text, _ in _workload(specs)]
    keys = {}
    for kind in INPUTS:
        broker = Broker(_throughput_config())
        broker.subscribe(PAPER_Q1.replace("T1", "100"))
        keys[kind] = _match_keys(broker.publish_many([_as_input(t, kind) for t in workload]))
    assert keys["text"] == keys["tree"]


def test_join_fires_on_stream_fast_path():
    broker = Broker(_throughput_config())
    sub = broker.subscribe(PAPER_Q1.replace("T1", "100"))
    book = to_xml(make_book_announcement(), pretty=False)
    blog = to_xml(make_blog_article(), pretty=False)
    assert broker.publish(book, timestamp=1.0) == []
    deliveries = broker.publish(blog, timestamp=2.0)
    assert len(deliveries) == 1
    assert deliveries[0].subscription_id == sub.subscription_id


# --------------------------------------------------------------------- #
# no tree on the way in
# --------------------------------------------------------------------- #


def test_fast_path_skips_tree_construction(monkeypatch):
    # No module that can build a tree may run on a publish that neither
    # keeps nor delivers one: poisoning every parse_document a publish can
    # reach proves no intermediate tree is ever built.
    def boom(*args, **kwargs):
        raise AssertionError("tree parser called on a text publish")

    for module in ("core.engine", "pubsub.broker", "pubsub.filters", "pubsub.stream"):
        monkeypatch.setattr(f"repro.{module}.parse_document", boom)
    broker = Broker(_throughput_config())
    broker.subscribe(PAPER_Q1.replace("T1", "100"))
    broker.subscribe("S//nothing->n")  # a filter that never matches
    broker.publish(to_xml(make_book_announcement(), pretty=False), timestamp=1.0)
    deliveries = broker.publish(
        to_xml(make_blog_article(), pretty=False), timestamp=2.0
    )
    assert len(deliveries) == 1


def test_default_broker_keeps_tree_path():
    # The default config stores documents: outputs need the stored trees,
    # so each publish keeps one.
    broker = Broker()
    broker.subscribe(PAPER_Q1.replace("T1", "100"))
    broker.publish(to_xml(make_book_announcement(), pretty=False), timestamp=1.0)
    deliveries = broker.publish(
        to_xml(make_blog_article(), pretty=False), timestamp=2.0
    )
    assert len(deliveries) == 1
    assert deliveries[0].output is not None
    if broker.engine is not None:  # a process shard keeps its trees in its worker
        assert len(broker.engine.documents) == 2


@pytest.mark.parametrize(
    "changes",
    [
        {"store_documents": True},
        {"stream_history": 4},
    ],
)
def test_fast_path_eligibility_fallbacks(changes):
    # A text publish still joins when the document is kept (by the engine or
    # by the stream's history), and what is kept is the parsed tree.
    config = _throughput_config().replace(**changes)
    broker = Broker(config)
    broker.subscribe(PAPER_Q1.replace("T1", "100"))
    broker.publish(to_xml(make_book_announcement(), pretty=False), timestamp=1.0)
    assert len(broker.publish(to_xml(make_blog_article(), pretty=False), 2.0)) == 1
    if changes.get("store_documents"):
        kept = list(broker.engine.documents.values())
    else:
        kept = broker.streams.get_or_create("S").history()
    assert [d.root.tag for d in kept] == ["book", "blog"]
    assert [d.timestamp for d in kept] == [1.0, 2.0]


def test_filter_subscription_disables_fast_path():
    # Filter delivery hands over the parsed document of a text publish.
    broker = Broker(_throughput_config())
    broker.subscribe("S//book->b")
    deliveries = broker.publish(to_xml(make_book_announcement(), pretty=False))
    assert len(deliveries) == 1
    assert deliveries[0].document is not None
    assert deliveries[0].document.root.tag == "book"


def test_timestamp_semantics_match_tree_path():
    # Explicit stamps, the 0.0 auto-stamp asymmetry and default auto
    # timestamps must all agree between text and tree input.
    for stamps in ([0.0, 0.0], [7.5, 9.25], [None, None]):
        keys = {}
        for kind in INPUTS:
            broker = Broker(_throughput_config())
            broker.subscribe(PAPER_Q1.replace("T1", "100"))
            deliveries = []
            docs = [make_book_announcement(), make_blog_article()]
            for doc, ts in zip(docs, stamps):
                text = to_xml(doc, pretty=False)
                deliveries.extend(broker.publish(_as_input(text, kind), timestamp=ts))
            keys[kind] = _match_keys(deliveries)
        assert keys["text"] == keys["tree"], stamps
