"""The :class:`~repro.core.results.Match` contract, for built and row-backed matches.

Stage 2 delivers row-backed matches (:meth:`Match.from_row`): the binding
dicts are built from the plan's head row on first read.  Whatever a sink can
observe must be what an eagerly built match shows: the bindings, equality
and hashing (over qid, docids, timestamps and window only), immutability,
pickling, the process wire and the output documents.
"""

from __future__ import annotations

import pickle

import pytest

from repro import RuntimeConfig, open_broker
from repro.config import ENGINES
from repro.core import make_engine
from repro.core.results import Match, MatchLayout, build_output_document
from repro.runtime.process import decode_match_batch, encode_match_batch
from repro.xmlmodel import to_xml
from repro.xscl import parse_query
from tests.conftest import (
    PAPER_Q1,
    PAPER_WINDOWS,
    make_blog_article,
    make_book_announcement,
)

#: A symmetric JOIN: a book published after a blog at the same timestamp
#: matches through the mirrored registration, un-swapped by the engine.
PAPER_JOIN = "S//book->x1[.//author->x2] JOIN{x2=x5, 2} S//blog->x4[.//author->x5]"
QUERIES = {"Q1": PAPER_Q1, "QJ": PAPER_JOIN}

FIELDS = (
    "qid", "lhs_docid", "rhs_docid", "lhs_timestamp", "rhs_timestamp",
    "lhs_bindings", "rhs_bindings", "window", "publish_stamp",
)


def _documents():
    return [
        make_book_announcement("d1", 1.0),
        make_blog_article("d2", 2.0),
        make_book_announcement("d3", 2.0),
    ]


def _engine_matches(engine_name: str):
    engine = make_engine(RuntimeConfig(engine=engine_name))
    for qid, text in QUERIES.items():
        engine.register_query(text, qid=qid, window_symbols=PAPER_WINDOWS)
    return engine, engine.process_stream(_documents())


def _tags(query_text: str) -> dict:
    """Variable -> element tag, per block, read off the query's patterns."""
    query = parse_query(query_text, window_symbols=PAPER_WINDOWS)
    out = {}
    for side in ("left", "right"):
        tags = {}
        stack = [getattr(query, side).pattern.root]
        while stack:
            node = stack.pop()
            tags[node.variable] = node.path.steps[-1].test
            stack.extend(node.children)
        out[side] = tags
    return out


def _plain(match: Match) -> Match:
    """The same match, built eagerly from keyword values."""
    return Match(**{name: getattr(match, name) for name in FIELDS})


def _row_backed():
    # Positions 2 and 3 hold left nodes 0 and 1, position 4 right node 2.
    layout = MatchLayout(True, ((2, 0), (3, 1)), ((4, 2),), {0: "a", 1: "b", 2: "c"})
    row = ("q", "d1", 10, 11, 20, 5.0)
    return Match.from_row("q", "d1", "d2", 1.0, 2.0, 5.0, row, layout)


def _eager(**overrides):
    values = dict(
        qid="q", lhs_docid="d1", rhs_docid="d2", lhs_timestamp=1.0, rhs_timestamp=2.0,
        lhs_bindings={"a": 10, "b": 11}, rhs_bindings={"c": 20}, window=5.0,
    )
    values.update(overrides)
    return Match(**values)


# --------------------------------------------------------------------------- #
# bindings
# --------------------------------------------------------------------------- #
def test_a_row_backed_match_builds_what_an_eager_one_holds():
    lazy, eager = _row_backed(), _eager()
    assert lazy.lhs_bindings == eager.lhs_bindings
    assert lazy.rhs_bindings == eager.rhs_bindings
    assert lazy.key() == eager.key()
    assert lazy.lhs_bindings is lazy.lhs_bindings  # built once, then kept


@pytest.mark.parametrize("engine_name", ENGINES)
def test_lazy_bindings_name_the_matched_elements(engine_name):
    """Each binding is the node its variable's pattern step reaches, on its side."""
    engine, matches = _engine_matches(engine_name)
    assert {(m.qid, m.lhs_docid, m.rhs_docid) for m in matches} == {
        ("Q1", "d1", "d2"), ("QJ", "d1", "d2"), ("QJ", "d3", "d2"),
    }
    for match in matches:
        tags = _tags(QUERIES[match.qid])
        for side, docid, bindings in (
            ("left", match.lhs_docid, match.lhs_bindings),
            ("right", match.rhs_docid, match.rhs_bindings),
        ):
            document = engine.documents[docid]
            assert bindings and set(bindings) <= set(tags[side])
            for variable, node_id in bindings.items():
                assert document.node(node_id).tag == tags[side][variable]
        lhs = engine.documents[match.lhs_docid].node(match.lhs_bindings["x2"])
        rhs = engine.documents[match.rhs_docid].node(match.rhs_bindings["x5"])
        assert lhs.string_value() == rhs.string_value()  # the join predicate holds


def test_every_strategy_binds_the_same_nodes():
    def bindings(engine_name):
        return {
            m.key(): (m.lhs_bindings, m.rhs_bindings) for m in _engine_matches(engine_name)[1]
        }

    reference = bindings("sequential")
    for engine_name in ENGINES:
        assert bindings(engine_name) == reference


# --------------------------------------------------------------------------- #
# identity and immutability
# --------------------------------------------------------------------------- #
def test_equality_and_hash_ignore_bindings_and_publish_stamp():
    base = _eager()
    other = _eager(lhs_bindings={"a": 99}, rhs_bindings={}, publish_stamp=123.0)
    assert base == other and hash(base) == hash(other)
    assert base == _row_backed() and hash(base) == hash(_row_backed())
    assert base.key() != other.key()  # the key adds the bindings
    for field, value in (
        ("qid", "r"), ("lhs_docid", "x"), ("rhs_docid", "x"),
        ("lhs_timestamp", 0.5), ("rhs_timestamp", 3.0), ("window", 6.0),
    ):
        assert _eager(**{field: value}) != base
    assert base != base.key() and base != "q"


def test_keyword_and_positional_construction_agree():
    positional = Match("q", "d1", "d2", 1.0, 2.0, {"a": 10, "b": 11}, {"c": 20}, 5.0, 7.0)
    assert positional == _eager() and positional.key() == _eager().key()
    assert positional.publish_stamp == 7.0
    bare = Match(qid="q", lhs_docid="d1", rhs_docid="d2", lhs_timestamp=1.0, rhs_timestamp=2.0)
    assert bare.lhs_bindings == {} and bare.rhs_bindings == {}
    assert bare.window == float("inf") and bare.publish_stamp is None
    assert repr(bare) == "<Match q: d1@1.0 -> d2@2.0>"


@pytest.mark.parametrize("make", [_eager, _row_backed], ids=["eager", "row-backed"])
def test_assigning_an_attribute_raises(make):
    match = make()
    for field in FIELDS + ("extra",):
        with pytest.raises(AttributeError):
            setattr(match, field, None)
    with pytest.raises(AttributeError):
        del match.qid
    assert match == _eager()


# --------------------------------------------------------------------------- #
# pickling, the process wire and output documents
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("make", [_eager, _row_backed], ids=["eager", "row-backed"])
def test_pickle_round_trip(make):
    match = make()
    copy = pickle.loads(pickle.dumps(match))
    assert type(copy) is Match
    assert copy == match and copy.key() == match.key()
    assert [getattr(copy, f) for f in FIELDS] == [getattr(match, f) for f in FIELDS]


def test_wire_round_trip_of_engine_matches():
    _engine, matches = _engine_matches("mmqjp")
    batches = [matches[:1], [], matches[1:]]
    decoded = decode_match_batch(encode_match_batch(batches, publish_stamps=[1.0, 2.0, 3.0]))
    assert [len(batch) for batch in decoded] == [1, 0, len(matches) - 1]
    for got_batch, want_batch, stamp in zip(decoded, batches, (1.0, 2.0, 3.0)):
        for got, want in zip(got_batch, want_batch):
            assert got == want and got.key() == want.key()
            assert got.lhs_bindings == want.lhs_bindings
            assert got.rhs_bindings == want.rhs_bindings
            assert got.publish_stamp == stamp
            assert pickle.loads(pickle.dumps(got)).key() == want.key()


@pytest.mark.parametrize("shards", [1, 2])
def test_output_documents_are_those_of_eager_matches(shards):
    config = RuntimeConfig(shards=shards, construct_outputs=True)
    with open_broker(config) as broker:
        for qid, text in QUERIES.items():
            broker.subscribe(text, subscription_id=qid, window_symbols=PAPER_WINDOWS)
        delivered = broker.publish_many(_documents())
        assert len(delivered) == 3
        for result in delivered:
            expected = broker.output_document(_plain(result.match))
            assert to_xml(result.output) == to_xml(expected)
            assert [child.tag for child in result.output.root.children] == ["book", "blog"]


def test_build_output_document_reads_lazy_bindings():
    lhs, rhs = make_book_announcement("d1", 1.0), make_blog_article("d2", 2.0)
    layout = MatchLayout(True, ((0, "book"),), ((1, "blog"),), {"book": "x1", "blog": "x4"})
    row = (lhs.root.node_id, rhs.root.node_id)
    lazy = Match.from_row("q", "d1", "d2", 1.0, 2.0, 5.0, row, layout)
    built = build_output_document(lazy, lhs, rhs, "x1", "x4")
    assert to_xml(built) == to_xml(build_output_document(_plain(lazy), lhs, rhs, "x1", "x4"))
    assert [child.tag for child in built.root.children] == ["book", "blog"]
