"""The match wire of the process runtime: plan rows, layouts shipped once.

A worker sends each row-backed match as the plan head row it was built
from, ``(slot, lhs_docid, rhs_docid, lhs_timestamp, rhs_timestamp, window,
row)``; each ``(qid, MatchLayout)`` pair rides inline the first time one of
its matches crosses, and both ends forget a query's pairs when it
deregisters.  These tests pin the round trip of
:func:`encode_match_batch` / :func:`decode_match_batch`, that a worker never
builds a binding dict, and the processes executor end to end against the
serial one.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import pytest

from repro import RuntimeConfig, open_broker, to_xml
from repro.core import make_engine
from repro.core.results import Match, MatchLayout
from repro.runtime import process
from repro.runtime.process import LayoutTable, decode_match_batch, encode_match_batch
from repro.runtime.wire import encode_document_batch
from repro.xscl import parse_query
from tests.conftest import (
    PAPER_Q1,
    PAPER_Q2,
    PAPER_WINDOWS,
    make_blog_article,
    make_book_announcement,
)

#: A symmetric JOIN: a blog published after a book at most 2 apart matches
#: as the query; a book after a blog matches through its mirror.
PAPER_JOIN = "S//book->x1[.//author->x2] JOIN{x2=x5, 2} S//blog->x4[.//author->x5]"


def _match(i: int, **overrides) -> Match:
    fields = dict(
        qid=f"q{i}",
        lhs_docid=f"d{i}",
        rhs_docid=f"d{i + 1}",
        lhs_timestamp=float(i),
        rhs_timestamp=float(i) + 0.5,
        lhs_bindings={"a": i, "b": i + 1},
        rhs_bindings={"c": i + 2},
        window=10.0,
    )
    fields.update(overrides)
    return Match(**fields)


def _assert_same(a: Match, b: Match) -> None:
    assert a.key() == b.key()
    assert a.lhs_timestamp == b.lhs_timestamp
    assert a.rhs_timestamp == b.rhs_timestamp
    assert a.window == b.window
    assert a.lhs_bindings == b.lhs_bindings
    assert a.rhs_bindings == b.rhs_bindings


def _across_the_pipe(payload: tuple) -> tuple:
    return pickle.loads(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))


#: Positions 2 and 3 hold left nodes ``n0``/``n1``, position 4 right node ``n2``.
LAYOUT = MatchLayout(True, ((2, "n0"), (3, "n1")), ((4, "n2"),), {"n0": "a", "n1": "b", "n2": "c"})


def _row_backed(qid: str = "q", row=("q", "d1", 10, 11, 20), layout=LAYOUT) -> Match:
    return Match.from_row(qid, "d1", "d2", 1.0, 2.0, 5.0, row, layout)


class UnreadableLayout:
    """A layout whose bindings must never be built (module-level: it pickles)."""

    def lhs_bindings(self, row):
        raise AssertionError("lhs bindings built")

    def rhs_bindings(self, row):
        raise AssertionError("rhs bindings built")


# --------------------------------------------------------------------------- #
# the codec
# --------------------------------------------------------------------------- #
def test_batch_round_trip_preserves_structure():
    batches = [
        [_match(0), _row_backed()],
        [],
        [_match(2)],
    ]
    decoded = decode_match_batch(_across_the_pipe(encode_match_batch(batches)))
    assert [len(b) for b in decoded] == [2, 0, 1]
    for got, want in zip(decoded, batches):
        for g, w in zip(got, want):
            _assert_same(g, w)


def test_empty_batch_list_round_trips():
    assert decode_match_batch(encode_match_batch([])) == []
    assert decode_match_batch(encode_match_batch([[], []])) == [[], []]


def test_a_row_backed_match_crosses_as_its_row_without_its_bindings():
    row = ("q", "d1", 10, 11, 20)
    match = _row_backed(row=row, layout=UnreadableLayout())
    new, counts, rows, stamps = encode_match_batch([[match]])
    assert counts == [1]
    assert stamps is None  # no publish stamps -> no per-document column
    ((slot, qid, layout),) = new
    assert qid == "q" and isinstance(layout, UnreadableLayout)
    assert rows == [(slot, "d1", "d2", 1.0, 2.0, 5.0, row)]
    # The parent keeps the match row-backed too: nothing is built until read.
    (got,) = decode_match_batch(_across_the_pipe((new, counts, rows, stamps)))[0]
    assert got.row == row and got == match
    with pytest.raises(AssertionError, match="lhs bindings built"):
        got.lhs_bindings


def test_a_dict_built_match_crosses_with_its_bindings():
    match = _match(0)
    new, _counts, rows, _stamps = encode_match_batch([[match]])
    assert new == []  # no layout to ship
    assert rows == [(None, "d0", "d1", 0.0, 0.5, 10.0, ("q0", {"a": 0, "b": 1}, {"c": 2}))]
    (got,) = decode_match_batch(_across_the_pipe(encode_match_batch([[match]])))[0]
    _assert_same(got, match)
    assert got.layout is None


@pytest.mark.parametrize("backing", ["row", "dicts"])
def test_values_cross_type_exact(backing):
    # 1, 1.0 and True are ==/hash-equal but must round-trip with their
    # original types (docids and bindings are compared type-sensitively
    # downstream); pickle keeps them apart.
    if backing == "row":
        match = _row_backed(row=("q", "d1", 1, True, 1.0))
    else:
        match = _match(0, lhs_bindings={"a": 1, "b": True}, rhs_bindings={"c": 1.0})
    (got,) = decode_match_batch(_across_the_pipe(encode_match_batch([[match]])))[0]
    assert got.lhs_bindings["a"] == 1 and type(got.lhs_bindings["a"]) is int
    assert got.lhs_bindings["b"] is True
    assert got.rhs_bindings["c"] == 1.0 and type(got.rhs_bindings["c"]) is float


def test_unhashable_values_survive():
    m = _match(0, lhs_bindings={"nodes": [1, 2, 3]})
    (got,) = decode_match_batch(encode_match_batch([[m]]))[0]
    assert got.lhs_bindings["nodes"] == [1, 2, 3]


def test_publish_stamps_ride_the_wire():
    # Metrics mode: per-document publish stamps cross the pipe alongside the
    # match rows and reattach to every decoded match of that document.
    batches = [[_match(0), _row_backed()], [], [_match(2)]]
    decoded = decode_match_batch(
        encode_match_batch(batches, publish_stamps=[10.0, 11.0, 12.0])
    )
    assert [m.publish_stamp for m in decoded[0]] == [10.0, 10.0]
    assert [m.publish_stamp for m in decoded[2]] == [12.0]
    # Stamps are excluded from match identity/equality.
    assert decoded[0][0].key() == _match(0).key()


def test_infinite_window_round_trips():
    for m in (_match(0, window=float("inf")), Match.from_row(
        "q", "d1", "d2", 1.0, 2.0, float("inf"), ("q", "d1", 10, 11, 20), LAYOUT
    )):
        (got,) = decode_match_batch(encode_match_batch([[m]]))[0]
        assert got.window == float("inf")


def test_each_layout_crosses_once_until_its_query_is_forgotten():
    worker, parent = LayoutTable(), LayoutTable()
    other = LAYOUT._replace(names=dict(LAYOUT.names))

    def exchange(matches):
        payload = _across_the_pipe(encode_match_batch([matches], shipped=worker))
        return payload[0], decode_match_batch(payload, parent)[0]

    new, first = exchange([_row_backed("q"), _row_backed("q"), _row_backed("p", layout=other)])
    assert [(qid, slot) for slot, qid, _ in new] == [("q", 0), ("p", 1)]
    new, again = exchange([_row_backed("p", layout=other), _row_backed("q")])
    assert new == []  # both already on the parent's side
    assert [m.qid for m in again] == ["p", "q"]
    assert again[1].lhs_bindings == {"a": 10, "b": 11}

    # A deregistration forgets on both ends; a re-registration ships anew.
    worker.forget("q")
    parent.forget("q")
    assert sorted(qid for qid, _ in parent.entries.values()) == ["p"]
    new, _ = exchange([_row_backed("q", layout=LAYOUT._replace(strict=False))])
    assert [(qid, slot) for slot, qid, _ in new] == [("q", 2)]  # slots are never reused


# --------------------------------------------------------------------------- #
# a worker builds no binding dicts
# --------------------------------------------------------------------------- #
def _paper_documents():
    return [
        make_book_announcement("d1", 1.0),
        make_blog_article("d2", 2.0),
        make_book_announcement("d3", 3.0),
        make_blog_article("d4", 3.0),
    ]


def _refuse_bindings(monkeypatch, only_in_pid=None):
    """Make every :class:`MatchLayout` raise when it builds a binding dict.

    With ``only_in_pid`` set, only a process other than that one raises: a
    forked worker, while the parent still reads what it was sent.
    """
    original = {name: getattr(MatchLayout, name) for name in ("lhs_bindings", "rhs_bindings")}

    def refusing(name):
        def build(self, row):
            if only_in_pid is None or os.getpid() != only_in_pid:
                raise AssertionError(f"{name} built in process {os.getpid()}")
            return original[name](self, row)

        return build

    for name in original:
        monkeypatch.setattr(MatchLayout, name, refusing(name))


@pytest.mark.parametrize("engine_name", ["mmqjp", "sequential"])
def test_engine_and_encoder_build_no_binding_dicts(monkeypatch, engine_name):
    # FOLLOWED BY and a symmetric JOIN, whose mirrored matches the engine
    # un-swaps: every match stays row-backed and encodes as its row.
    engine = make_engine(RuntimeConfig(engine=engine_name))
    engine.register_query(PAPER_Q1, qid="Q1", window_symbols=PAPER_WINDOWS)
    engine.register_query(PAPER_JOIN, qid="QJ", window_symbols=PAPER_WINDOWS)
    _refuse_bindings(monkeypatch)
    match_lists = [engine.process_document(d) for d in _paper_documents()]
    matches = [m for batch in match_lists for m in batch]
    assert {m.qid for m in matches} == {"Q1", "QJ"}
    assert all(m.layout is not None for m in matches)
    # An un-swapped JOIN match has the published document on the left.
    assert any(m.qid == "QJ" and m.lhs_docid == "d3" for m in matches)
    new, counts, rows, _ = encode_match_batch(match_lists, shipped=LayoutTable())
    assert sum(counts) == len(rows) == len(matches)
    assert all(wire[0] is not None for wire in rows)
    # QJ ships two layouts: its own, and its mirror's with the blocks
    # exchanged back, so both bind the query's left variables on the left.
    layouts = {}
    for _slot, qid, layout in new:
        layouts.setdefault(qid, []).append(layout)
    assert len(layouts["Q1"]) == 1
    own, mirror = layouts["QJ"]
    for side in ("lhs", "rhs"):
        own_names = {own.names[key] for _, key in getattr(own, side)}
        assert {mirror.names[key] for _, key in getattr(mirror, side)} == own_names


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patch reaches a worker only through fork",
)
@pytest.mark.parametrize("publish", ["publish", "publish_many"])
def test_a_shard_worker_builds_no_binding_dicts(monkeypatch, publish):
    _refuse_bindings(monkeypatch, only_in_pid=os.getpid())
    config = RuntimeConfig(shards=2, executor="processes", construct_outputs=False)
    with open_broker(config) as broker:
        broker.subscribe(PAPER_Q1, subscription_id="Q1", window_symbols=PAPER_WINDOWS)
        broker.subscribe(PAPER_JOIN, subscription_id="QJ", window_symbols=PAPER_WINDOWS)
        if publish == "publish":
            deliveries = [r for d in _paper_documents() for r in broker.publish(d)]
        else:
            deliveries = broker.publish_many(_paper_documents())
    assert {r.subscription_id for r in deliveries} == {"Q1", "QJ"}
    assert all(r.match.lhs_bindings and r.match.rhs_bindings for r in deliveries)


# --------------------------------------------------------------------------- #
# end to end: processes executor against serial
# --------------------------------------------------------------------------- #
def _bindings(deliveries) -> list[tuple]:
    return sorted(
        (
            r.subscription_id,
            r.match.key(),
            r.match.lhs_timestamp,
            r.match.rhs_timestamp,
            r.match.window,
        )
        for r in deliveries
        if r.match is not None
    )


def _run(config: RuntimeConfig, queries: dict, publish: str, documents) -> list:
    with open_broker(config) as broker:
        for sid, text in queries.items():
            broker.subscribe(text, subscription_id=sid, window_symbols=PAPER_WINDOWS)
        if publish == "publish":
            return [r for d in documents for r in broker.publish(d)]
        return broker.publish_many(documents)


@pytest.mark.parametrize("publish", ["publish", "publish_many"])
@pytest.mark.parametrize(
    "queries",
    [{"Q": PAPER_Q1}, {"Q": PAPER_JOIN}, {"Q1": PAPER_Q1, "Q2": PAPER_Q2}],
    ids=["followed-by", "join", "two-queries"],
)
def test_process_and_serial_bindings_agree(queries, publish):
    base = RuntimeConfig(shards=2, construct_outputs=False, metrics=True)
    serial = _run(base.replace(executor="serial"), queries, publish, _paper_documents())
    processes = _run(base.replace(executor="processes"), queries, publish, _paper_documents())
    assert _bindings(processes) == _bindings(serial)
    assert serial  # the workload must actually produce matches
    assert all(r.match.publish_stamp is not None for r in processes)


def test_a_layout_crosses_once_per_query_and_worker(monkeypatch):
    shipped = []
    decode = process.decode_match_batch

    def recording(payload, layouts=None):
        shipped.extend(qid for _slot, qid, _layout in payload[0])
        return decode(payload, layouts)

    monkeypatch.setattr(process, "decode_match_batch", recording)
    config = RuntimeConfig(shards=1, executor="processes", construct_outputs=False)
    with open_broker(config) as broker:
        broker.subscribe(PAPER_Q1, subscription_id="Q1", window_symbols=PAPER_WINDOWS)
        broker.subscribe(PAPER_JOIN, subscription_id="QJ", window_symbols=PAPER_WINDOWS)
        for round_ in range(3):
            documents = [
                make_book_announcement(f"b{round_}", 10.0 * round_ + 1),
                make_blog_article(f"g{round_}", 10.0 * round_ + 2),
                make_book_announcement(f"c{round_}", 10.0 * round_ + 3),
            ]
            deliveries = broker.publish_many(documents)
            assert {r.subscription_id for r in deliveries} == {"Q1", "QJ"}
    # Q1 has one layout; QJ its own and its mirror's.
    assert sorted(shipped) == ["Q1", "QJ", "QJ"]


def test_a_reused_query_id_delivers_the_new_querys_bindings():
    # A broker never reuses a subscription id, but a shard can be handed
    # one: after a cancel, the same id names a JOIN that binds other
    # variables, and the parent must not read its rows through the
    # cancelled query's layout.
    queries = [
        parse_query(PAPER_Q1, window_symbols=PAPER_WINDOWS),
        parse_query("S//book->y1[.//author->y2] JOIN{y2=y5, 2} S//blog->y4[.//author->y5]"),
    ]
    rounds = [
        _paper_documents()[:2],
        [make_blog_article("d5", 5.0), make_book_announcement("d6", 6.0)],
    ]
    records = [
        [(to_xml(d, pretty=False), d.docid, d.timestamp, d.stream) for d in documents]
        for documents in rounds
    ]
    engine = make_engine(RuntimeConfig(construct_outputs=False))
    config = RuntimeConfig(shards=1, executor="processes", construct_outputs=False)
    got, want = [], []
    with open_broker(config) as broker:
        (handle,) = broker.shards
        for query, batch in zip(queries, records):
            engine.register_query(query, qid="Q")
            handle.register("Q", query)
            want.append([m for record in batch for m in engine.process_document(record)])
            handle.submit("wire_batch", (None, pickle.dumps(encode_document_batch(batch))))
            got.append([m for matches in handle.collect() for m in matches])
            engine.deregister_query("Q")
            handle.deregister("Q")
            assert not handle._layouts.entries  # forgotten with the query

    def seen(matches):  # a key holds the bindings
        return [(m.key(), m.lhs_timestamp, m.rhs_timestamp) for m in matches]

    assert [seen(matches) for matches in got] == [seen(matches) for matches in want]
    (first,), (second,) = got
    assert second.lhs_docid == "d6"  # an un-swapped JOIN match
    assert first.lhs_bindings.keys() != second.lhs_bindings.keys()


def test_a_resumed_process_session_delivers_the_bindings_of_an_uncrashed_one(tmp_path):
    queries = {"Q1": PAPER_Q1, "QJ": PAPER_JOIN}
    documents = [
        make_book_announcement(f"b{i}", 2.0 * i + 1) if i % 2 else make_blog_article(
            f"g{i}", 2.0 * i + 1
        )
        for i in range(8)
    ]
    config = RuntimeConfig(
        shards=2, executor="processes", construct_outputs=False, auto_timestamp=False
    )
    uncrashed = _run(config, queries, "publish", documents)

    durable = config.replace(storage="sqlite", storage_path=str(tmp_path))
    first = open_broker(durable)
    for sid, text in queries.items():
        first.subscribe(text, subscription_id=sid, window_symbols=PAPER_WINDOWS)
    delivered = [r for d in documents[:4] for r in first.publish(d)]
    first.close()
    with open_broker(resume_from=str(tmp_path)) as resumed:
        assert resumed.config.executor == "processes"
        delivered += [r for d in documents[4:] for r in resumed.publish(d)]
    assert _bindings(delivered) == _bindings(uncrashed)
    # Joins fire across the restart: a stored document pairs with a new one.
    before = {d.docid for d in documents[:4]}
    assert any(
        r.match.lhs_docid in before and r.match.rhs_docid not in before for r in delivered
    )
