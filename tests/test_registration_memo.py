"""Subscribe once per text: the registration memo.

Parsing, canonicalising and reducing a subscription are pure functions of
its text, so the broker (text -> parsed query) and every engine (text ->
canonical form, template shapes, Stage 1 registrations) derive them once per live
distinct text.  The memo must be invisible — the same deliveries, templates
and Stage 1 registrations as a population forced down the miss path (every
text made distinct by trailing spaces) — and bounded: an entry lives exactly
as long as a subscription of its text.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro import RuntimeConfig, open_broker
from repro.core import engine as engine_module
from repro.core.engine import make_engine
from repro.pubsub import broker as broker_module
from repro.runtime import template_key
from repro.templates.join_graph import JoinGraph
from tests.conftest import make_blog_article, make_book_announcement

Q_AUTHOR = "S//book->x1[.//author->x2] FOLLOWED BY{x2=x5, 100} S//blog->x4[.//author->x5]"
Q_CAT = "S//book->x1[.//category->x7] FOLLOWED BY{x7=x8, 100} S//blog->x4[.//category->x8]"
Q_TITLE = "S//book->x1[.//title->x3] FOLLOWED BY{x3=x6, 100} S//blog->x4[.//title->x6]"
Q_JOIN = "S//book->x1[.//author->x2] JOIN{x2=x5, 100} S//blog->x4[.//author->x5]"
Q_FILTER = "S//book->x1[.//publisher->x9]"
TEXTS = (Q_AUTHOR, Q_CAT, Q_JOIN, Q_FILTER)
COPIES = 4

#: Registration stays in this process and, unless a test asks for one, off disk.
CONFIG = RuntimeConfig(executor="serial", storage="memory", construct_outputs=False)


def _documents(start: int, count: int) -> list:
    """Books and blogs in both orders, so JOIN matches come in both orientations."""
    out = []
    for i in range(start, start + count):
        first, second = float(2 * i + 1), float(2 * i + 2)
        if i % 2:
            first, second = second, first
        book = make_book_announcement(docid=f"bk{i}", timestamp=first)
        blog = make_blog_article(docid=f"bl{i}", timestamp=second)
        out += [book, blog] if i % 2 == 0 else [blog, book]
    return out


def _population(distinct: bool) -> list[tuple[str, str]]:
    """(sid, text): COPIES subscriptions per text; ``distinct`` pads each apart."""
    return [
        (f"s{i}_{c}", text + " " * (c + 1) if distinct else text)
        for i, text in enumerate(TEXTS)
        for c in range(COPIES)
    ]


def _keys(deliveries) -> list:
    return sorted(
        (d.subscription_id, d.match.key() if d.match is not None else d.document.docid)
        for d in deliveries
    )


def _publish(broker, documents) -> list:
    out = []
    for document in documents:
        out += broker.publish(copy.deepcopy(document))
    return out


def _registrations(broker) -> tuple:
    """Templates and Stage 1 registrations of the one engine."""
    engine = broker.engine
    return (
        broker.stats()["engine_stats"]["num_templates"],
        sorted(engine.registry.template_sizes().values()),
        dict(engine.evaluator._variables),
        dict(engine.evaluator._edges),
    )


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_thousand_subscribes_over_three_texts_derive_three_times(monkeypatch):
    parses = _count_calls(monkeypatch, broker_module, "parse_query")
    canonicalisations = _count_calls(monkeypatch, engine_module, "canonicalize_query")
    graphs = _count_calls(monkeypatch, JoinGraph, "from_query")
    broker = open_broker(CONFIG)
    texts = (Q_AUTHOR, Q_CAT, Q_TITLE)
    handles = [broker.subscribe(texts[i % 3]) for i in range(1000)]
    assert (len(parses), len(canonicalisations), len(graphs)) == (3, 3, 3)
    assert len(broker.texts) == len(broker.engine.texts) == 3
    assert broker.engine.num_queries == 1000

    for handle in handles:
        handle.cancel()
    assert len(broker.texts) == len(broker.engine.texts) == 0
    assert broker._text_of == {} and broker.engine._text_of == {}


@pytest.mark.parametrize("route_dispatch", [True, False])
def test_the_shard_parent_places_and_routes_from_the_memo(monkeypatch, route_dispatch):
    """Placement key and router form are derived once per text, in the memo entry."""
    graphs = _count_calls(monkeypatch, JoinGraph, "from_query")
    broker = open_broker(CONFIG.replace(shards=2, route_dispatch=route_dispatch))
    texts = (Q_AUTHOR, Q_CAT, Q_TITLE)
    handles = [broker.subscribe(texts[i % 3]) for i in range(300)]
    # once per text in the parent, once in the engine of the shard it lives on
    assert len(graphs) == 2 * len(texts)
    assert sum(broker.stats()["partition"]["loads"]) == 300
    for text in texts:
        parsed = broker.texts.get(text)
        assert parsed.template_key == template_key(parsed.query)
        assert (parsed.routed is not None) == route_dispatch
    matched = {d.subscription_id for d in _publish(broker, _documents(0, 2))}
    assert len(matched) == 300
    for handle in handles:
        handle.cancel()
    assert len(broker.texts) == 0 and broker.stats()["partition"]["loads"] == [0, 0]


def test_memo_size_follows_the_live_distinct_texts_under_churn():
    broker = open_broker(CONFIG)
    live: list = []  # (handle, text), oldest first
    for i in range(2000):
        text = f"S//book->x1[.//author->x2] FOLLOWED BY{{x2=x5, {i + 1}}} S//blog->x4[.//author->x5]"
        live.append((broker.subscribe(text), text))
        if i % 3 == 0:  # a second subscriber of a live text
            live.append((broker.subscribe(live[len(live) // 2][1]), live[len(live) // 2][1]))
        while len(live) > 40:
            live.pop(0)[0].cancel()
        distinct = len({text for _, text in live})
        assert len(broker.texts) == len(broker.engine.texts) == distinct
    for handle, _ in live:
        handle.cancel()
    assert len(broker.texts) == len(broker.engine.texts) == 0


def test_shared_and_forced_miss_populations_are_indistinguishable():
    documents = _documents(0, 6)
    runs = []
    for distinct in (False, True):
        broker = open_broker(CONFIG)
        for sid, text in _population(distinct):
            broker.subscribe(text, subscription_id=sid)
        assert len(broker.texts) == (len(TEXTS) * COPIES if distinct else len(TEXTS))
        runs.append((_keys(_publish(broker, documents)), _registrations(broker)))
        broker.close()
    shared, missed = runs
    assert shared[0]  # matches were delivered at all
    assert {sid.split("_")[0] for sid, _ in shared[0]} == {"s0", "s1", "s2", "s3"}
    assert shared == missed


def test_shared_and_forced_miss_populations_agree_across_a_restart(tmp_path):
    documents = _documents(0, 6)
    runs = []
    for distinct in (False, True):
        path = tmp_path / ("missed" if distinct else "shared")
        first = open_broker(CONFIG.replace(storage="sqlite", storage_path=str(path)))
        for sid, text in _population(distinct):
            first.subscribe(text, subscription_id=sid)
        out = _publish(first, documents[:6])
        first.close()

        resumed = open_broker(resume_from=str(path), executor="serial")
        # Replay goes through the memo too, keyed on the persisted rendering
        # (which drops the padding): one entry per text either way.
        assert len(resumed.texts) == len(resumed.engine.texts) + 1 == len(TEXTS)
        out += _publish(resumed, documents[6:])
        runs.append((_keys(out), _registrations(resumed)))
        resumed.close()
    assert runs[0] == runs[1]


def test_subscribers_of_one_text_share_a_query_nobody_mutates():
    broker = open_broker(CONFIG)
    first = broker.subscribe(Q_JOIN)
    second = broker.subscribe(Q_JOIN)
    assert first.query is second.query
    engine = broker.engine
    canonical = engine.registered_queries[first.subscription_id]
    assert engine.registered_queries[second.subscription_id] is canonical
    snapshots = copy.deepcopy((first.query, canonical))

    documents = _documents(0, 4)
    before_cancel = _keys(_publish(broker, documents[:4]))
    first.cancel()
    after_cancel = _keys(_publish(broker, documents[4:]))

    assert second.query is first.query and not second.cancelled
    assert engine.registered_queries == {second.subscription_id: canonical}
    assert (first.query, canonical) == snapshots
    assert {sid for sid, _ in after_cancel} == {second.subscription_id}

    alone = open_broker(CONFIG)
    alone.subscribe(Q_JOIN, subscription_id=second.subscription_id)
    reference = _keys(_publish(alone, documents))
    ours = [k for k in before_cancel if k[0] == second.subscription_id] + after_cancel
    assert after_cancel and sorted(ours) == reference


def test_symmetric_join_subscribers_share_the_mirror_and_match_both_ways():
    documents = _documents(0, 4)
    runs = []
    for text_of in (lambda c: Q_JOIN, lambda c: Q_JOIN + " " * (c + 1)):
        broker = open_broker(CONFIG)
        for c in range(2):
            broker.subscribe(text_of(c), subscription_id=f"j{c}")
        runs.append(_keys(_publish(broker, documents)))
        if len(broker.texts) == 1:
            engine = broker.engine
            mirror = engine.texts.get(Q_JOIN).keys[1]
            assert mirror.suffix == "::swap"
            for c in range(2):
                assert engine.registry.query(f"j{c}::swap").query is mirror.query
    shared, missed = runs
    assert shared == missed
    # Both orientations reach each subscriber: books before and after blogs.
    stamp = {d.docid: d.timestamp for d in documents}
    for c in range(2):
        orders = {stamp[key[1]] < stamp[key[2]] for sid, key in shared if sid == f"j{c}"}
        assert orders == {True, False}


@pytest.mark.parametrize("engine_name", ["mmqjp", "sequential"])
def test_an_engine_hits_on_an_equal_query_of_the_same_text(engine_name, monkeypatch):
    """A process worker receives unpickled copies: equal, not identical."""
    canonicalisations = _count_calls(monkeypatch, engine_module, "canonicalize_query")
    engine = make_engine(engine_name, CONFIG)
    query = broker_module.parse_query(Q_AUTHOR)
    engine.register_query(pickle.loads(pickle.dumps(query)), qid="a")
    engine.register_query(pickle.loads(pickle.dumps(query)), qid="b")
    engine.register_query(Q_AUTHOR, qid="c")
    assert len(canonicalisations) == 1 and len(engine.texts) == 1
    assert engine.registered_queries["a"] is engine.registered_queries["c"]
    for qid in "abc":
        engine.deregister_query(qid)
    assert len(engine.texts) == 0


def test_window_symbols_give_a_text_different_queries():
    text = "S//book->x1[.//author->x2] FOLLOWED BY{x2=x5, T} S//blog->x4[.//author->x5]"
    broker = open_broker(CONFIG)
    wide = broker.subscribe(text, window_symbols={"T": 100.0})
    narrow = broker.subscribe(text, window_symbols={"T": 0.5})
    again = broker.subscribe(text, window_symbols={"T": 100.0})
    assert wide.query is again.query and narrow.query.join.window == 0.5
    assert len(broker.texts) == 2
    # The engine shares the first one's derivation only with equal queries.
    assert len(broker.engine.texts) == 1
    matched = {d.subscription_id for d in _publish(broker, _documents(0, 2))}
    assert matched == {wide.subscription_id, again.subscription_id}
    for handle in (wide, narrow, again):
        handle.cancel()
    assert len(broker.texts) == len(broker.engine.texts) == 0
