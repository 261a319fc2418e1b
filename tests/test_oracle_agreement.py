"""Every engine and shard count delivers what ``tests/oracle.py`` says.

The oracle evaluates each subscription alone, by nested loops over the
documents; the engine evaluates a template's queries together.  A *script*
is a list of steps — ``("subscribe", sid, query, window symbols)``,
``("publish", make_document)``, ``("cancel", sid)``, ``("prune", t)`` —
that :func:`run_script` plays against an :class:`~tests.oracle.Oracle` or a
broker alike.  The four scripts below register first (the oracle's first
condition) and then mix publishes with cancels and explicit prunes; each
publish's deliveries are compared in every configuration that changes how a
join is evaluated: engine × shards.
"""

from __future__ import annotations

import ast
import functools
import pathlib
import random

import pytest

from repro import RuntimeConfig, open_broker
from repro.config import ENGINES
from repro.workloads.querygen import QueryWorkloadConfig, generate_queries
from repro.workloads.rss import RssStreamConfig, generate_rss_queries, generate_rss_stream
from repro.workloads.synthetic import build_document
from repro.xmlmodel import parse_document, to_xml
from repro.xmlmodel.schema import three_level_schema, two_level_schema
from tests import oracle
from tests.conftest import (
    PAPER_Q1,
    PAPER_Q2,
    PAPER_Q3,
    PAPER_WINDOWS,
    make_blog_article,
    make_book_announcement,
)


def run_script(target, script, prunes: bool = True) -> list[set]:
    """Per publish, the ``(sid, left docid, right docid)`` set ``target`` delivers.

    ``target`` is an :class:`~tests.oracle.Oracle` or a broker.
    """
    out = []
    for kind, *args in script:
        if kind == "subscribe":
            sid, query, window_symbols = args
            target.subscribe(query, subscription_id=sid, window_symbols=window_symbols)
        elif kind == "publish":
            delivered = target.publish(args[0]())
            if not isinstance(delivered, set):
                delivered = {
                    (d.subscription_id, d.match.lhs_docid, d.match.rhs_docid)
                    for d in delivered
                    if d.match is not None
                }
            out.append(delivered)
        elif prunes or kind != "prune":
            getattr(target, kind)(*args)
    return out


def deliveries(config: RuntimeConfig, script) -> list[set]:
    with open_broker(config) as broker:
        return run_script(broker, script)


def generated_script(schema, workload: QueryWorkloadConfig, num_docs: int, pool: int, prune_at=None):
    """``generate_queries`` over ``build_document``s with leaf values from ``pool``.

    With ``prune_at``, halfway through the stream ``q0`` and ``q1`` are
    cancelled and the documents stamped before ``prune_at`` pruned.
    """
    rng = random.Random(workload.seed)
    leaves = [[f"val{rng.randrange(pool)}" for _ in range(schema.num_leaves)] for _ in range(num_docs)]
    publish = [
        ("publish", functools.partial(build_document, schema, f"doc{i}", float(i + 1), values))
        for i, values in enumerate(leaves)
    ]
    half = num_docs // 2
    cut = [] if prune_at is None else [("cancel", "q0"), ("cancel", "q1"), ("prune", prune_at)]
    subscribe = [("subscribe", f"q{i}", q, None) for i, q in enumerate(generate_queries(workload))]
    return subscribe + publish[:half] + cut + publish[half:]


def rss_script(num_queries: int, stream: RssStreamConfig, seed: int = 3, cut_at=None):
    """Two hand-written channel joins plus generated queries over the RSS stream.

    With ``cut_at``, after that many items the JOIN subscription is cancelled
    and the older half of them pruned.
    """
    texts = [
        "S//item->i[.//channel_url->c] FOLLOWED BY{c=c, INF} S//item->i[.//channel_url->c]",
        "S//item->i[.//channel_url->c] JOIN{c=c, 4} S//item->i[.//channel_url->c]",
    ]
    queries = texts + generate_rss_queries(num_queries, seed=seed)
    items = list(generate_rss_stream(stream))  # read, never changed, by every run
    publish = [("publish", lambda item=item: item) for item in items]
    subscribe = [("subscribe", f"q{i}", q, None) for i, q in enumerate(queries)]
    if cut_at is None:
        return subscribe + publish
    cut = [("cancel", "q1"), ("prune", items[cut_at // 2].timestamp)]
    return subscribe + publish[:cut_at] + cut + publish[cut_at:]


def _flat():
    schema = two_level_schema(4)
    workload = QueryWorkloadConfig(schema=schema, num_queries=12, window=3.0, seed=1)
    return generated_script(schema, workload, num_docs=8, pool=3, prune_at=2.5)


def _three_level():
    schema = three_level_schema(branching=3)
    workload = QueryWorkloadConfig(
        schema=schema, num_queries=10, max_value_joins=3, window=5.0, seed=4
    )
    return generated_script(schema, workload, num_docs=7, pool=2, prune_at=2.5)


def _rss():
    return rss_script(10, RssStreamConfig(num_items=12, num_channels=3, seed=2), cut_at=6)


def _paper():
    book = lambda docid, ts: ("publish", lambda: make_book_announcement(docid, ts))  # noqa: E731
    blog = lambda docid, ts, **kw: ("publish", lambda: make_blog_article(docid, ts, **kw))  # noqa: E731
    join = "S//book->x1[.//author->x2] JOIN{x2=x5, 2} S//blog->x4[.//author->x5]"
    queries = (("Q1", PAPER_Q1), ("Q2", PAPER_Q2), ("Q3", PAPER_Q3), ("QJ", join))
    return [("subscribe", qid, text, PAPER_WINDOWS) for qid, text in queries] + [
        book("d1", 1.0),
        blog("d2", 2.0),
        blog("d3", 3.0),
        book("d4", 4.0),  # JOIN with the blogs before it: Δ = 2 (the window) and Δ = 1
        blog("d5", 4.0),  # Δ = 0: JOIN delivers, FOLLOWED BY does not
        ("cancel", "Q2"),
        ("prune", 3.5),
        blog("d6", 12.0),  # Q3 would join d2 and d3 had they not been pruned
        blog("d7", 14.0, author="Andrew Watt"),  # Q1 from d4 at Δ = 10, the window
        book("d8", 15.0),
    ]


WORKLOADS = {"flat": _flat, "three-level": _three_level, "rss": _rss, "paper": _paper}
CONFIGS = [(e, s) for e in ENGINES for s in (1, 2)]


@functools.cache
def _script(name: str) -> tuple:
    return tuple(WORKLOADS[name]())


@functools.cache
def _expected(name: str) -> tuple:
    return tuple(run_script(oracle.Oracle(), _script(name)))


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("engine,shards", CONFIGS, ids=[f"{e}-{s}" for e, s in CONFIGS])
def test_deliveries_agree_with_the_oracle(workload, engine, shards):
    config = RuntimeConfig(engine=engine, shards=shards, construct_outputs=False)
    assert deliveries(config, _script(workload)) == list(_expected(workload))


class _KeyRecorder:
    """A broker whose publishes also record each delivery's ``match.key()``."""

    def __init__(self, broker):
        self.broker = broker
        self.keys: list[list[tuple]] = []  # one list per publish
        self.matches: list[tuple] = []  # one (published docid, matches) per publish

    def __getattr__(self, name):
        return getattr(self.broker, name)

    def publish(self, document):
        delivered = self.broker.publish(document)
        matches = [d.match for d in delivered if d.match is not None]
        self.keys.append([match.key() for match in matches])
        self.matches.append((document.docid, matches))
        return delivered


DISTINCT_CONFIGS = [
    (e, s, x) for e in ENGINES for s in (1, 2) for x in ("serial", "processes")
]


@pytest.mark.parametrize("workload", ["paper", "rss"])
@pytest.mark.parametrize(
    "engine,shards,executor", DISTINCT_CONFIGS, ids=["-".join(map(str, c)) for c in DISTINCT_CONFIGS]
)
def test_a_publish_never_delivers_one_match_twice(workload, engine, shards, executor):
    """Stage 2 keeps no de-duplication set: its rows must already be distinct.

    ``paper`` has a symmetric JOIN over equal timestamps (the engine's one
    de-duplication, undoing the mirrored registration, runs there), ``rss``
    a JOIN among FOLLOWED BY queries of one template.
    """
    config = RuntimeConfig(
        engine=engine, shards=shards, executor=executor, construct_outputs=False
    )
    with open_broker(config) as broker:
        recorder = _KeyRecorder(broker)
        assert run_script(recorder, _script(workload)) == list(_expected(workload))
    assert sum(map(len, recorder.keys)) > 5
    for keys in recorder.keys:
        assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("workload", ["paper", "rss"])
@pytest.mark.parametrize(
    "engine,shards,executor", DISTINCT_CONFIGS, ids=["-".join(map(str, c)) for c in DISTINCT_CONFIGS]
)
def test_an_unswapped_match_never_shares_a_key_with_an_original(workload, engine, shards, executor):
    """Why the engine de-duplicates nothing when it undoes a symmetric JOIN's mirror.

    Stage 2 puts the published document on the right of every match, so a
    match of the query itself has it as ``rhs_docid`` and a match of the
    mirrored registration, un-swapped, as ``lhs_docid``.  Their keys can
    only meet on a match pairing the document with itself, which never
    occurs: the document is not in the join state while it is processed.
    """
    config = RuntimeConfig(
        engine=engine, shards=shards, executor=executor, construct_outputs=False
    )
    with open_broker(config) as broker:
        recorder = _KeyRecorder(broker)
        assert run_script(recorder, _script(workload)) == list(_expected(workload))
    unswapped_seen = 0
    for docid, matches in recorder.matches:
        original = {m.key() for m in matches if m.rhs_docid == docid}
        unswapped = {m.key() for m in matches if m.lhs_docid == docid}
        assert len(original) + len(unswapped) == len(matches)
        assert not original & unswapped
        unswapped_seen += len(unswapped)
    assert unswapped_seen > 0  # the mirror delivered: the check is not vacuous


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_each_script_delivers_and_its_cancels_and_prunes_bite(workload):
    script, expected = _script(workload), _expected(workload)
    assert sum(map(len, expected)) > 5
    first_cut = next(i for i, step in enumerate(script) if step[0] in ("cancel", "prune"))
    cut = sum(step[0] == "publish" for step in script[:first_cut])
    cancelled = {step[1] for step in script if step[0] == "cancel"}
    receivers = lambda sets: {key[0] for keys in sets for key in keys}  # noqa: E731
    assert receivers(expected[:cut]) & cancelled
    assert not receivers(expected[cut:]) & cancelled
    # Without the prune, a later document would have joined a pruned one.
    assert run_script(oracle.Oracle(), script, prunes=False)[cut:] != list(expected[cut:])


def test_the_oracle_imports_nothing_it_checks():
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(ast.unparse(node))
    forbidden = (
        "repro.core repro.templates repro.relational repro.runtime repro.xpath.evaluator "
        "repro.xpath.streaming repro.xpath.nfa repro.xpath.ast.evaluate_relative"
    ).split()
    offenders = sorted(
        name for name in names if any(name == f or name.startswith(f + ".") for f in forbidden)
    )
    assert offenders == []
    assert "repro.xscl.parse_query" in names  # subscription text goes through the real parser


#: Two templates (two join predicates, one), which the partitioner puts on
#: different shards (a new template goes to the least-loaded one); the
#: third document matches both.
SPLIT = [
    ("q1", PAPER_Q1),
    ("by_author", "S//blog->b[.//author->a] FOLLOWED BY{a=a, 10} S//blog->b[.//author->a]"),
]
SPLIT_TEXTS = [
    to_xml(make_book_announcement(), pretty=False),
    to_xml(make_blog_article(), pretty=False),
    to_xml(make_blog_article(), pretty=False),
]


@pytest.mark.parametrize("batched", [False, True], ids=["publish", "publish_many"])
@pytest.mark.parametrize("executor", ["serial", "processes"])
def test_a_text_document_has_one_docid_on_every_shard(executor, batched):
    config = RuntimeConfig(
        shards=2,
        executor=executor,
        stream_history=len(SPLIT_TEXTS),
        construct_outputs=False,
    )
    reference = oracle.Oracle()
    with open_broker(config) as broker:
        for sid, query in SPLIT:
            broker.subscribe(query, subscription_id=sid, window_symbols=PAPER_WINDOWS)
            reference.subscribe(query, sid, PAPER_WINDOWS)
        shard_of = {sid: broker.shard_of(sid) for sid, _ in SPLIT}
        if batched:
            delivered = broker.publish_many(SPLIT_TEXTS)
        else:
            delivered = [d for text in SPLIT_TEXTS for d in broker.publish(text)]
        docids = [d.docid for d in broker.streams.get_or_create("S").history()]
    assert sorted(shard_of.values()) == [0, 1]
    assert len(set(docids)) == len(SPLIT_TEXTS)

    # The broker's docids, read as publish positions, are the oracle's.
    position = {docid: i for i, docid in enumerate(docids)}
    got = {
        (d.subscription_id, position[d.match.lhs_docid], position[d.match.rhs_docid])
        for d in delivered
    }
    want = set()
    for i, text in enumerate(SPLIT_TEXTS):
        document = parse_document(text, docid=str(i), timestamp=float(i + 1))
        want |= {(sid, int(lhs), int(rhs)) for sid, lhs, rhs in reference.publish(document)}
    assert got == want
    # The last document matched on both shards under the one docid.
    assert {shard_of[sid] for sid, _, rhs in got if rhs == 2} == {0, 1}
