"""Unit tests for the two-stage engines (registration, streaming, pruning, JOIN)."""

import pytest

from repro import RuntimeConfig
from repro.core import MMQJPEngine, SequentialEngine
from repro.xmlmodel import XmlDocument, element
from tests.conftest import make_blog_article, make_book_announcement, PAPER_Q1, PAPER_WINDOWS


def _blog(docid, ts, author="Ada", title="Streams"):
    return XmlDocument(
        element(
            "blog",
            element("author", text=author),
            element("title", text=title),
        ),
        docid=docid,
        timestamp=ts,
    )


CROSS_POST = (
    "S//blog->b[.//author->a][.//title->t] "
    "FOLLOWED BY{a=a AND t=t, 10} "
    "S//blog->b[.//author->a][.//title->t]"
)


def test_register_query_assigns_ids():
    engine = MMQJPEngine()
    qid = engine.register_query(CROSS_POST)
    assert qid == "q1"
    assert engine.num_queries == 1
    assert engine.registered_queries[qid].is_join_query


def test_register_query_with_explicit_id_and_duplicate_rejection():
    engine = MMQJPEngine()
    engine.register_query(CROSS_POST, qid="mine")
    with pytest.raises(ValueError):
        engine.register_query(CROSS_POST, qid="mine")


def test_single_block_query_rejected_by_join_engine():
    engine = MMQJPEngine()
    with pytest.raises(ValueError):
        engine.register_query("blog//entry->e")


def test_register_queries_bulk():
    engine = MMQJPEngine()
    ids = engine.register_queries([CROSS_POST, PAPER_Q1.replace("T1", "5")])
    assert len(ids) == 2
    assert engine.num_queries == 2


def test_process_stream_and_stats():
    engine = MMQJPEngine()
    engine.register_query(CROSS_POST)
    matches = engine.process_stream([_blog("a", 1), _blog("b", 2), _blog("c", 3)])
    # every later posting matches every earlier one within the window
    assert len(matches) == 3
    stats = engine.stats()
    assert stats.num_documents_processed == 3
    assert stats.num_matches == 3
    assert stats.num_templates == 1
    assert stats.state_documents == 3


def test_auto_timestamps_are_monotone():
    engine = MMQJPEngine()
    engine.register_query(CROSS_POST)
    first = XmlDocument(element("blog", element("author", text="A"), element("title", text="T")))
    second = XmlDocument(element("blog", element("author", text="A"), element("title", text="T")))
    engine.process_document(first)
    matches = engine.process_document(second)
    assert len(matches) == 1
    assert matches[0].rhs_timestamp > matches[0].lhs_timestamp


def test_explicit_timestamp_overrides():
    engine = MMQJPEngine()
    engine.register_query(CROSS_POST)
    engine.process_document(_blog("a", 0), timestamp=100.0)
    matches = engine.process_document(_blog("b", 0), timestamp=105.0)
    assert matches and matches[0].lhs_timestamp == 100.0


def test_text_documents_accepted():
    engine = MMQJPEngine()
    engine.register_query(CROSS_POST)
    engine.process_document("<blog><author>A</author><title>T</title></blog>")
    matches = engine.process_document("<blog><author>A</author><title>T</title></blog>")
    assert len(matches) == 1


def test_finite_windows_prune_state():
    engine = MMQJPEngine()
    engine.register_query(CROSS_POST)  # window 10
    engine.process_document(_blog("a", 1.0))
    engine.process_document(_blog("b", 50.0))
    # The first document is far outside every window and has been pruned.
    assert engine.processor.state.num_documents == 1
    assert "a" not in engine.documents


def test_infinite_window_disables_pruning():
    engine = MMQJPEngine()
    engine.register_query(
        "S//blog->b[.//author->a] FOLLOWED BY{a=a, INF} S//blog->b[.//author->a]"
    )
    engine.process_document(_blog("a", 1.0))
    engine.process_document(_blog("b", 1000.0))
    assert engine.processor.state.num_documents == 2


def test_join_operator_matches_in_both_directions():
    """The symmetric JOIN fires regardless of which block's event arrives first."""
    query = (
        "S//book->k[.//title->t] JOIN{t=bt, 10} S//blog->g[.//title->bt]"
    )
    for first, second in (
        (make_book_announcement(), make_blog_article()),
        (make_blog_article(docid="blog1", timestamp=1.0), make_book_announcement(docid="book1", timestamp=2.0)),
    ):
        engine = MMQJPEngine()
        engine.register_query(query, qid="J")
        assert engine.process_document(first) == []
        matches = engine.process_document(second)
        assert len(matches) == 1
        assert matches[0].qid == "J"


def test_followed_by_does_not_match_backwards():
    query = "S//book->k[.//title->t] FOLLOWED BY{t=bt, 10} S//blog->g[.//title->bt]"
    engine = MMQJPEngine()
    engine.register_query(query, qid="F")
    engine.process_document(make_blog_article(timestamp=1.0))
    assert engine.process_document(make_book_announcement(timestamp=2.0)) == []


def test_output_document_requires_stored_documents():
    engine = MMQJPEngine(RuntimeConfig(store_documents=False))
    engine.register_query(CROSS_POST)
    engine.process_document(_blog("a", 1))
    matches = engine.process_document(_blog("b", 2))
    with pytest.raises(KeyError):
        engine.output_document(matches[0])


def test_sequential_engine_same_interface():
    engine = SequentialEngine()
    engine.register_query(CROSS_POST)
    engine.process_document(_blog("a", 1))
    matches = engine.process_document(_blog("b", 2))
    assert len(matches) == 1
    stats = engine.stats()
    assert stats.num_templates is None
    assert stats.num_matches == 1


def test_costs_accumulate():
    engine = MMQJPEngine()
    engine.register_query(CROSS_POST)
    engine.process_document(_blog("a", 1))
    engine.process_document(_blog("b", 2))
    assert engine.costs.get("conjunctive_query") > 0.0


@pytest.mark.parametrize("engine_name", ["mmqjp", "mmqjp-vm", "sequential"])
def test_every_input_takes_one_document_path(monkeypatch, engine_name):
    """Text, tree, batch and store-attached runs: same matches, counters and clock."""
    import repro.core.engine as engine_module
    from repro.core.engine import make_engine
    from repro.storage import MemoryStore
    from repro.xmlmodel.parser import parse_document

    def text(author, title):
        return f"<blog><author>{author}</author><title>{title}</title></blog>"

    texts = [text("Ada", "Streams"), text("Ada", "Streams"), text("Bob", "Joins"),
             text("Ada", "Streams")]
    parsed = []

    def counted_parse(*args, **kwargs):
        parsed.append(args[0])
        return parse_document(*args, **kwargs)

    monkeypatch.setattr(engine_module, "parse_document", counted_parse)

    def run(feed, store=None):
        engine = make_engine(RuntimeConfig(engine=engine_name, store_documents=False), store=store)
        engine.register_query(CROSS_POST)
        observed = [
            sorted(
                (m.qid, m.lhs_timestamp, m.rhs_timestamp,
                 sorted(m.lhs_bindings.items()), sorted(m.rhs_bindings.items()))
                for m in matches
            )
            for matches in feed(engine)
        ]
        return engine, (
            observed, engine.num_documents_processed, engine.num_matches,
            engine._clock_value, engine.processor.state.num_documents,
        )

    _, by_text = run(lambda e: [e.process_text(t) for t in texts])
    _, by_batch = run(lambda e: e.process_batch(texts))
    assert parsed == []  # nothing keeps documents: text never becomes a tree
    _, by_document = run(lambda e: [e.process_document(parse_document(t)) for t in texts])
    store = MemoryStore()
    engine, durable = run(lambda e: [e.process_text(t) for t in texts], store=store)
    assert parsed == []  # without store_documents a store persists no document
    assert by_text == by_batch == by_document == durable
    assert [len(matches) for matches in by_text[0]] == [0, 1, 0, 2]
    assert by_text[1:] == (4, 3, 4, 4)
    assert store.get_meta("engine_counters") == {"documents": 4, "matches": 3, "clock": 4}
    assert len(store.state_docids()) == 4

    class Crash(RuntimeError):
        pass

    def hook(point):
        if point == "commit_epoch":
            raise Crash

    store.fault_hook = hook
    with pytest.raises(Crash):
        engine.process_text(texts[0])
    store.fault_hook = None
    assert len(store.state_docids()) == 4  # the faulted epoch left nothing behind
    engine.process_text(texts[2])  # ... and is not left open
    assert len(store.state_docids()) == 5


@pytest.mark.parametrize("engine_name", ["mmqjp", "sequential"])
def test_a_malformed_batch_folds_nothing(engine_name):
    """Every document of a batch is scanned before any is folded."""
    from repro.core.engine import make_engine
    from repro.storage import MemoryStore
    from repro.xmlmodel.parser import XmlParseError

    good = "<blog><author>Ada</author><title>Streams</title></blog>"
    store = MemoryStore()
    engine = make_engine(RuntimeConfig(engine=engine_name), store=store)
    engine.register_query(CROSS_POST)
    engine.process_text(good)
    with pytest.raises(XmlParseError):
        engine.process_batch([good, "<blog><author>Ada</blog>"])
    assert engine.num_documents_processed == 1
    assert len(engine.documents) == 1
    assert len(store.state_docids()) == 1
    (matches,) = engine.process_batch([good])
    assert [m.lhs_timestamp for m in matches] == [1.0]  # the rejected good one never joins
