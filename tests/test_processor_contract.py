"""The Stage 2 processor contract, checked once for every strategy.

``mmqjp`` (templates), ``mmqjp-vm`` (templates over the Section 5 views)
and ``sequential`` (per-query graphs) share one skeleton; whatever the
engine relies on must hold for all of them, and all of them must produce
the same matches.  ``mmqjp-vm-ranks`` runs the views with no group index
packing raw ids, so every state lookup decodes ranks or whole keys.
"""

from __future__ import annotations

import random

import pytest

from repro import RuntimeConfig
from repro.core import MMQJPJoinProcessor, SequentialJoinProcessor, make_engine
from repro.core.state import JoinState
from repro.relational import columnar
from repro.templates import TemplateRegistry
from repro.workloads.querygen import generate_query
from repro.workloads.synthetic import build_technical_benchmark_data, leaf_variable
from repro.xmlmodel.schema import two_level_schema
from repro.xscl import parse_query
from tests.conftest import (
    PAPER_Q1,
    PAPER_Q2,
    PAPER_Q3,
    PAPER_WINDOWS,
    count_match_constructions,
    make_blog_article,
    make_book_announcement,
)

SCHEMA = two_level_schema(4)

STRATEGIES = {
    "mmqjp": lambda state: MMQJPJoinProcessor(TemplateRegistry(), state=state),
    "mmqjp-vm": lambda state: MMQJPJoinProcessor(
        TemplateRegistry(), state=state, use_view_materialization=True
    ),
    "mmqjp-vm-ranks": lambda state: MMQJPJoinProcessor(
        TemplateRegistry(), state=state, use_view_materialization=True
    ),
    "sequential": lambda state: SequentialJoinProcessor(state=state),
}


@pytest.fixture(params=list(STRATEGIES))
def strategy(request, monkeypatch):
    if request.param == "mmqjp-vm-ranks":
        # no key of two or more ids packs them raw any more
        monkeypatch.setattr(columnar, "_PACK_LIMIT", 4)
    return request.param


@pytest.fixture
def data():
    return build_technical_benchmark_data(SCHEMA)


def matching_query(window: float = float("inf")):
    """leaf0=leaf0 and leaf1=leaf1 — always matches the two benchmark documents."""
    v0, v1 = leaf_variable(SCHEMA, 0), leaf_variable(SCHEMA, 1)
    return parse_query(
        f"S//item->v_item[.//leaf0->{v0}][.//leaf1->{v1}] "
        f"FOLLOWED BY{{{v0}={v0} AND {v1}={v1}, {window if window != float('inf') else 'INF'}}} "
        f"S//item->v_item[.//leaf0->{v0}][.//leaf1->{v1}]"
    )


def _non_matching_query():
    """leaf0 = leaf1 never matches (benchmark leaf values differ per position)."""
    v0, v1 = leaf_variable(SCHEMA, 0), leaf_variable(SCHEMA, 1)
    return parse_query(
        f"S//item->v_item[.//leaf0->{v0}] FOLLOWED BY{{{v0}={v1}, INF}} "
        f"S//item->v_item[.//leaf1->{v1}]"
    )


def _keys(matches) -> set:
    return {m.key() for m in matches}


# --------------------------------------------------------------------------- #
# same matches
# --------------------------------------------------------------------------- #
#: The engine configuration whose ``engine.processor`` is each strategy.
ENGINE_CONFIGS = {
    "mmqjp": RuntimeConfig(engine="mmqjp"),
    "mmqjp-vm": RuntimeConfig(engine="mmqjp-vm"),
    "mmqjp-vm-ranks": RuntimeConfig(engine="mmqjp-vm"),
    "sequential": RuntimeConfig(engine="sequential"),
}


def _paper_example_keys(strategy: str) -> set:
    """Table 2's queries over Figure 1/2's documents (Stage 1 from the engine)."""
    engine = make_engine(ENGINE_CONFIGS[strategy])
    assert type(engine.processor) is type(STRATEGIES[strategy](JoinState()))
    for qid, text in (("Q1", PAPER_Q1), ("Q2", PAPER_Q2), ("Q3", PAPER_Q3)):
        engine.register_query(text, qid=qid, window_symbols=PAPER_WINDOWS)
    return _keys(
        engine.process_stream(
            [
                make_book_announcement("d1", 1.0),
                make_blog_article("d2", 2.0),
                make_blog_article("d3", 3.0),
            ]
        )
    )


def test_paper_example_matches_agree(strategy):
    keys = _paper_example_keys(strategy)
    assert {(key[0], key[1], key[2]) for key in keys} == {
        ("Q1", "d1", "d2"), ("Q2", "d1", "d2"), ("Q1", "d1", "d3"),
        ("Q2", "d1", "d3"), ("Q3", "d2", "d3"),
    }
    assert keys == _paper_example_keys("sequential")


def test_finds_the_matching_query_and_its_bindings(strategy, data):
    processor = STRATEGIES[strategy](data.fresh_state())
    processor.add_query("hit", matching_query())
    processor.add_query("miss", _non_matching_query())
    matches = processor.process(data.witness)
    assert [m.qid for m in matches] == ["hit"]
    match = matches[0]
    assert match.lhs_docid == "d1" and match.rhs_docid == "d2"
    assert match.lhs_bindings[leaf_variable(SCHEMA, 0)] == 1
    assert match.rhs_bindings[leaf_variable(SCHEMA, 0)] == 1


def test_window_filtering(strategy, data):
    processor = STRATEGIES[strategy](data.fresh_state())
    processor.add_query("tight", matching_query(window=0.5))  # delta is 1.0 -> excluded
    processor.add_query("loose", matching_query(window=5.0))
    assert [m.qid for m in processor.process(data.witness)] == ["loose"]


def test_random_queries_agree_with_the_baseline(strategy, data):
    rng = random.Random(42)
    queries = [generate_query(SCHEMA, k, rng) for k in (1, 2, 3) for _ in range(5)]
    processor = STRATEGIES[strategy](data.fresh_state())
    baseline = SequentialJoinProcessor(state=data.fresh_state())
    for i, query in enumerate(queries):
        processor.add_query(f"q{i}", query)
        baseline.add_query(f"q{i}", query)
    assert _keys(processor.process(data.witness)) == _keys(baseline.process(data.witness))


def test_retract_and_reregister_equals_a_fresh_processor(strategy, data):
    processor = STRATEGIES[strategy](data.fresh_state())
    processor.add_query("hit", matching_query())
    processor.add_query("other", matching_query(window=5.0))
    processor.add_query("miss", _non_matching_query())
    before = _keys(processor.process(data.witness))
    assert {key[0] for key in before} == {"hit", "other"}

    processor.remove_query("hit")
    assert {m.qid for m in processor.process(data.witness)} == {"other"}
    processor.remove_query("other")
    processor.remove_query("miss")
    assert processor.process(data.witness) == []

    for qid, query in (
        ("hit", matching_query()),
        ("other", matching_query(window=5.0)),
        ("miss", _non_matching_query()),
    ):
        processor.add_query(qid, query)
    fresh = STRATEGIES[strategy](data.fresh_state())
    fresh.add_query("hit", matching_query())
    fresh.add_query("other", matching_query(window=5.0))
    fresh.add_query("miss", _non_matching_query())
    assert _keys(processor.process(data.witness)) == _keys(fresh.process(data.witness)) == before


# --------------------------------------------------------------------------- #
# registration
# --------------------------------------------------------------------------- #
def test_add_query_returns_the_reduced_graph(strategy, data):
    processor = STRATEGIES[strategy](data.fresh_state())
    shape = processor.add_query("hit", matching_query())
    reduced = shape.reduced
    assert {var for _, var in reduced.nodes} >= {
        leaf_variable(SCHEMA, 0), leaf_variable(SCHEMA, 1)
    }
    assert reduced.value_edges
    # Passing the shape back registers an equal query without re-deriving it.
    assert processor.add_query("again", matching_query(), shape).reduced is reduced
    assert {m.qid for m in processor.process(data.witness)} == {"hit", "again"}


def test_duplicate_add_and_unknown_remove_are_rejected(strategy, data):
    processor = STRATEGIES[strategy](data.fresh_state())
    processor.add_query("q", matching_query())
    with pytest.raises(ValueError):
        processor.add_query("q", matching_query())
    with pytest.raises(KeyError):
        processor.remove_query("nobody")
    processor.remove_query("q")
    with pytest.raises(KeyError):
        processor.remove_query("q")


def test_relevance_index_follows_registration_at_once(strategy, data):
    """Postings change at add/remove, before any document is seen."""
    processor = STRATEGIES[strategy](data.fresh_state())
    assert processor.relevance.num_members == 0
    processor.add_query("hit", matching_query())
    assert processor.relevance.has_member("hit")
    processor.add_query("miss", _non_matching_query())
    assert processor.relevance.num_members == 2
    processor.remove_query("hit")
    assert not processor.relevance.has_member("hit")
    assert processor.relevance.has_member("miss")


def test_prepopulated_registry_is_indexed_at_construction(data):
    registry = TemplateRegistry()
    registry.add_query("hit", matching_query())
    registry.add_query("miss", _non_matching_query())
    processor = MMQJPJoinProcessor(registry, state=data.fresh_state())
    assert processor.relevance.has_member("hit") and processor.relevance.has_member("miss")
    assert processor.num_templates == registry.num_templates == 2
    assert [m.qid for m in processor.process(data.witness)] == ["hit"]


# --------------------------------------------------------------------------- #
# match filter
# --------------------------------------------------------------------------- #
def test_filtered_qid_builds_no_match(strategy, data, monkeypatch):
    processor = STRATEGIES[strategy](data.fresh_state())
    processor.add_query("hit", matching_query())
    processor.add_query("other", matching_query(window=5.0))
    counter = count_match_constructions(monkeypatch)
    processor.set_match_filter(lambda qid: qid != "hit")
    assert [m.qid for m in processor.process(data.witness)] == ["other"]
    assert counter["calls"] == 1
    processor.set_match_filter(None)
    assert {m.qid for m in processor.process(data.witness)} == {"hit", "other"}
    assert counter["calls"] == 3


def test_sequential_runs_no_plan_for_a_filtered_query(data):
    processor = SequentialJoinProcessor(state=data.fresh_state())
    processor.add_query("hit", matching_query())
    processor.set_match_filter(lambda qid: False)
    assert processor.process(data.witness) == []
    stats = processor.plan_cache.stats()
    assert stats["hits"] + stats["misses"] == 0 and stats["plans"] == 0
    processor.set_match_filter(None)
    assert [m.qid for m in processor.process(data.witness)] == ["hit"]
    assert processor.plan_cache.stats()["misses"] == 1


# --------------------------------------------------------------------------- #
# state
# --------------------------------------------------------------------------- #
def test_maintain_state_merges_the_current_document(strategy, data):
    processor = STRATEGIES[strategy](data.fresh_state())
    processor.add_query("hit", matching_query())
    processor.process(data.witness)
    processor.maintain_state(data.witness)
    assert processor.state.num_documents == 2
    assert processor.state.document_ids() == {"d1", "d2"}


def test_prune_state_returns_the_dropped_docids(strategy, data):
    processor = STRATEGIES[strategy](data.fresh_state())
    processor.add_query("hit", matching_query())
    processor.process(data.witness)
    processor.maintain_state(data.witness)
    assert processor.prune_state(min_timestamp=0.5) == set()
    assert processor.prune_state(min_timestamp=1.5) == {"d1"}
    assert processor.state.document_ids() == {"d2"}
    assert processor.prune_state(min_timestamp=1.5) == set()
    assert processor.process(data.witness) == []  # nothing left to join with
    processor.clear_state()
    assert processor.state.num_documents == 0
