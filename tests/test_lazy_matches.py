"""Lazy match materialization: suppressed subscriptions build no Match objects.

The broker installs a match filter on every in-process shard engine so that
rows whose subscription is missing, cancelled or paused are dropped *before*
Algorithm 3 runs on them — no window check, no Match object.  These tests
count actual :class:`~repro.core.results.Match` constructions
(``tests.conftest.count_match_constructions``) to prove the work is skipped,
and check that delivery contents and callback ordering are unchanged for
live subscriptions.
"""

from __future__ import annotations

import pytest

from repro import RuntimeConfig, open_broker
from tests.conftest import (
    PAPER_Q1,
    PAPER_WINDOWS,
    count_match_constructions,
    make_blog_article,
    make_book_announcement,
)


@pytest.fixture(params=["mmqjp", "sequential"])
def engine(request):
    return request.param


def _open(engine: str, **overrides):
    return open_broker(
        RuntimeConfig(engine=engine, construct_outputs=False, **overrides)
    )


def _paper_pair():
    return [make_book_announcement("d1", 1.0), make_blog_article("d2", 2.0)]


def test_live_subscription_materializes_matches(monkeypatch, engine):
    counter = count_match_constructions(monkeypatch)
    broker = _open(engine)
    try:
        broker.subscribe(PAPER_Q1, window_symbols=PAPER_WINDOWS)
        deliveries = broker.publish_many(_paper_pair())
        assert any(d.match is not None for d in deliveries)
        assert counter["calls"] > 0
    finally:
        broker.close()


def test_paused_subscription_builds_no_match_objects(monkeypatch, engine):
    counter = count_match_constructions(monkeypatch)
    broker = _open(engine)
    try:
        sub = broker.subscribe(PAPER_Q1, window_symbols=PAPER_WINDOWS)
        sub.pause()
        deliveries = broker.publish_many(_paper_pair())
        assert all(d.match is None for d in deliveries)
        if broker.stats()["executor"] == "processes":
            # The filter cannot cross the pipe: the worker ships the one
            # match, the parent decodes it and drops it.
            assert counter["calls"] == 1
        else:
            assert counter["calls"] == 0  # suppressed before materialization
    finally:
        broker.close()


def test_cancelled_subscription_builds_no_match_objects(monkeypatch, engine):
    counter = count_match_constructions(monkeypatch)
    broker = _open(engine)
    try:
        sub = broker.subscribe(PAPER_Q1, window_symbols=PAPER_WINDOWS)
        broker.unsubscribe(sub.subscription_id)
        broker.publish_many(_paper_pair())
        assert counter["calls"] == 0
    finally:
        broker.close()


def test_resume_restores_materialization(monkeypatch, engine):
    counter = count_match_constructions(monkeypatch)
    broker = _open(engine)
    try:
        sub = broker.subscribe(PAPER_Q1, window_symbols=PAPER_WINDOWS)
        sub.pause()
        broker.publish(make_book_announcement("d1", 1.0))
        assert counter["calls"] == 0
        sub.resume()
        deliveries = broker.publish(make_blog_article("d2", 2.0))
        assert any(d.match is not None for d in deliveries)
        assert counter["calls"] > 0
    finally:
        broker.close()


def test_suppressed_rows_leave_other_callbacks_unchanged(engine):
    """Pausing one subscription must not perturb another's delivery order."""
    def run(pause_other: bool) -> list[tuple[str, str]]:
        broker = _open(engine)
        try:
            seen: list[tuple[str, str]] = []
            broker.subscribe(
                PAPER_Q1,
                subscription_id="live",
                window_symbols=PAPER_WINDOWS,
                callback=lambda d: seen.append(("live", d.match.key())),
            )
            other = broker.subscribe(
                PAPER_Q1,
                subscription_id="other",
                window_symbols=PAPER_WINDOWS,
                callback=lambda d: seen.append(("other", d.match.key())),
            )
            if pause_other:
                other.pause()
            broker.publish_many(
                _paper_pair()
                + [make_book_announcement("d3", 3.0), make_blog_article("d4", 4.0)]
            )
            return seen
        finally:
            broker.close()

    baseline = run(pause_other=False)
    suppressed = run(pause_other=True)
    assert [entry for entry in baseline if entry[0] == "live"] == suppressed
    assert all(entry[0] == "live" for entry in suppressed)


def test_match_counts_exclude_suppressed_matches(engine):
    """num_matches reflects materialized matches only (documented behavior)."""
    live = _open(engine)
    paused = _open(engine)
    try:
        live.subscribe(PAPER_Q1, window_symbols=PAPER_WINDOWS)
        sub = paused.subscribe(PAPER_Q1, window_symbols=PAPER_WINDOWS)
        sub.pause()
        docs = _paper_pair()
        n_live = sum(
            1 for d in live.publish_many(list(docs)) if d.match is not None
        )
        n_paused = sum(
            1 for d in paused.publish_many(list(docs)) if d.match is not None
        )
        assert n_live > 0 and n_paused == 0
    finally:
        live.close()
        paused.close()


def test_every_in_process_shard_gets_the_filter(monkeypatch):
    """With several in-process shards a paused subscription still costs no
    Match construction (process shards are covered in test_session_contract:
    the callable cannot cross the pipe, so the parent drops post-hoc)."""
    counter = count_match_constructions(monkeypatch)
    broker = _open("mmqjp", shards=2, executor="serial")
    try:
        sub = broker.subscribe(PAPER_Q1, window_symbols=PAPER_WINDOWS)
        sub.pause()
        deliveries = broker.publish_many(_paper_pair())
        assert all(d.match is None for d in deliveries)
        assert counter["calls"] == 0
        assert broker.stats()["engine_stats"]["num_matches"] == 0
    finally:
        broker.close()
