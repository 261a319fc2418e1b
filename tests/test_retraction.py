"""True subscription retraction: cancelled queries leave no trace behind.

The acceptance criteria of the session-API redesign:

* after cancelling all join subscriptions, every engine reports
  ``num_queries == 0``, the template registry / relevance index / plan
  cache hold no postings for the cancelled qids, and join-state row counts
  return to baseline (empty) — across all three engines × 1/2/4 shards ×
  the default and ablation presets;
* a cancel → resubscribe run is match-equivalent to a fresh broker;
* ``unsubscribe`` delegates to the retraction path, with ``mute()`` keeping
  the old deactivate-only behavior.
"""

from __future__ import annotations

import pytest

from repro import RuntimeConfig, open_broker
from repro.pubsub import Broker
from tests.conftest import (
    PAPER_WINDOWS,
    make_blog_article,
    make_book_announcement,
)

#: Shares the book/blog root and author variables with Q_CAT below.
Q_AUTHOR = (
    "S//book->x1[.//author->x2] "
    "FOLLOWED BY{x2=x5, 100} "
    "S//blog->x4[.//author->x5]"
)
#: Binds the category variables no other query uses.
Q_CAT = (
    "S//book->x1[.//category->x7] "
    "FOLLOWED BY{x7=x8, 100} "
    "S//blog->x4[.//category->x8]"
)

CONFIG_MATRIX = [
    RuntimeConfig(construct_outputs=False, auto_timestamp=False),
    RuntimeConfig.ablation(construct_outputs=False, auto_timestamp=False, shards=1),
]


def _engines(broker):
    """In-process engines reachable for deep state inspection.

    Under the ``"processes"`` runtime (e.g. ``--replay executor=processes``)
    shard engines live in worker processes and cannot be introspected from
    here; those shards are skipped, and state assertions over the returned
    list become vacuous — the equivalence suites cover that runtime instead.
    """
    return [shard.engine for shard in broker.shards if hasattr(shard, "engine")]


def _total_queries(broker):
    """Registered join-query count, summed over shards (both shard flavors)."""
    return sum(shard.num_queries for shard in broker.shards)


def _publish_pair(broker, base_ts, suffix=""):
    """One matching book → blog pair (same author/category values)."""
    out = []
    out.extend(broker.publish(make_book_announcement(docid=f"bk{base_ts}{suffix}", timestamp=base_ts)))
    out.extend(
        broker.publish(make_blog_article(docid=f"bl{base_ts}{suffix}", timestamp=base_ts + 1.0))
    )
    return out


def _match_keys(deliveries):
    return sorted(d.match.key() for d in deliveries if d.match is not None)


@pytest.mark.parametrize("engine", ["mmqjp", "mmqjp-vm", "sequential"])
@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("base", CONFIG_MATRIX, ids=["default", "ablation"])
def test_cancel_reclaims_all_state(engine, shards, base):
    config = base.replace(engine=engine, shards=shards)
    with open_broker(config) as broker:
        s1 = broker.subscribe(Q_AUTHOR, subscription_id="qa")
        s2 = broker.subscribe(Q_CAT, subscription_id="qc")
        deliveries = _publish_pair(broker, 1.0)
        assert deliveries, "the workload must actually match before cancelling"

        assert s1.cancel() and s2.cancel()
        assert s1.cancelled and s2.cancelled
        assert not s1.cancel(), "cancel is idempotent"

        for eng in _engines(broker):
            processor = eng._processor()
            state = processor.state
            assert eng.num_queries == 0
            assert state.num_documents == 0
            assert len(state.rbin) == 0 and len(state.rvar) == 0 and len(state.rdoc) == 0
            assert eng.documents == {}
            # no relevance postings for the cancelled qids
            assert processor.relevance.num_members == 0
            assert not processor.relevance.has_member("qa")
            assert not processor.relevance.has_member("qc")
            # no compiled plans for the cancelled queries
            assert len(eng.plan_cache) == 0
            # the MMQJP registry reports no live templates or queries
            registry = getattr(eng, "registry", None)
            if registry is not None:
                assert registry.num_queries == 0
                assert registry.num_templates == 0
                assert "qa" not in registry and "qc" not in registry
                for entry in registry._entries:
                    assert not entry.rt.rows

        # cancelled ids stay reserved (no silent reuse)
        with pytest.raises(ValueError):
            broker.subscribe(Q_AUTHOR, subscription_id="qa")


@pytest.mark.parametrize("engine", ["mmqjp", "mmqjp-vm", "sequential"])
@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("base", CONFIG_MATRIX, ids=["default", "ablation"])
def test_cancel_then_resubscribe_matches_fresh_broker(engine, shards, base):
    config = base.replace(engine=engine, shards=shards)

    with open_broker(config) as broker:
        broker.subscribe(Q_AUTHOR, subscription_id="old")
        _publish_pair(broker, 1.0, suffix="a")
        broker.cancel("old")
        fresh_sub = broker.subscribe(Q_AUTHOR, subscription_id="new")
        later = _publish_pair(broker, 50.0, suffix="b")
        churned_keys = _match_keys(later)
        assert fresh_sub.num_results == len(churned_keys)

    with open_broker(config) as fresh:
        fresh.subscribe(Q_AUTHOR, subscription_id="new")
        fresh_keys = _match_keys(_publish_pair(fresh, 50.0, suffix="b"))

    assert churned_keys == fresh_keys
    assert churned_keys, "the resubscribed query must match the later pair"


@pytest.mark.parametrize("engine", ["mmqjp", "sequential"])
def test_partial_cancel_drops_only_dead_variable_rows(engine):
    config = RuntimeConfig(
        engine=engine, construct_outputs=False, auto_timestamp=False, executor="serial"
    )
    with open_broker(config) as broker:
        broker.subscribe(Q_AUTHOR, subscription_id="qa")
        broker.subscribe(Q_CAT, subscription_id="qc")
        _publish_pair(broker, 1.0)
        eng = broker.engine
        state = eng._processor().state
        rvar_before = len(state.rvar)
        rbin_before = len(state.rbin)

        broker.cancel("qc")

        # the category variables died with qc -> their rows are reclaimed
        # (these reduced graphs have no structural edges, so Rbin stays as it
        # was — the per-variable rows live in Rvar)
        assert len(state.rvar) < rvar_before
        assert len(state.rbin) <= rbin_before
        assert eng.num_queries == 1
        assert state.num_documents > 0, "shared state documents survive"

        # the surviving subscription still matches future documents
        deliveries = _publish_pair(broker, 50.0, suffix="later")
        assert any(d.match is not None for d in deliveries)


def test_deregister_unknown_query_raises():
    config = RuntimeConfig(construct_outputs=False, executor="serial")
    with open_broker(config) as broker:
        with pytest.raises(KeyError):
            broker.engine.deregister_query("ghost")


@pytest.mark.parametrize("shards", [1, 2])
def test_unsubscribe_now_retracts_and_mute_keeps_registered(shards):
    config = RuntimeConfig(construct_outputs=False, auto_timestamp=False, shards=shards)
    with open_broker(config) as broker:
        sub_mute = broker.subscribe(Q_AUTHOR, subscription_id="muted")
        sub_gone = broker.subscribe(Q_CAT, subscription_id="gone")
        total = lambda: _total_queries(broker)
        assert total() == 2

        broker.mute("muted")
        assert total() == 2, "mute keeps the query registered"
        assert not sub_mute.active and not sub_mute.cancelled

        broker.unsubscribe("gone")
        assert total() == 1, "unsubscribe delegates to the retraction path"
        assert sub_gone.cancelled

        sub_mute.resume()
        assert sub_mute.active
        deliveries = _publish_pair(broker, 1.0)
        assert any(d.subscription_id == "muted" for d in deliveries)


def test_filter_subscription_cancel_releases_evaluator_state():
    with open_broker(RuntimeConfig()) as broker:
        sub = broker.subscribe("S//blog->b[.//author->a]", subscription_id="f1")
        keep = broker.subscribe("S//book->k", subscription_id="f2")
        front = broker._filters
        assert front.num_subscriptions == 2
        assert "b" in front.evaluator.variables

        sub.cancel()
        assert front.num_subscriptions == 1
        assert "b" not in front.evaluator.variables
        assert "a" not in front.evaluator.variables
        assert "k" in front.evaluator.variables

        # the surviving filter still fires; the cancelled one stays silent
        broker.publish(make_blog_article(docid="b1", timestamp=1.0))
        broker.publish(make_book_announcement(docid="k1", timestamp=2.0))
        assert sub.num_results == 0
        assert keep.num_results == 1


def test_pause_resume_round_trip_delivers_again():
    with open_broker(RuntimeConfig(construct_outputs=False, auto_timestamp=False)) as broker:
        sub = broker.subscribe(Q_AUTHOR)
        _publish_pair(broker, 1.0)
        first = sub.num_results
        assert first > 0
        sub.pause()
        _publish_pair(broker, 20.0, suffix="p")
        assert sub.num_results == first
        sub.resume()
        _publish_pair(broker, 60.0, suffix="r")
        assert sub.num_results > first


def test_cancelled_subscription_cannot_resume():
    with open_broker(RuntimeConfig(construct_outputs=False)) as broker:
        sub = broker.subscribe(Q_AUTHOR)
        sub.cancel()
        with pytest.raises(RuntimeError):
            sub.resume()


def test_sharded_cancel_releases_partitioner_load():
    with Broker(RuntimeConfig(shards=2, construct_outputs=False)) as broker:
        sub = broker.subscribe(Q_AUTHOR, subscription_id="qa")
        shard_id = broker.shard_of("qa")
        assert shard_id is not None
        assert sum(broker._partitioner.loads) == 1
        sub.cancel()
        assert sum(broker._partitioner.loads) == 0
        assert broker.shard_of("qa") is None
        assert broker.shards[shard_id].num_queries == 0


def test_template_revival_after_full_cancel():
    """A retired template is revived in place when an equivalent query returns."""
    config = RuntimeConfig(engine="mmqjp", construct_outputs=False, executor="serial")
    with open_broker(config) as broker:
        broker.subscribe(Q_AUTHOR, subscription_id="a1")
        registry = broker.engine.registry
        assert registry.num_templates == 1
        broker.cancel("a1")
        assert registry.num_templates == 0
        assert registry.num_retired_templates == 1
        broker.subscribe(Q_AUTHOR, subscription_id="a2")
        assert registry.num_templates == 1
        assert registry.num_retired_templates == 0
