"""Count gates: the column stores follow the join state, they do not re-encode it.

``stats()["columnar"]`` sums the sync counters of the long-lived relations'
column stores (join state and ``RT``).  These tests pin the counts — exact,
independent of seeds and clocks — that make steady-state sync cost
proportional to the delta: in-order window pruning and subscription churn
never rebuild a store, an out-of-order prune takes the one fallback, and the
block has the same keys on every broker and executor.
"""

from __future__ import annotations

import pytest

from repro import RuntimeConfig, open_broker
from repro.relational.columnar import ColumnStore

WINDOW = 6
ONE_JOIN = (
    "S//blog->b[.//author->a] FOLLOWED BY{{a=a, {w}}} S//blog->b[.//author->a]"
)
TWO_JOINS = (
    "S//blog->b[.//author->a][.//title->t] FOLLOWED BY{{a=a AND t=t, {w}}} "
    "S//blog->b[.//author->a][.//title->t]"
)
RUNTIMES = [(1, "serial"), (1, "processes"), (2, "serial"), (2, "processes")]


def _open(shards: int, executor: str, **knobs):
    return open_broker(
        RuntimeConfig(
            shards=shards,  # two templates -> one per shard
            executor=executor,
            construct_outputs=False,
            **knobs,
        )
    )


def _blog(i: int) -> str:
    return f"<blog><author>A{i % 3}</author><title>T{i % 2}</title></blog>"


def _columnar(broker) -> dict:
    stats = broker.stats()
    block = stats["columnar"]
    # one schema everywhere: the stores' counters
    assert tuple(block) == ColumnStore.COUNTERS
    assert stats["engine_stats"]["columnar"] == block
    assert all(shard["num_queries"] for shard in stats["per_shard"])
    for counter in block:
        assert block[counter] == sum(s["columnar"][counter] for s in stats["per_shard"])
    return block


def _fill(broker) -> tuple[dict, int]:
    """Fill the window and slide it; returns the counters and rows per document."""
    seen = []
    for i in range(WINDOW + 4):
        broker.publish(_blog(i))
        seen.append(_columnar(broker)["rows_encoded"])
    # Before the first prune, once the first documents have made every
    # relation a publish reads sync, a document's rows are encoded by the
    # next publish; every document has the same shape, hence the same rows.
    per_document = seen[4] - seen[3]
    assert per_document > 0 and seen[5] - seen[4] == per_document
    before = _columnar(broker)
    assert before["prefix_drops"] > 0 and before["rebuilds"] == 0
    return before, per_document


@pytest.mark.parametrize("shards,executor", RUNTIMES)
def test_in_order_pruning_encodes_only_the_appended_rows(shards, executor):
    with _open(shards, executor) as broker:
        for text in (ONE_JOIN, TWO_JOINS, ONE_JOIN, TWO_JOINS):
            broker.subscribe(text.format(w=WINDOW))
        before, per_document = _fill(broker)
        if broker.engine is not None:  # "the rows appended", read off the join state itself
            state = broker.engine._processor().state
            newest = max(state.document_ids(), key=state.timestamp_of)
            assert per_document == sum(
                len(relation.partition(newest))
                for relation in state.relations().values()
                if relation._colstore.stamp is not None
            )
        published = 3 * WINDOW
        delivered = sum(
            len(broker.publish(_blog(i))) for i in range(100, 100 + published)
        )
        after = _columnar(broker)
        assert delivered > 0
        assert after["rebuilds"] == 0
        assert after["rows_encoded"] - before["rows_encoded"] == published * per_document
        assert after["prefix_drops"] > before["prefix_drops"]
        assert after["swap_deletes"] == 0


@pytest.mark.parametrize("shards,executor", RUNTIMES)
def test_subscription_churn_never_rebuilds_rt(shards, executor):
    rounds, cycles = 5, 30
    with _open(shards, executor) as broker:
        # One anchor per template keeps every variable bound, so a cancel
        # retracts an RT tuple and nothing else.
        for text in (ONE_JOIN, TWO_JOINS):
            broker.subscribe(text.format(w=WINDOW))
        live = [
            broker.subscribe(text.format(w=WINDOW)).subscription_id
            for text in (ONE_JOIN, TWO_JOINS) * 4
        ]
        before, per_document = _fill(broker)
        for r in range(rounds):
            for c in range(cycles):
                slot = (r * cycles + c) % len(live)
                assert broker.cancel(live[slot])
                text = (ONE_JOIN, TWO_JOINS)[c % 2].format(w=WINDOW)
                live[slot] = broker.subscribe(text).subscription_id
            broker.publish(_blog(200 + r))
        after = _columnar(broker)
        assert after["rebuilds"] == 0
        assert after["swap_deletes"] - before["swap_deletes"] == rounds * cycles
        assert after["rows_encoded"] - before["rows_encoded"] == (
            rounds * per_document + rounds * cycles  # one RT tuple per subscribe
        )


def _out_of_order_session() -> tuple[list, dict]:
    query = (
        "S//blog->b1[.//author->a1] FOLLOWED BY{{a1=a2, {w}}} "
        "T//blog->b2[.//author->a2]"
    )
    keys = []
    with _open(1, "serial") as broker:
        broker.subscribe(query.format(w=3), subscription_id="q")
        # Per stream the timestamps ascend; across the two they do not, so
        # the document the window expires first was not inserted first.
        for stream, timestamp in (
            ("S", 10.0), ("S", 10.5), ("T", 9.0), ("S", 11.0), ("T", 10.8),
            ("T", 12.6), ("S", 12.8), ("T", 13.2), ("T", 13.9), ("S", 14.5),
        ):
            deliveries = broker.publish(_blog(0), stream=stream, timestamp=timestamp)
            keys.extend(  # document ids are process-global: key on the stamps
                sorted((d.match.lhs_timestamp, d.match.rhs_timestamp) for d in deliveries)
            )
        return keys, _columnar(broker)


def test_out_of_order_prune_takes_the_fallback_rebuild():
    keys, counters = _out_of_order_session()
    assert counters["rebuilds"] > 0  # ("T", 9.0) expired from the middle
    assert counters["prefix_drops"] > 0  # later prunes are leading again
    # Every S document followed by a T document within 0 < Δ ≤ 3 (one author):
    # window pruning never drops a document a later one still reaches.
    assert keys == [
        (10.0, 10.8), (10.5, 10.8),
        (10.0, 12.6), (10.5, 12.6), (11.0, 12.6),
        (10.5, 13.2), (11.0, 13.2), (12.8, 13.2),
        (11.0, 13.9), (12.8, 13.9),
    ]
