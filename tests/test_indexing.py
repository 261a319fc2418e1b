"""The incremental indexed join pipeline.

Covers three layers:

* relational — the one state index, a relation's column store probed by
  :meth:`ColumnStore.positions_of`, live under inserts, partition drops,
  clears and a wholesale ``rows`` assignment; :class:`PartitionedRelation`
  semantics; the mutation-counter NDV cache (a prune followed by
  equal-size inserts must not serve stale estimates).
* evaluator — compiled plans over an :class:`IndexedDatabase` produce
  exactly what plain per-call hashing does.
* engine/runtime — any interleaving of ``subscribe`` / ``publish`` /
  ``prune`` yields identical matches across both engines, and a
  register-first one what ``tests/oracle.py`` says on 1/2/4 shards
  (property-based).
"""

from __future__ import annotations

import random
from functools import partial

from hypothesis import given, settings, strategies as st

from repro import RuntimeConfig, open_broker
from repro.relational import (
    ConjunctiveQuery,
    IndexedDatabase,
    PartitionedRelation,
    Relation,
    PlanCache,
    Var,
    evaluate_conjunctive,
)
from repro.relational.columnar import ValueDictionary
from repro.relational.conjunctive import DeltaContext
from tests import oracle
from tests.conftest import make_document, make_queries
from tests.test_oracle_agreement import deliveries, run_script


# --------------------------------------------------------------------------- #
# the state index: a relation's column store, probed by positions_of
# --------------------------------------------------------------------------- #
def _bound(rel: Relation) -> Relation:
    rel.enable_columnar(ValueDictionary())
    return rel


def _rows_with(rel: Relation, column: int, value) -> list[tuple]:
    """The rows ``positions_of`` finds for ``value`` on ``column``, in row order."""
    store = rel.column_store()
    value_id = store.dictionary.get_id(value)
    if value_id is None:
        return []
    return [rel.rows[p] for p in store.positions_of(column, {value_id})]


def test_positions_of_is_memoized_and_live_under_inserts():
    rel = _bound(Relation(["docid", "var", "node"], name="Rvar"))
    rel.insert(("d1", "a", 1))
    assert _rows_with(rel, 1, "a") == [("d1", "a", 1)]
    store = rel.column_store()
    index = store.group((1,))
    assert store.group((1,)) is index
    rel.insert(("d2", "a", 2))
    rel.insert(("d2", "b", 3))
    assert rel.column_store() is store
    assert _rows_with(rel, 1, "a") == [("d1", "a", 1), ("d2", "a", 2)]
    assert _rows_with(rel, 1, "b") == [("d2", "b", 3)]
    # the appended rows were scanned, not re-indexed
    assert store.group((1,)) is index and store.group_builds == 1


def test_wholesale_rows_assignment_leaves_index_stale_until_next_use():
    # A wholesale ``rows`` assignment bypasses incremental maintenance; the
    # next use must re-encode it, and a later eager insert must not
    # re-stamp the stale columns as current.
    rel = _bound(PartitionedRelation(["docid", "v"], name="p"))
    rel.insert(("d1", "a"))
    assert _rows_with(rel, 1, "a") == [("d1", "a")]
    rel.rows = [("d1", "a"), ("d2", "b")]
    rel.insert(("d3", "c"))
    assert _rows_with(rel, 1, "b") == [("d2", "b")]
    assert _rows_with(rel, 1, "c") == [("d3", "c")]
    assert rel.column_store().rebuilds == 1
    rel.drop_partitions({"d2"})
    assert _rows_with(rel, 1, "b") == []
    assert _rows_with(rel, 1, "c") == [("d3", "c")]


def test_index_bulk_removal_with_duplicate_rows():
    rel = _bound(PartitionedRelation(["docid", "v"], name="p"))
    rel.insert_many([("d1", "x"), ("d1", "x"), ("d2", "x"), ("d2", "y")])
    assert len(_rows_with(rel, 1, "x")) == 3
    rel.drop_partitions({"d1"})
    assert _rows_with(rel, 1, "x") == [("d2", "x")]
    assert _rows_with(rel, 1, "y") == [("d2", "y")]
    assert rel.column_store().prefix_drops == 1  # mirrored, not re-encoded


def test_index_survives_clear():
    rel = _bound(Relation(["x"], name="r"))
    rel.insert((1,))
    assert _rows_with(rel, 0, 1) == [(1,)]
    rel.clear()
    assert _rows_with(rel, 0, 1) == []
    rel.insert((1,))
    rel.insert((2,))
    assert _rows_with(rel, 0, 1) == [(1,)]
    assert _rows_with(rel, 0, 2) == [(2,)]


# --------------------------------------------------------------------------- #
# partitioned relations
# --------------------------------------------------------------------------- #
def test_partitioned_relation_flat_view_and_drop():
    rel = PartitionedRelation(
        ["docid", "node", "strVal"], name="Rdoc", partition_attribute="docid"
    )
    rows = [("d1", 1, "x"), ("d1", 2, "y"), ("d2", 1, "x"), ("d3", 5, "z")]
    rel.insert_many(rows)
    assert rel.rows == rows
    assert len(rel) == 4
    assert rel.num_partitions == 3
    assert rel.partition("d1") == [("d1", 1, "x"), ("d1", 2, "y")]

    removed = rel.drop_partitions({"d1", "d3", "missing"})
    assert removed == 3
    assert len(rel) == 1
    assert rel.rows == [("d2", 1, "x")]
    assert list(rel) == [("d2", 1, "x")]
    assert rel.partition_keys() == ["d2"]


def test_partitioned_drop_updates_live_indexes():
    rel = _bound(PartitionedRelation(["docid", "v"], name="p"))
    rel.insert_many([("d1", "x"), ("d2", "x"), ("d2", "y")])
    assert _rows_with(rel, 1, "x") == [("d1", "x"), ("d2", "x")]
    index = rel.column_store().group((1,))
    rel.drop_partitions({"d1"})
    assert _rows_with(rel, 1, "x") == [("d2", "x")]
    rel.insert(("d3", "x"))
    assert _rows_with(rel, 1, "x") == [("d2", "x"), ("d3", "x")]
    # the dropped prefix is masked and the appended row scanned: one build
    assert rel.column_store().group((1,)) is index


def test_ndv_cache_keyed_on_mutation_counter():
    # The historical bug: a prune followed by equal-size inserts left the
    # row count unchanged, so a count-keyed cache served stale NDV values.
    rel = PartitionedRelation(["docid", "v"], name="p")
    rel.insert_many([("d1", "a"), ("d1", "b"), ("d2", "c")])
    assert rel.distinct_count(1) == 3
    rel.drop_partitions({"d1"})
    rel.insert_many([("d3", "c"), ("d4", "c")])
    assert len(rel) == 3  # same row count as before the prune
    assert rel.distinct_count(1) == 1
    assert rel.distinct_count(0) == 3


def test_base_relation_ndv_cache_invalidated_by_clear_and_reinsert():
    rel = Relation(["v"], name="r")
    rel.insert_many([("a",), ("b",)])
    assert rel.distinct_count(0) == 2
    rel.clear()
    rel.insert_many([("c",), ("c",)])
    assert len(rel) == 2
    assert rel.distinct_count(0) == 1


# --------------------------------------------------------------------------- #
# the indexed evaluation environment
# --------------------------------------------------------------------------- #
def _random_env(rng: random.Random):
    edges = PartitionedRelation(["docid", "a", "b"], name="edge")
    for _ in range(rng.randrange(1, 30)):
        edges.insert((f"d{rng.randrange(4)}", rng.randrange(5), rng.randrange(5)))
    probe = Relation(["b"], name="probe")
    for _ in range(rng.randrange(1, 8)):
        probe.insert((rng.randrange(5),))
    return edges, probe


def test_indexed_evaluation_matches_plain():
    rng = random.Random(42)
    cq = ConjunctiveQuery("out", ["d", "x", "z"], [Var("d"), Var("x"), Var("z")])
    cq.add_atom("probe", [Var("y")])
    cq.add_atom("edge", [Var("d"), Var("x"), Var("y")])
    cq.add_atom("edge", [Var("d"), Var("y"), Var("z")])

    for _ in range(25):
        edges, probe = _random_env(rng)
        plain = evaluate_conjunctive(cq, {"edge": edges, "probe": probe})
        env = IndexedDatabase()
        env.bind("edge", edges, indexed=True)
        env.bind("probe", probe)
        for delta in (None, DeltaContext()):
            indexed = PlanCache().evaluate(cq, env, delta=delta)
            assert sorted(indexed.rows) == sorted(plain.rows)


def test_indexed_database_mapping_protocol():
    env = IndexedDatabase()
    rel = Relation(["x"], name="r")
    env.bind("r", rel, indexed=True)
    assert env["r"] is rel and env.get("r") is rel
    assert env.get("missing") is None
    assert "r" in env and list(env) == ["r"] and len(env) == 1
    assert env.is_stable("r")
    env.bind("r", rel, indexed=False)  # rebinding ephemerally clears the flag
    assert not env.is_stable("r")


# --------------------------------------------------------------------------- #
# interleavings of register / process / prune across all configurations
# --------------------------------------------------------------------------- #
# An operation stream: queries register mid-stream, documents arrive with
# increasing timestamps, prunes drop everything older than a random horizon.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.integers(1, 4), st.integers(0, 10_000)),
        st.tuples(st.just("doc"), st.tuples(*[st.integers(0, 2)] * 4)),
        st.tuples(st.just("prune"), st.integers(1, 4)),
    ),
    min_size=3,
    max_size=10,
).filter(
    lambda ops: sum(op[0] == "query" for op in ops) >= 1
    and sum(op[0] == "doc" for op in ops) >= 2
)


def _script(ops):
    """The operation stream as a :func:`~tests.test_oracle_agreement.run_script` script."""
    steps, docs = [], 0
    for op in ops:
        if op[0] == "query":
            query = make_queries([op[1:]], window=6.0)[0]
            steps.append(("subscribe", f"q{len(steps)}", query, None))
        elif op[0] == "doc":
            steps.append(("publish", partial(make_document, docs, op[1])))
            docs += 1
        else:  # the last document is stamped ``docs``
            steps.append(("prune", docs - float(op[1])))
    return steps


@given(_ops)
@settings(max_examples=12, deadline=None)
def test_interleavings_equal_across_modes_and_engines(ops):
    config = RuntimeConfig(construct_outputs=False, auto_prune=False)
    reference = deliveries(config, _script(ops))
    assert deliveries(config.replace(engine="sequential"), _script(ops)) == reference


@given(_ops)
@settings(max_examples=8, deadline=None)
def test_interleavings_equal_under_sharded_broker(ops):
    # Register every query up front: shard layouts legitimately disagree
    # about *mid-stream* registration (a late query cannot retroactively see
    # witnesses of documents that arrived before it reached its shard, while
    # on one engine an earlier query with overlapping variables may have
    # captured them) — and so does the oracle.
    script = _script(sorted(ops, key=lambda op: op[0] != "query"))
    expected = run_script(oracle.Oracle(), script)
    for shards in (1, 2, 4):
        config = RuntimeConfig(construct_outputs=False, auto_prune=False, shards=shards)
        assert deliveries(config, script) == expected


def test_auto_prune_equivalence_across_modes():
    """A deterministic stream with automatic window pruning enabled."""
    rng = random.Random(5)
    queries = make_queries([(1, 11), (2, 22), (3, 33), (2, 44)], window=3.0)
    values = [[rng.randrange(3) for _ in range(4)] for _ in range(10)]
    script = [("subscribe", f"q{i}", q, None) for i, q in enumerate(queries)] + [
        ("publish", partial(make_document, i, v)) for i, v in enumerate(values)
    ]
    expected = run_script(oracle.Oracle(), script)
    assert any(expected)
    for engine in ("mmqjp", "sequential"):
        config = RuntimeConfig(engine=engine, construct_outputs=False, executor="serial")
        with open_broker(config) as broker:
            assert run_script(broker, script) == expected
            # auto-pruning kept only the window horizon in state
            assert broker.engine.processor.state.num_documents <= 4
