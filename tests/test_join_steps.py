"""Join steps priced by rows: scanned per-document relations, unique keys, one-to-one steps.

``CompiledPlan.execute`` probes a stable relation through its memoized
group index and scans a relation that lives for one document (a witness
relation, a delta-reduced copy) under ``columnar.SCAN_LIMIT``; a group index
whose keys are unique answers a probe without run expansion; and a step that
matched every solution exactly once extends the solution columns instead of
re-gathering them.  None of this may change a result or its order: the scan
must return the index's pairs in the index's order, and a plan must return
the rows the row reference returns when it joins in the plan's order.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.relational.columnar as columnar
from repro import RuntimeConfig, open_broker
from repro.relational.columnar import ColumnStore, GroupIndex, ValueDictionary
from repro.relational.conjunctive import ConjunctiveQuery, DeltaContext, evaluate_conjunctive
from repro.relational.database import IndexedDatabase
from repro.relational.plan import CompiledPlan, PlanCache, compile_plan
from repro.relational.relation import Relation
from repro.relational.terms import Var

#: Which of ``(ranks, tuples)`` each packing sets; ``_limit`` makes a key of
#: ``width`` columns over the padded ids below pack that way.
_PACKINGS = {"ids": (False, False), "ranks": (True, False), "tuples": (False, True)}
_PAD = 100  # ids interned before the rows: raw ids outgrow the ranks


def _limit(packing: str, width: int) -> int:
    if packing == "ids":
        return columnar._PACK_LIMIT
    # Ranks of at most 8 distinct values per column fit 8**width; the raw ids
    # (each past _PAD) do not.  Nothing fits 0: whole keys are ranked.
    return 8**width if packing == "ranks" else 0


def _padded() -> ValueDictionary:
    d = ValueDictionary()
    for i in range(_PAD):
        d.id_of(("pad", i))
    return d


def _row(width: int):
    return st.lists(st.integers(0, 7), min_size=width, max_size=width).map(tuple)


def _assert_same_pairs(a, b) -> None:
    assert all(x.dtype == np.int64 for x in (*a, *b))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# --------------------------------------------------------------------------- #
# the scan returns the index's pairs, in its order
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("packing", sorted(_PACKINGS))
@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 6), data=st.data())
def test_a_scan_returns_the_index_pairs_in_the_index_order(packing, width, data):
    built = data.draw(st.lists(_row(width), max_size=30), label="built")
    appended = data.draw(st.lists(_row(width), max_size=10), label="appended")
    dropped = data.draw(st.integers(0, len(built) + len(appended)), label="dropped")
    probes = data.draw(
        st.lists(st.lists(st.integers(0, 9), min_size=width, max_size=width), max_size=20),
        label="probes",
    )
    # Key columns in a drawn order, so a key is not always the row prefix.
    key_cols = tuple(data.draw(st.permutations(range(width)), label="key_cols"))
    d = _padded()
    store = ColumnStore(width, d)
    rows = list(built)
    with mock.patch.object(columnar, "_PACK_LIMIT", _limit(packing, width)):
        store.sync(rows, (1, len(rows), 0))
        gi = store.group(key_cols)
        rows += appended  # an unindexed suffix
        store.sync(rows, (2, len(rows), 0))
        if dropped:
            del rows[:dropped]
            store.drop_prefix(dropped, (3, len(rows), 0))
        # Values 8 and 9 were never stored: their ids are past every base.
        probe_cols = [
            np.array([d.id_of(p[c]) for p in probes], dtype=np.int64) for c in key_cols
        ]
        indexed = store.probe(key_cols, probe_cols)
        assert store._groups[key_cols] is gi  # the index was probed, not rebuilt
        assert (gi.built_n, gi.dropped) == (max(0, len(built) - dropped), dropped)
        if len(gi.positions):
            assert (gi.ranks is not None, gi.tuples is not None) == _PACKINGS[packing]
        _assert_same_pairs(store.scan(key_cols, probe_cols), indexed)
    # and both are the brute-force pairs: probe-major, rows in position order
    want = [
        (i, r)
        for i, probe in enumerate(probes)
        for r, row in enumerate(rows)
        if all(row[c] == probe[c] for c in key_cols)
    ]
    assert list(zip(*(a.tolist() for a in indexed))) == want


@pytest.mark.parametrize("dropped", [0, 3])
def test_unique_keys_probe_without_expansion(dropped):
    d = ValueDictionary()
    store = ColumnStore(2, d)
    rows = [(i, i % 3) for i in range(10)]
    store.sync(rows, (1, 10, 0))
    gi = store.group((0,))
    assert gi.unique and not store.group((1,)).unique
    if dropped:
        store.drop_prefix(dropped, (2, 10 - dropped, 0))
    probe = [np.array([d.id_of(v) for v in (0, 2, 3, 5, 9, 5, 11)], dtype=np.int64)]
    with mock.patch.object(GroupIndex, "expand", side_effect=AssertionError("expanded")):
        pairs = store.probe((0,), probe)
    # key k sits at row k - dropped; keys under the dropped prefix are gone
    want = [(i, k - dropped) for i, k in enumerate((0, 2, 3, 5, 9, 5)) if k >= dropped]
    assert list(zip(*(a.tolist() for a in pairs))) == want
    _assert_same_pairs(store.scan((0,), probe), pairs)


# --------------------------------------------------------------------------- #
# plans: which steps scan, which re-gather
# --------------------------------------------------------------------------- #
def _query(head, atoms, distinct=False) -> ConjunctiveQuery:
    cq = ConjunctiveQuery(
        head_name="out", head_schema=head, head_terms=[Var(v) for v in head], distinct=distinct
    )
    for name, terms in atoms:
        cq.add_atom(name, [Var(t) for t in terms])
    return cq


#: W (the document) binds ``a``; R maps each ``a`` to one ``b`` (unique
#: keys: one-to-one); S fans ``b`` out to its ``c`` rows.
CHAIN = _query(["a", "b", "c"], [("W", "a"), ("R", "ab"), ("S", "bc")])


def _chain_env(w, r, s, stable=("R", "S")) -> IndexedDatabase:
    env = IndexedDatabase()
    for name, attrs, rows in (("W", ["a"], w), ("R", ["a", "b"], r), ("S", ["b", "c"], s)):
        env.bind(name, Relation(attrs, rows), indexed=name in stable)
    return env


def _reference(plan: CompiledPlan, cq: ConjunctiveQuery, env) -> list:
    """The row reference joining in the plan's order: the same rows, in the same order."""
    atoms = {atom.relation: atom for atom in cq.body}
    return evaluate_conjunctive(cq, env, order=[atoms[n] for n in plan.join_order]).rows


def test_a_one_to_one_step_extends_and_keeps_the_gathered_order():
    # R and S carry rows no document value reaches, so W is joined first.
    env = _chain_env(
        w=[(3,), (1,), (2,), (1,)],
        r=[(1, 10), (2, 20), (3, 30), (7, 70), (8, 80)],
        s=[(10, "x"), (20, "y"), (10, "z"), (30, "w"), (70, "v"), (80, "u")],
    )
    plan = compile_plan(CHAIN, env)
    assert plan.join_order == ("W", "R", "S")
    rows = plan.execute(env).rows
    assert rows == _reference(plan, CHAIN, env) == [
        (3, 30, "w"), (1, 10, "x"), (1, 10, "z"), (2, 20, "y"), (1, 10, "x"), (1, 10, "z"),
    ]
    # R matched each of the four solutions once: no re-gather; S fanned out.
    assert (plan.one_to_one_steps, plan.indexed_probes, plan.scanned_probes) == (1, 2, 0)
    # Without R's row for 2, R keeps three of four solutions (a re-gather)
    # and S, with one row per b, is the one-to-one step.
    env = _chain_env(
        w=[(3,), (1,), (2,), (1,)],
        r=[(1, 10), (3, 30), (7, 70), (8, 80), (9, 90)],
        s=[(10, "x"), (30, "w"), (70, "v"), (80, "u"), (90, "t")],
    )
    plan = compile_plan(CHAIN, env)
    assert plan.join_order == ("W", "R", "S")
    assert plan.execute(env).rows == _reference(plan, CHAIN, env) == [
        (3, 30, "w"), (1, 10, "x"), (1, 10, "x"),
    ]
    assert plan.one_to_one_steps == 1


def test_steps_over_per_document_relations_scan_and_stable_ones_probe_their_index():
    w, r, s = [(1,), (2,)], [(1, 10), (2, 20)], [(10, "x"), (20, "y")]
    env = _chain_env(w, r, s, stable=("R",))  # S lives for this document only
    plan = compile_plan(CHAIN, env)
    assert [step.stable for step in plan.steps] == [False, True, False]
    assert plan.execute(env).rows == _reference(plan, CHAIN, env)
    assert (plan.indexed_probes, plan.scanned_probes) == (1, 1)
    assert env["S"].column_store()._groups == {}  # nothing built for the scan
    assert env["R"].column_store().group_builds == 1
    # Past the guard the per-document relation is indexed after all.
    with mock.patch.object(columnar, "SCAN_LIMIT", 3):
        assert plan.execute(env).rows == _reference(plan, CHAIN, env)
    assert (plan.indexed_probes, plan.scanned_probes) == (3, 1)
    assert env["S"].column_store().group_builds == 1


def test_a_delta_reduced_override_is_scanned():
    env = _chain_env(
        w=[(1,)], r=[(i, 10 * i) for i in range(50)], s=[(10 * i, i) for i in range(50)]
    )
    cache = PlanCache()
    plain = cache.evaluate(CHAIN, env).rows
    assert (cache.indexed_probes, cache.scanned_probes) == (2, 0)
    reduced = cache.evaluate(CHAIN, env, delta=DeltaContext()).rows
    assert reduced == plain == [(1, 10, 1)]
    # R and S were reduced to the document's rows: both scanned this time.
    assert (cache.indexed_probes, cache.scanned_probes) == (2, 2)


@settings(max_examples=80, deadline=None)
@given(
    w=st.lists(st.tuples(st.integers(0, 5)), max_size=8),
    r=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
    s=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
    stable=st.sets(st.sampled_from("RS")),
    limit=st.sampled_from([0, 16, columnar.SCAN_LIMIT]),
)
def test_a_plan_returns_the_reference_rows_in_the_reference_order(w, r, s, stable, limit):
    env = _chain_env(w, r, s, stable=tuple(stable))
    with mock.patch.object(columnar, "SCAN_LIMIT", limit):
        plan = compile_plan(CHAIN, env)
        assert plan.execute(env).rows == _reference(plan, CHAIN, env)
        cache = PlanCache()
        assert sorted(cache.evaluate(CHAIN, env, delta=DeltaContext()).rows) == sorted(
            _reference(plan, CHAIN, env)
        )


# --------------------------------------------------------------------------- #
# the counters in broker.stats()["plans"]
# --------------------------------------------------------------------------- #
COAUTHOR = "S//blog->b[.//author->a] FOLLOWED BY{a=a, 50} S//blog->b[.//author->a]"
TRACKER = (
    "S//blog->b[.//author->a][.//title->t] FOLLOWED BY{a=a AND t=t, 50} "
    "S//blog->b[.//author->a][.//title->t]"
)


def _plan_stats(shards: int, executor: str) -> dict:
    config = RuntimeConfig(
        shards=shards, executor=executor, construct_outputs=False
    )
    with open_broker(config) as broker:
        broker.subscribe(TRACKER)
        broker.subscribe(COAUTHOR)
        for i in range(8):
            broker.publish(f"<blog><author>A{i % 2}</author><title>T{i % 3}</title></blog>")
        stats = broker.stats()
    plans = stats["plans"]
    assert plans == stats["engine_stats"]["plans"]
    for counter, value in plans.items():
        assert value == sum(shard["plans"][counter] for shard in stats["per_shard"])
    return plans


@pytest.mark.parametrize("shards", [1, 2])
def test_every_runtime_reports_the_same_exact_plan_counters(shards):
    serial = _plan_stats(shards, "serial")
    assert tuple(serial) == ("plans",) + PlanCache.COUNTERS
    assert serial["head_rows"] > 0 and serial["probe_rows"] >= serial["head_rows"]
    # Every stable atom here is delta-reduced to the document's rows: scanned.
    assert serial["scanned_probes"] > 0
    assert serial["one_to_one_steps"] > 0
    assert _plan_stats(shards, "serial") == serial  # repeatable
    assert _plan_stats(shards, "processes") == serial
