"""Fail-fast delta reduction: empty short-circuit, join-variable domains, estimates.

``test_delta_join.py`` covers the reduction machinery; this
module pins what the pass does *not* do any more — join after an empty
domain, keep domains for variables confined to one atom, re-estimate atoms
nothing touched — and that none of it changes a result against the row
reference :func:`~repro.relational.conjunctive.evaluate_conjunctive`.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.relational.columnar as columnar
from repro import RuntimeConfig, open_broker
from repro.core.processor import MMQJPJoinProcessor
from repro.core.results import Match
from repro.core.state import JoinState
from repro.relational.conjunctive import (
    EMPTY_DELTA,
    ConjunctiveQuery,
    DeltaContext,
    DeltaProgram,
    build_delta_program,
    evaluate_conjunctive,
)
from repro.relational.database import IndexedDatabase
from repro.relational.plan import CompiledPlan, PlanCache
from repro.relational.relation import PartitionedRelation, Relation
from repro.relational.terms import Var
from repro.templates.cqt import RELATION_SCHEMAS


def _template_query() -> ConjunctiveQuery:
    """A one-value-join template: ``nr``, ``mr``, ``qid`` and ``wl`` join nothing."""
    cq = ConjunctiveQuery(
        "Out",
        ["qid", "docid", "n1", "m1", "wl"],
        [Var("qid"), Var("docid"), Var("n1"), Var("m1"), Var("wl")],
    )
    cq.add_atom("Rdoc", [Var("docid"), Var("n1"), Var("s")])
    cq.add_atom("RdocW", [Var("m1"), Var("s")])
    cq.add_atom("Rbin", [Var("docid"), Var("p"), Var("c"), Var("nr"), Var("n1")])
    cq.add_atom("RbinW", [Var("p"), Var("c"), Var("mr"), Var("m1")])
    cq.add_atom("RT", [Var("qid"), Var("p"), Var("c"), Var("wl")])
    return cq


def _environment(rdoc=(), rbin=(), rt=(), rdocw=(), rbinw=()):
    env = IndexedDatabase()
    state_doc = PartitionedRelation(RELATION_SCHEMAS["Rdoc"], name="Rdoc")
    state_bin = PartitionedRelation(RELATION_SCHEMAS["Rbin"], name="Rbin")
    for row in rdoc:
        state_doc.insert(row)
    for row in rbin:
        state_bin.insert(row)
    env.bind("Rdoc", state_doc, indexed=True)
    env.bind("Rbin", state_bin, indexed=True)
    env.bind("RT", Relation(["qid", "p", "c", "wl"], rows=list(rt), name="RT"), indexed=True)
    env.bind("RdocW", Relation(RELATION_SCHEMAS["RdocW"], rows=list(rdocw), name="RdocW"))
    env.bind("RbinW", Relation(RELATION_SCHEMAS["RbinW"], rows=list(rbinw), name="RbinW"))
    return env


def _matching_rows(num_docs: int = 6) -> dict:
    """State and witnesses where documents ``s0``/``s1`` join with the delta."""
    rdoc, rbin = [], []
    for d in range(num_docs):
        names = ("root", "leaf") if d < 2 else ("dead_root", "dead_leaf")
        for leaf in (1, 2):
            rdoc.append((f"s{d}", leaf, f"v{d % 3}"))
            rbin.append((f"s{d}", names[0], names[1], 0, leaf))
    return {
        "rdoc": rdoc,
        "rbin": rbin,
        "rt": [("q1", "root", "leaf", 10.0), ("q2", "root", "other", 5.0)],
        "rdocw": [(1, "v0"), (2, "v1")],
        "rbinw": [("root", "leaf", 0, 1), ("root", "leaf", 0, 2)],
    }


# --------------------------------------------------------------------------- #
# equivalence: the reduced plan returns the plan-per-call rows, empty atoms included
# --------------------------------------------------------------------------- #
docids = st.sampled_from(["s0", "s1", "s2"])
nodes = st.integers(min_value=0, max_value=2)
strings = st.sampled_from(["a", "b", "c"])
names = st.sampled_from(["x", "y"])
rdoc_rows = st.lists(st.tuples(docids, nodes, strings), max_size=8)
rbin_rows = st.lists(st.tuples(docids, names, names, nodes, nodes), max_size=8)
rt_rows = st.lists(
    st.tuples(st.sampled_from(["q1", "q2", "q3"]), names, names, st.just(10.0)),
    max_size=4,
)
rdocw_rows = st.lists(st.tuples(nodes, strings), max_size=4)
rbinw_rows = st.lists(st.tuples(names, names, nodes, nodes), max_size=4)


@given(rdoc_rows, rbin_rows, rt_rows, rdocw_rows, rbinw_rows)
@example([("s0", 1, "a")], [("s0", "x", "y", 0, 1)], [("q1", "x", "y", 10.0)], [], [("x", "y", 0, 1)])
@example([], [("s0", "x", "y", 0, 1)], [("q1", "x", "y", 10.0)], [(1, "a")], [("x", "y", 0, 1)])
@example([("s0", 1, "a")], [("s0", "x", "y", 0, 1)], [], [(1, "a")], [("x", "y", 0, 1)])
@example([("s0", 1, "a")], [("s0", "x", "y", 0, 1)], [("q1", "x", "y", 10.0)], [(1, "a")], [("x", "y", 0, 1)])
@settings(max_examples=60, deadline=None)
def test_delta_evaluation_equals_full_evaluation(rdoc, rbin, rt, rdocw, rbinw):
    cq = _template_query()
    env = _environment(rdoc, rbin, rt, rdocw, rbinw)
    expected = sorted(evaluate_conjunctive(cq, env).rows)
    ctx = DeltaContext()
    cache = PlanCache()
    assert sorted(cache.evaluate(cq, env).rows) == expected
    # The same context again: whatever the first pass memoized is reused.
    assert sorted(cache.evaluate(cq, env, delta=ctx).rows) == expected
    assert sorted(cache.evaluate(cq, env, delta=DeltaContext()).rows) == expected
    assert ctx.executions_skipped == ctx.short_circuits
    if not (rdoc and rbin and rt and rdocw and rbinw):
        assert expected == [] and ctx.short_circuits == 1


# --------------------------------------------------------------------------- #
# the empty short-circuit
# --------------------------------------------------------------------------- #
def test_empty_domain_skips_the_join(monkeypatch):
    rows = _matching_rows()
    rows["rdocw"] = [(1, "nowhere"), (2, "nowhere-else")]  # no state value matches
    executions = []
    execute = CompiledPlan.execute
    monkeypatch.setattr(
        CompiledPlan, "execute", lambda self, *a, **k: executions.append(1) or execute(self, *a, **k)
    )
    cq = _template_query()
    env = _environment(**rows)
    ctx = DeltaContext()
    out = PlanCache().evaluate(cq, env, delta=ctx)
    assert out.rows == [] and out.schema.attributes == tuple(cq.head_schema)
    assert (ctx.short_circuits, ctx.executions_skipped) == (1, 1)
    # Rdoc by the witness values comes back empty, in the first pass at
    # the latest: no stable atom is reduced twice.
    assert 1 <= ctx.reductions_computed <= 3
    assert executions == []


def test_reduce_reports_the_empty_outcome_and_plan_passes_it_on():
    rows = _matching_rows()
    rows["rt"] = []
    env = _environment(**rows)
    cq = _template_query()
    ctx = DeltaContext()
    assert build_delta_program(cq.body, env).reduce(env, ctx) is EMPTY_DELTA
    plan = PlanCache().plan_for(cq, env)
    assert plan.reduced_step_relations(env, ctx) is EMPTY_DELTA
    assert ctx.short_circuits == 2 and ctx.executions_skipped == 0  # nobody joined yet
    assert ctx.reductions_computed == 0  # an empty body relation costs no reduction


def test_an_invalid_order_is_an_error_even_when_the_delta_is_empty():
    rows = _matching_rows()
    rows["rdocw"] = []
    env = _environment(**rows)
    with pytest.raises(ValueError):
        evaluate_conjunctive(_template_query(), env, order="sideways")


# --------------------------------------------------------------------------- #
# domains for join variables only
# --------------------------------------------------------------------------- #
def test_single_atom_variables_never_constrain_a_reduction(monkeypatch):
    seen: dict[str, set] = {}
    reduce = DeltaContext.reduce

    def recording(self, name, base, const_checks, constraints, *args, **kwargs):
        seen.setdefault(name, set()).update(col for col, _dom in constraints)
        return reduce(self, name, base, const_checks, constraints, *args, **kwargs)

    monkeypatch.setattr(DeltaContext, "reduce", recording)
    cq = _template_query()
    env = _environment(**_matching_rows())
    ctx = DeltaContext()
    out = PlanCache().evaluate(cq, env, delta=ctx)
    assert sorted(out.rows) == sorted(evaluate_conjunctive(cq, env).rows) != []
    assert set(seen) == {"Rdoc", "Rbin", "RT"}
    assert 3 not in seen["Rbin"]  # nr
    assert seen["RT"] <= {1, 2}  # neither qid nor wl
    # RT is reduced once: what it told the domains cannot shrink it again.
    assert ctx.reductions_computed <= 2 * len(seen)


# --------------------------------------------------------------------------- #
# incremental estimates pick the order a full re-estimation picks
# --------------------------------------------------------------------------- #
def _delta_scaling_orders(monkeypatch, full_reestimation: bool):
    """Reduction order and estimate count over the delta_scaling fixture."""
    import random

    from repro.templates.registry import TemplateRegistry
    from repro.workloads.querygen import generate_query
    from repro.workloads.synthetic import build_delta_scaling_data
    from repro.xmlmodel.schema import two_level_schema

    schema = two_level_schema(6)
    rng = random.Random(7)
    queries = [generate_query(schema, (i % 2) + 1, rng, window=float("inf")) for i in range(24)]
    data = build_delta_scaling_data(schema, 48, num_alive_docs=8, num_probe_docs=3, value_pool=6)

    order, estimated = [], []
    with monkeypatch.context() as patch:
        reduce, estimate, init = DeltaContext.reduce, DeltaProgram._estimate, DeltaProgram.__init__

        def recording_reduce(self, name, base, const_checks, constraints, *args, **kwargs):
            order.append((name, len(base), tuple((col, len(dom)) for col, dom in constraints)))
            return reduce(self, name, base, const_checks, constraints, *args, **kwargs)

        def counting_estimate(atom, base, constraints):
            estimated.append(atom.position)
            return estimate(atom, base, constraints)

        def everyone_is_a_peer(self, body, is_stable):
            init(self, body, is_stable)
            self._peers = dict.fromkeys(self._peers, tuple(self._peers))

        patch.setattr(DeltaContext, "reduce", recording_reduce)
        patch.setattr(DeltaProgram, "_estimate", staticmethod(counting_estimate))
        if full_reestimation:
            # Every reduction drops every cached estimate: each pick that
            # follows one re-estimates all the remaining atoms.
            patch.setattr(DeltaProgram, "__init__", everyone_is_a_peer)
        state = JoinState()
        data.load_state(state)
        registry = TemplateRegistry()
        for i, query in enumerate(queries):
            registry.add_query(f"q{i}", query)
        processor = MMQJPJoinProcessor(registry, state=state)
        keys = set()
        for witness in data.probes:
            keys.update(match.key() for match in processor.process(witness))
            processor.maintain_state(witness)
    return order, len(estimated), keys


def test_incremental_estimates_keep_the_greedy_order(monkeypatch):
    incremental, few, keys = _delta_scaling_orders(monkeypatch, full_reestimation=False)
    full, many, full_keys = _delta_scaling_orders(monkeypatch, full_reestimation=True)
    assert incremental == full and len(incremental) > 20
    assert keys == full_keys and keys
    assert few < many


# --------------------------------------------------------------------------- #
# counters: delta_stats / stats()["delta"], Match.key
# --------------------------------------------------------------------------- #
TRACKER = (
    "S//blog->b[.//author->a][.//title->t] FOLLOWED BY{a=a AND t=t, 50} "
    "S//blog->b[.//author->a][.//title->t]"
)
COAUTHOR = "S//blog->b[.//author->a] FOLLOWED BY{a=a, 50} S//blog->b[.//author->a]"


@pytest.mark.parametrize("shards", (1, 2))
def test_brokers_report_the_delta_counters(shards):
    config = RuntimeConfig(shards=shards, construct_outputs=False)
    with open_broker(config) as broker:
        broker.subscribe(TRACKER)
        broker.subscribe(COAUTHOR)
        delivered = []
        for i in range(6):  # authors repeat, titles never: the tracker never fires
            delivered += broker.publish(f"<blog><author>A{i % 2}</author><title>T{i}</title></blog>")
        stats = broker.stats()
        delta = stats["delta"]
        assert tuple(delta) == ("documents",) + DeltaContext.COUNTERS
        assert delta == stats["engine_stats"]["delta"]
        assert delta["short_circuits"] == delta["executions_skipped"] > 0
        assert delta["rows_kept"] <= delta["rows_scanned"]
        assert delta["lookups"] == delta["reductions_computed"] > 0  # a handful of ids each
        if shards == 1:
            assert delta == broker.engine.delta_stats
        else:
            for counter, value in delta.items():
                assert value == sum(shard["delta"][counter] for shard in stats["per_shard"])
        assert len(delivered) == 6  # each author's earlier articles, coauthor only


def test_an_overflowing_key_stays_vectorized(monkeypatch):
    """A key too wide to pack its ids still probes, and agrees with the row reference."""
    cq = _template_query()
    env = _environment(**_matching_rows())  # no group index built yet
    expected = sorted(evaluate_conjunctive(cq, env).rows)
    assert expected
    stores = []
    probe = columnar.ColumnStore.probe
    monkeypatch.setattr(
        columnar.ColumnStore, "probe", lambda self, *a: stores.append(self) or probe(self, *a)
    )
    monkeypatch.setattr(columnar, "_PACK_LIMIT", 4)  # no two-column key packs its ids any more
    assert sorted(PlanCache().evaluate(cq, env).rows) == expected
    assert sorted(PlanCache().evaluate(cq, env, delta=DeltaContext()).rows) == expected
    wide = [gi for store in stores for gi in store._groups.values() if len(gi.bases) > 1]
    assert wide and all(gi.ranks is not None or gi.tuples is not None for gi in wide)


def test_match_key_is_never_computed_on_delivery(monkeypatch):
    """Not on a plain publish, nor to undo a symmetric JOIN's swap (nothing is de-duplicated)."""
    calls = []
    key = Match.key
    monkeypatch.setattr(Match, "key", lambda self: calls.append(1) or key(self))
    with open_broker(RuntimeConfig(construct_outputs=False)) as broker:
        broker.subscribe(COAUTHOR)
        broker.publish("<blog><author>A</author></blog>")
        calls.clear()
        delivered = broker.publish("<blog><author>A</author></blog>")
        assert len(delivered) == 1 and calls == []
    with open_broker(RuntimeConfig(construct_outputs=False)) as broker:
        broker.subscribe(COAUTHOR.replace("FOLLOWED BY", "JOIN"))
        broker.publish("<blog><author>A</author></blog>", timestamp=1.0)
        calls.clear()
        # Equal timestamps: the JOIN delivers both orders of the pair.
        delivered = broker.publish("<blog><author>A</author></blog>", timestamp=1.0)
        assert len(delivered) == 2 and calls == []
        assert len({d.match.key() for d in delivered}) == 2
