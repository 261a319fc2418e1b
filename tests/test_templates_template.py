"""Unit tests for query templates and template matching.

networkx, a ``dev`` dependency, serves only here: VF2 over the same
labelled multigraphs is the reference the matcher is checked against.
"""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.templates import (
    JoinGraph,
    QueryTemplate,
    ReducedJoinGraph,
    Side,
    TemplateRegistry,
    enumerate_template_queries,
    reduce_join_graph,
)
from repro.templates import template as template_module
from repro.templates.template import reduced_graph_signature
from repro.xscl import parse_query
from tests.conftest import PAPER_Q1, PAPER_Q2, PAPER_Q3, PAPER_WINDOWS

ROOT = Path(__file__).resolve().parents[1]


def _reduced(text: str):
    return reduce_join_graph(JoinGraph.from_query(parse_query(text, window_symbols=PAPER_WINDOWS)))


@pytest.fixture
def q1_template():
    template, assignment = QueryTemplate.from_reduced(0, _reduced(PAPER_Q1))
    return template, assignment


def test_template_structure_matches_figure5(q1_template):
    template, _ = q1_template
    assert len(template.meta_order) == 6
    assert len(template.structural_edges) == 4
    assert len(template.value_edges) == 2
    sides = [template.node_sides[m] for m in template.meta_order]
    assert sides.count(Side.LEFT) == 3
    assert sides.count(Side.RIGHT) == 3


def test_creating_assignment_covers_all_meta_vars(q1_template):
    template, assignment = q1_template
    assert set(assignment.assignment) == set(template.meta_order)
    assert set(assignment.assignment.values()) == {"x1", "x2", "x3", "x4", "x5", "x6"}


def test_rt_values_order(q1_template):
    template, assignment = q1_template
    row = assignment.rt_values("Q1", 10.0)
    assert row[0] == "Q1"
    assert row[-1] == 10.0
    assert len(row) == len(template.meta_order) + 2


def test_q2_and_q3_match_q1_template(q1_template):
    template, _ = q1_template
    for text in (PAPER_Q2, PAPER_Q3):
        assignment = template.match(_reduced(text))
        assert assignment is not None
        assert set(assignment.assignment) == set(template.meta_order)


def test_q3_assignment_uses_same_names_for_both_sides(q1_template):
    template, _ = q1_template
    assignment = template.match(_reduced(PAPER_Q3))
    values = list(assignment.assignment.values())
    # x4, x5, x6 each appear twice (once per block side).
    assert sorted(values) == ["x4", "x4", "x5", "x5", "x6", "x6"]


def test_non_isomorphic_query_does_not_match(q1_template):
    template, _ = q1_template
    single_vj = _reduced("S//a->r[.//b->x] FOLLOWED BY{x=u, 1} S//c->r2[.//d->u]")
    assert template.match(single_vj) is None


def test_side_asymmetry_respected():
    """1 left leaf vs 2 right leaves is a different template than its mirror."""
    one_two = _reduced(
        "S//a->r[.//b->x] FOLLOWED BY{x=u AND x=v, 1} S//c->r2[.//d->u][.//e->v]"
    )
    two_one = _reduced(
        "S//a->r[.//b->x][.//c->y] FOLLOWED BY{x=u AND y=u, 1} S//d->r2[.//e->u]"
    )
    template, _ = QueryTemplate.from_reduced(0, one_two)
    assert template.match(two_one) is None
    assert template.match(one_two) is not None


def test_assignment_respects_graph_structure():
    """The matched assignment must map value-join partners consistently."""
    template, _ = QueryTemplate.from_reduced(0, _reduced(PAPER_Q1))
    assignment = template.match(_reduced(PAPER_Q2))
    mapping = assignment.assignment
    for left_meta, right_meta in template.value_edges:
        left_var, right_var = mapping[left_meta], mapping[right_meta]
        # Q2's value joins are x2=x5 and x7=x8.
        assert (left_var, right_var) in {("x2", "x5"), ("x7", "x8")}


def test_helper_accessors(q1_template):
    template, _ = q1_template
    assert template.rt_relation_name() == "RT_0"
    assert template.out_relation_name() == "Rout_0"
    assert template.rt_schema()[0] == "qid"
    assert template.rt_schema()[-1] == "wl"
    assert template.isolated_meta_vars() == []
    assert template.num_value_joins == 2
    roots = [m for m in template.meta_order if template.structural_parent_of(m) is None]
    assert len(roots) == 2


# --------------------------------------------------------------------------- #
# the VF2 reference (networkx)
# --------------------------------------------------------------------------- #
def _as_nx(reduced: ReducedJoinGraph):
    nx = pytest.importorskip("networkx")
    graph = nx.MultiDiGraph()
    for node in reduced.nodes:
        graph.add_node(node, side=node[0].value)
    for parent, child in reduced.structural_edges:
        graph.add_edge(parent, child, kind="structural")
    for left, right in reduced.value_edges:
        graph.add_edge(left, right, kind="value_join")
    return graph


def _nx_signature(graph) -> tuple:
    """The degree signature, built with networkx as placement keyed it before."""
    descriptors = []
    for node, data in graph.nodes(data=True):
        out_kinds = sorted(d["kind"] for _, _, d in graph.out_edges(node, data=True))
        in_kinds = sorted(d["kind"] for _, _, d in graph.in_edges(node, data=True))
        descriptors.append((data["side"], tuple(out_kinds), tuple(in_kinds)))
    return tuple(sorted(descriptors))


def _vf2_isomorphic(a, b) -> bool:
    isomorphism = pytest.importorskip("networkx.algorithms.isomorphism")
    return isomorphism.MultiDiGraphMatcher(
        a,
        b,
        node_match=lambda x, y: x["side"] == y["side"],
        edge_match=lambda x, y: sorted(d["kind"] for d in x.values())
        == sorted(d["kind"] for d in y.values()),
    ).is_isomorphic()


class _VF2Registry:
    """Template ids as VF2 assigns them: signature buckets, then isomorphism."""

    def __init__(self) -> None:
        self._by_signature: dict[tuple, list] = {}
        self.num_templates = 0

    def template_id(self, reduced: ReducedJoinGraph) -> int:
        graph = _as_nx(reduced)
        bucket = self._by_signature.setdefault(_nx_signature(graph), [])
        for template_id, representative in bucket:
            if _vf2_isomorphic(representative, graph):
                return template_id
        bucket.append((self.num_templates, graph))
        self.num_templates += 1
        return self.num_templates - 1


def _assert_isomorphism(template: QueryTemplate, names: dict, reduced: ReducedJoinGraph):
    """``names`` is a bijection onto the reduced graph keeping sides, kinds and directions."""
    node_of = {meta: (template.node_sides[meta], names[meta]) for meta in template.meta_order}
    assert len(set(node_of.values())) == len(node_of)
    assert set(node_of.values()) == reduced.nodes
    for template_edges, edges in (
        (template.structural_edges, reduced.structural_edges),
        (template.value_edges, reduced.value_edges),
    ):
        assert Counter((node_of[a], node_of[b]) for a, b in template_edges) == Counter(edges)


TABLE3_CELLS = [(1, "flat"), (2, "flat"), (3, "flat"), (4, "flat"),
                (1, "complex"), (2, "complex"), (3, "complex")]


@pytest.mark.parametrize("num_value_joins, schema_kind", TABLE3_CELLS)
def test_registry_splits_table3_enumeration_like_vf2(num_value_joins, schema_kind):
    registry = TemplateRegistry()
    reference = _VF2Registry()
    for i, query in enumerate(enumerate_template_queries(num_value_joins, schema_kind)):
        record = registry.add_query(f"e{i}", query)
        # Both mint ids in order of first appearance, so equal ids per query
        # mean equal partitions.
        assert record.template.template_id == reference.template_id(record.reduced)
        _assert_isomorphism(record.template, record.names, record.reduced)
        assert reduced_graph_signature(record.reduced) == _nx_signature(_as_nx(record.reduced))
    assert registry.num_templates == reference.num_templates


def test_signature_equals_the_networkx_built_one():
    for text in (PAPER_Q1, PAPER_Q2, PAPER_Q3, _topic_query(7, list(range(8)), [3, 1, 4, 0, 5, 2, 7, 6])):
        reduced = _reduced(text)
        assert reduced_graph_signature(reduced) == _nx_signature(_as_nx(reduced))


@st.composite
def _reduced_graphs(draw) -> ReducedJoinGraph:
    """A random two-forest graph with value edges (multi-edges allowed)."""
    reduced = ReducedJoinGraph()
    for side, prefix in ((Side.LEFT, "a"), (Side.RIGHT, "b")):
        size = draw(st.integers(1, 6))
        nodes = [(side, f"{prefix}{i}") for i in range(size)]
        reduced.nodes.update(nodes)
        for i in range(1, size):
            parent = draw(st.integers(-1, i - 1))
            if parent >= 0:
                reduced.structural_edges.append((nodes[parent], nodes[i]))
    lefts = sorted(n for n in reduced.nodes if n[0] is Side.LEFT)
    rights = sorted(n for n in reduced.nodes if n[0] is Side.RIGHT)
    reduced.value_edges = draw(
        st.lists(st.tuples(st.sampled_from(lefts), st.sampled_from(rights)), min_size=1, max_size=6)
    )
    return reduced


def _relabelled(reduced: ReducedJoinGraph, rng: random.Random) -> ReducedJoinGraph:
    """An isomorphic copy: fresh names per side, edge lists shuffled."""
    names = {}
    for side in Side:
        nodes = sorted(n for n in reduced.nodes if n[0] is side)
        fresh = [f"v{side.value}{i}" for i in range(len(nodes))]
        rng.shuffle(fresh)
        names.update({node: (side, name) for node, name in zip(nodes, fresh)})
    copy = ReducedJoinGraph()
    copy.nodes = set(names.values())
    copy.structural_edges = [(names[p], names[c]) for p, c in reduced.structural_edges]
    copy.value_edges = [(names[a], names[b]) for a, b in reduced.value_edges]
    rng.shuffle(copy.structural_edges)
    rng.shuffle(copy.value_edges)
    return copy


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_reduced_graphs(), _reduced_graphs(), st.randoms(use_true_random=False))
def test_matcher_agrees_with_vf2_on_random_graphs(first, second, rng):
    template, _ = QueryTemplate.from_reduced(0, first)
    copy = _relabelled(first, rng)
    assignment = template.match(copy)
    assert assignment is not None
    _assert_isomorphism(template, assignment.assignment, copy)

    other = template.match(second)
    assert (other is not None) == _vf2_isomorphic(_as_nx(first), _as_nx(second))
    if other is not None:
        _assert_isomorphism(template, other.assignment, second)


# --------------------------------------------------------------------------- #
# no factorial search, no hash-seed dependence
# --------------------------------------------------------------------------- #
def _topic_query(topic: int, left: list, right: list) -> str:
    """A topic-shaped subscription: leaf ``left[k]`` joins leaf ``right[k]``."""

    def block(order) -> str:
        steps = "".join(f"[.//t{topic}_leaf{i}->v_t{topic}_leaf{i}]" for i in order)
        return f"S//t{topic}_root->v_t{topic}_root{steps}"

    joins = " AND ".join(f"v_t{topic}_leaf{l}=v_t{topic}_leaf{r}" for l, r in zip(left, right))
    return f"{block(left)} FOLLOWED BY{{{joins}, 100}} {block(right)}"


def _count_candidate_pairs(monkeypatch) -> list:
    """Record every (query node, template node) pair the search tries."""
    tried = []
    consistent = template_module._consistent

    def counting(template, query, node, candidate, *mapping):
        tried.append((node, candidate))
        return consistent(template, query, node, candidate, *mapping)

    monkeypatch.setattr(template_module, "_consistent", counting)
    return tried


def test_topic_seven_match_tries_at_most_two_pairs_per_node(monkeypatch):
    leaves = list(range(8))
    template, _ = QueryTemplate.from_reduced(0, _reduced(_topic_query(7, leaves, leaves)))
    query = _reduced(_topic_query(7, [5, 2, 7, 0, 3, 6, 1, 4], [1, 6, 0, 4, 7, 2, 5, 3]))
    tried = _count_candidate_pairs(monkeypatch)
    assignment = template.match(query)
    assert assignment is not None
    _assert_isomorphism(template, assignment.assignment, query)
    assert len(query.nodes) == 18
    assert len(tried) <= 2 * len(query.nodes)


MIRRORED = (
    "S//r->a[.//m->b[.//p->c][.//q->d]][.//n->e[.//s->f][.//t->g]] "
    "FOLLOWED BY{{{joins}, 1}} "
    "S//x->w[.//y->u1][.//y2->u2][.//y3->u3][.//y4->u4]"
)


@pytest.mark.parametrize(
    "joins",
    [
        "c=u3 AND d=u4 AND f=u1 AND g=u2",  # the two subtrees swapped
        "c=u1 AND d=u3 AND f=u2 AND g=u4",  # the right leaves regrouped
    ],
)
def test_mirrored_subtrees_match_without_search(monkeypatch, joins):
    template, _ = QueryTemplate.from_reduced(
        0, _reduced(MIRRORED.format(joins="c=u1 AND d=u2 AND f=u3 AND g=u4"))
    )
    query = _reduced(MIRRORED.format(joins=joins))
    tried = _count_candidate_pairs(monkeypatch)
    assignment = template.match(query)
    assert assignment is not None
    _assert_isomorphism(template, assignment.assignment, query)
    assert len(tried) <= 2 * len(query.nodes)


_REGISTER_POPULATION = """
import json, random
from repro import open_broker
rng = random.Random(7)
broker = open_broker()
for i in range(64):
    topic = i % 8
    left, right = rng.sample(range(topic + 1), topic + 1), rng.sample(range(topic + 1), topic + 1)
    steps = lambda order: "".join(f"[.//t{topic}_l{k}->v{topic}_{k}]" for k in order)
    joins = " AND ".join(f"v{topic}_{l}=v{topic}_{r}" for l, r in zip(left, right))
    broker.subscribe(f"S//t{topic}_r->r{topic}{steps(left)} FOLLOWED BY{{{joins}, 10}} "
                     f"S//t{topic}_r->r{topic}{steps(right)}")
registry = broker.engine.registry
print(json.dumps([
    [t.template_id, t.meta_order, registry.rt_relation(t).rows] for t in registry.templates
]))
"""


def test_registration_is_independent_of_the_hash_seed():
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        run = subprocess.run(
            [sys.executable, "-c", _REGISTER_POPULATION],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        outputs.append(json.loads(run.stdout))
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == 8
