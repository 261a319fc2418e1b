"""Unit tests for the graph-minor reduction (Section 4.2)."""

import pytest

from repro.templates import (
    JoinGraph,
    ReducedJoinGraph,
    Side,
    enumerate_template_queries,
    reduce_join_graph,
)
from repro.workloads.querygen import QueryWorkloadConfig, generate_queries
from repro.xmlmodel.schema import three_level_schema, two_level_schema
from repro.xscl import parse_query
from tests.conftest import PAPER_Q1, PAPER_Q3, PAPER_WINDOWS


def _reduced(text: str):
    return reduce_join_graph(JoinGraph.from_query(parse_query(text, window_symbols=PAPER_WINDOWS)))


def test_q1_reduction_keeps_all_six_nodes():
    """Q1's join graph is already minimal: roots are LCAs of two leaves each."""
    reduced = _reduced(PAPER_Q1)
    assert len(reduced.nodes) == 6
    assert len(reduced.structural_edges) == 4
    assert len(reduced.value_edges) == 2
    assert reduced.isolated_nodes() == []


def test_leaves_without_value_joins_are_removed():
    reduced = _reduced(
        "S//a->r[.//b->x][.//c->unused][.//d->y] FOLLOWED BY{x=u AND y=v, 1} "
        "S//e->r2[.//f->u][.//g->v]"
    )
    assert (Side.LEFT, "unused") not in reduced.nodes
    assert len(reduced.side_nodes(Side.LEFT)) == 3


def test_single_participant_side_loses_its_root():
    reduced = _reduced(
        "S//a->r[.//b->x] FOLLOWED BY{x=u, 1} S//e->r2[.//f->u]"
    )
    assert reduced.nodes == {(Side.LEFT, "x"), (Side.RIGHT, "u")}
    assert reduced.structural_edges == []
    assert set(reduced.isolated_nodes()) == reduced.nodes


def test_intermediate_with_single_child_is_spliced():
    reduced = _reduced(
        "S//r->a[.//m->b[.//leaf->c]][.//n->d[.//leaf2->e]] "
        "FOLLOWED BY{c=u AND e=v, 1} S//x->w[.//y->u][.//z->v]"
    )
    # b and d each have one relevant child, so they are spliced out; the root
    # a is the LCA of c and e and is kept, with direct edges to both leaves.
    left = set(reduced.side_nodes(Side.LEFT))
    assert left == {(Side.LEFT, "a"), (Side.LEFT, "c"), (Side.LEFT, "e")}
    assert ((Side.LEFT, "a"), (Side.LEFT, "c")) in reduced.structural_edges
    assert ((Side.LEFT, "a"), (Side.LEFT, "e")) in reduced.structural_edges


def test_intermediate_lca_of_two_leaves_is_kept():
    reduced = _reduced(
        "S//r->a[.//m->b[.//p->c][.//q->d]] "
        "FOLLOWED BY{c=u AND d=v, 1} S//x->w[.//y->u][.//z->v]"
    )
    # b is the LCA of c and d and must survive, while the root a (an ancestor
    # of the LCA) is removed.
    left = set(reduced.side_nodes(Side.LEFT))
    assert left == {(Side.LEFT, "b"), (Side.LEFT, "c"), (Side.LEFT, "d")}
    assert ((Side.LEFT, "b"), (Side.LEFT, "c")) in reduced.structural_edges
    assert (Side.LEFT, "a") not in reduced.nodes


def test_mixed_groups_keep_both_lcas():
    reduced = _reduced(
        "S//r->a[.//m->b[.//p->c][.//q->d]][.//n->e[.//s->f]] "
        "FOLLOWED BY{c=u AND d=v AND f=w, 1} "
        "S//x->rr[.//y->u][.//z->v][.//t->w]"
    )
    left = set(reduced.side_nodes(Side.LEFT))
    # a is the LCA of {c, f}; b the LCA of {c, d}; e is spliced out.
    assert (Side.LEFT, "a") in left
    assert (Side.LEFT, "b") in left
    assert (Side.LEFT, "e") not in left
    parents = reduced.structural_parents()
    assert parents[(Side.LEFT, "f")] == (Side.LEFT, "a")
    assert parents[(Side.LEFT, "c")] == (Side.LEFT, "b")
    assert parents[(Side.LEFT, "b")] == (Side.LEFT, "a")


def test_value_edges_preserved_verbatim():
    reduced = _reduced(PAPER_Q1)
    assert ((Side.LEFT, "x2"), (Side.RIGHT, "x5")) in reduced.value_edges


def test_num_value_joins(q1_text=PAPER_Q1):
    assert _reduced(q1_text).num_value_joins == 2


def _pairwise_reduce(graph: JoinGraph) -> ReducedJoinGraph:
    """The reference: one ``lca`` call per pair of participants, per side."""
    reduced = ReducedJoinGraph()
    for side in (Side.LEFT, Side.RIGHT):
        participants = graph.value_join_participants(side)
        kept = set(participants)
        for i, a in enumerate(participants):
            for b in participants[i + 1:]:
                lca = graph.lca(a, b)
                if lca is not None:
                    kept.add(lca)
        for node in sorted(kept, key=lambda n: (graph.depth(n), n[1])):
            for ancestor in graph.ancestors(node):
                if ancestor in kept:
                    reduced.structural_edges.append((ancestor, node))
                    break
        reduced.nodes.update(kept)
    reduced.value_edges = list(graph.value_edges)
    return reduced


def _reference_queries():
    for num_value_joins in (1, 2, 3):
        for schema_kind in ("flat", "complex"):
            yield from enumerate_template_queries(num_value_joins, schema_kind)
    for schema in (two_level_schema(6), three_level_schema(3)):
        yield from generate_queries(
            QueryWorkloadConfig(schema=schema, num_queries=200, max_value_joins=4, seed=11)
        )
    yield from (parse_query(text, window_symbols=PAPER_WINDOWS) for text in (PAPER_Q1, PAPER_Q3))
    # Participants that are ancestors of other participants, either order.
    right = "S//x->w[.//y->u][.//z->v][.//t->o]"
    for joins in ("c=u AND b=v", "b=u AND c=v", "c=u AND a=v AND d=o", "a=u AND d=v AND c=o"):
        yield parse_query(
            f"S//r->a[.//m->b[.//p->c][.//q->d]] FOLLOWED BY{{{joins}, 1}} {right}"
        )


def test_reduction_equals_the_pairwise_lca_reference():
    for query in _reference_queries():
        graph = JoinGraph.from_query(query)
        reduced, reference = reduce_join_graph(graph), _pairwise_reduce(graph)
        assert reduced.nodes == reference.nodes
        assert reduced.structural_edges == reference.structural_edges
        assert reduced.value_edges == reference.value_edges


def test_participants_in_separate_trees_share_no_ancestor():
    """A block whose variables hang from an unbound root is a forest."""
    graph = JoinGraph.from_query(
        parse_query("S//r[.//a->x][.//b->y] FOLLOWED BY{x=u AND y=v, 1} S//c->w[.//d->u][.//e->v]")
    )
    reduced = reduce_join_graph(graph)
    assert reduced.side_nodes(Side.LEFT) and not any(
        edge[0][0] is Side.LEFT for edge in reduced.structural_edges
    )
    assert reduced.nodes == _pairwise_reduce(graph).nodes
