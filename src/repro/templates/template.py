"""Query templates and template matching (Section 4.1–4.2).

A :class:`QueryTemplate` is the canonical representative of an equivalence
class of reduced join graphs.  Its nodes are *meta-variables* ``var1 ...
varM``; a query belongs to the template when its reduced join graph is
isomorphic to the template graph (respecting block sides, edge kinds and
edge directions), and the isomorphism provides the assignment of the
query's variable names to the template's meta-variables — which becomes the
query's tuple in the template relation ``RT``.

Reduced join graphs are tiny — a forest per block side plus the value
edges between them — so matching is written for them:

* the *degree signature* (:func:`reduced_graph_signature`) buckets the
  templates; the sharded runtime also places templates by it;
* *colour refinement* colours each node by its side, then, round by round,
  by the multiset of (edge kind, direction, neighbour colour) around it
  until the number of colours stops growing; a graph whose histogram
  differs from the template's in any round is rejected at once;
* a backtracking search maps query nodes to template nodes of the same
  colour, in connectivity order from the rarest colour, most constrained
  node first (:func:`_search_order`), and accepts a candidate only if its
  edges to the nodes mapped so far equal the query node's
  (:func:`_consistent`).

This is deliberately not a canonical labelling: a subscription pairing
``t+1`` leaves of one block with ``t+1`` of the other has ``(t+1)!``
automorphisms, all of which an individualise-and-refine labelling without
automorphism pruning would visit, while finding *one* isomorphism against
the template in the bucket takes about one candidate per node.  Nodes are
ordered by sorted keys, never by set iteration, so the assignment is a pure
function of (template, reduced graph) under any hash seed.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, Optional, Sequence

from repro.templates.join_graph import NodeKey, Side
from repro.templates.minor import ReducedJoinGraph

#: Edge kinds, as the degree signature spells them.
STRUCTURAL = "structural"
VALUE_JOIN = "value_join"

# An edge as one endpoint sees it: its kind and direction.
_STRUCTURAL_OUT, _STRUCTURAL_IN, _VALUE_OUT, _VALUE_IN = range(4)


def reduced_graph_signature(reduced: ReducedJoinGraph) -> tuple:
    """The degree signature of a reduced join graph: its template bucket.

    The sorted (side, out-edge kinds, in-edge kinds) of every node.
    Isomorphic graphs have equal signatures, so every member of a template
    has its template's signature (the converse may fail: the signature only
    buckets candidates).  That makes it a cheap, stable *template key*: the
    sharded runtime hashes it to keep every member of a template on the
    same shard.
    """
    degrees = {node: [0, 0, 0, 0] for node in reduced.nodes}
    for parent, child in reduced.structural_edges:
        degrees[parent][_STRUCTURAL_OUT] += 1
        degrees[child][_STRUCTURAL_IN] += 1
    for left, right in reduced.value_edges:
        degrees[left][_VALUE_OUT] += 1
        degrees[right][_VALUE_IN] += 1
    return tuple(
        sorted(
            (
                side.value,
                (STRUCTURAL,) * s_out + (VALUE_JOIN,) * v_out,
                (STRUCTURAL,) * s_in + (VALUE_JOIN,) * v_in,
            )
            for (side, _), (s_out, s_in, v_out, v_in) in degrees.items()
        )
    )


def signature_key(signature: tuple) -> str:
    """A degree signature as compact JSON text: a template's key in a store."""
    return json.dumps(signature, separators=(",", ":"))


class _LabelledGraph:
    """A reduced join graph as integer adjacency, colour-refined.

    ``keys`` fixes the node order (the template's ``meta_order``, or a
    query's sorted node keys); every other field indexes into it.
    """

    __slots__ = ("keys", "sides", "adjacency", "refinement", "colours")

    def __init__(
        self,
        keys: Sequence[Hashable],
        sides: Sequence[str],
        structural_edges: Sequence[tuple],
        value_edges: Sequence[tuple],
    ) -> None:
        index = {key: i for i, key in enumerate(keys)}
        adjacency: list[list[tuple[int, int]]] = [[] for _ in keys]
        for edges, out_label, in_label in (
            (structural_edges, _STRUCTURAL_OUT, _STRUCTURAL_IN),
            (value_edges, _VALUE_OUT, _VALUE_IN),
        ):
            for source, target in edges:
                s, t = index[source], index[target]
                adjacency[s].append((out_label, t))
                adjacency[t].append((in_label, s))
        for neighbours in adjacency:
            neighbours.sort()
        self.keys = list(keys)
        self.sides = list(sides)
        self.adjacency = adjacency
        self.refinement, self.colours = _refine(sides, adjacency)


def _refine(
    sides: Sequence[str], adjacency: list[list[tuple[int, int]]]
) -> tuple[tuple, list[int]]:
    """Colour refinement: the per-round histograms and the final colours.

    A node's colour is the rank of its signature among the round's distinct
    signatures, so two graphs with equal histograms in every round colour
    corresponding nodes alike, and comparing the histograms compares the
    graphs' colourings.
    """
    signatures: list = list(sides)
    histograms = []
    num_colours = 0
    while True:
        counts = Counter(signatures)
        distinct = sorted(counts)
        histograms.append(tuple((s, counts[s]) for s in distinct))
        rank = {s: i for i, s in enumerate(distinct)}
        colours = [rank[s] for s in signatures]
        if len(distinct) == num_colours:
            return tuple(histograms), colours
        num_colours = len(distinct)
        signatures = [
            (colour, tuple(sorted((label, colours[j]) for label, j in neighbours)))
            for colour, neighbours in zip(colours, adjacency)
        ]


def _search_order(graph: _LabelledGraph) -> list[tuple[int, Optional[tuple[int, int]]]]:
    """Query nodes in connectivity order, each with the edge that anchors it.

    A node's anchor ``(earlier node, label)`` is the edge by which an
    already-ordered neighbour reaches it; its candidates are that
    neighbour's image's same-labelled neighbours, and the anchor is the one
    with the fewest such neighbours of the node's colour (its *width*).
    The next node is the adjacent one of least width — the most
    constrained — and the first node of each component is of the rarest
    colour.  Ties go to the right block, then by node order: members of a
    template that differ only in how they pair interchangeable leaves then
    share their right-block ``RT`` values and carry the pairing in the
    left-block columns, so the stored state is reduced by fewer distinct
    domains (on the topic-shaped ``perf`` workload, 60% fewer delta
    reductions per document than with the left block first).
    """
    colours = graph.colours
    frequency = Counter(colours)
    rarity = [
        (frequency[c], side != Side.RIGHT.value, c, i)
        for i, (c, side) in enumerate(zip(colours, graph.sides))
    ]
    taken = [False] * len(colours)
    order: list[tuple[int, Optional[tuple[int, int]]]] = []
    frontier: dict[int, tuple[int, tuple[int, int]]] = {}  # node -> (width, anchor)
    while len(order) < len(colours):
        if frontier:
            node = min(frontier, key=lambda j: (frontier[j][0], rarity[j]))
            anchor: Optional[tuple[int, int]] = frontier.pop(node)[1]
        else:
            node = min((j for j, t in enumerate(taken) if not t), key=rarity.__getitem__)
            anchor = None
        taken[node] = True
        order.append((node, anchor))
        fan = Counter((label, colours[j]) for label, j in graph.adjacency[node])
        for label, other in graph.adjacency[node]:
            if taken[other]:
                continue
            width = fan[label, colours[other]]
            if other not in frontier or width < frontier[other][0]:
                frontier[other] = (width, (node, label))
    return order


def _consistent(
    template: _LabelledGraph,
    query: _LabelledGraph,
    node: int,
    candidate: int,
    to_template: list[int],
    to_query: list[int],
) -> bool:
    """Whether mapping query ``node`` to template ``candidate`` keeps the
    mapped edges: the same kinds and directions to the same mapped nodes."""
    mine = sorted(
        (label, to_template[j]) for label, j in query.adjacency[node] if to_template[j] >= 0
    )
    theirs = sorted(
        (label, t) for label, t in template.adjacency[candidate] if to_query[t] >= 0
    )
    return mine == theirs


def _isomorphism(template: _LabelledGraph, query: _LabelledGraph) -> Optional[list[int]]:
    """One isomorphism as query node -> template node, or ``None``."""
    if query.refinement != template.refinement:
        return None
    size = len(query.keys)
    order = _search_order(query)
    to_template = [-1] * size
    to_query = [-1] * size
    t_colours = template.colours
    q_colours = query.colours

    def candidates(node: int, anchor: Optional[tuple[int, int]]) -> list[int]:
        colour = q_colours[node]
        if anchor is None:
            pool = range(size)
        else:
            earlier, label = anchor
            pool = (t for lab, t in template.adjacency[to_template[earlier]] if lab == label)
        out: list[int] = []
        for t in pool:
            if t_colours[t] == colour and to_query[t] < 0 and t not in out:
                out.append(t)
        return out

    def extend(depth: int) -> bool:
        if depth == size:
            return True
        node, anchor = order[depth]
        for t in candidates(node, anchor):
            if not _consistent(template, query, node, t, to_template, to_query):
                continue
            to_template[node], to_query[t] = t, node
            if extend(depth + 1):
                return True
            to_template[node], to_query[t] = -1, -1
        return False

    return to_template if extend(0) else None


@dataclass
class TemplateAssignment:
    """The result of matching one query against (or into) a template.

    Attributes
    ----------
    template:
        The template the query belongs to.
    assignment:
        Mapping from meta-variable name (``var1`` ...) to the query's
        variable name — the values stored in the query's ``RT`` tuple.
    """

    template: "QueryTemplate"
    assignment: dict[str, str]

    def rt_values(self, qid: str, window: float) -> tuple:
        """The query's tuple for the template relation ``RT``."""
        return (qid,) + tuple(
            self.assignment[mv] for mv in self.template.meta_order
        ) + (window,)


@dataclass
class QueryTemplate:
    """One query template (an equivalence class of reduced join graphs).

    Attributes
    ----------
    template_id:
        Registry-assigned numeric id; also used to name the template's
        ``RT`` relation (``RT_<id>``) and output relation (``Rout_<id>``).
    meta_order:
        Meta-variable names in canonical order (defines the ``RT`` schema).
    node_sides:
        Side of each meta-variable's node.
    structural_edges / value_edges:
        Edges between meta-variables.
    signature:
        The degree signature (:func:`reduced_graph_signature`) of every
        member's reduced graph.
    """

    template_id: int
    meta_order: list[str]
    node_sides: dict[str, Side]
    structural_edges: list[tuple[str, str]]
    value_edges: list[tuple[str, str]]
    signature: tuple = field(repr=False)
    _graph: _LabelledGraph = field(repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_reduced(cls, template_id: int, reduced: ReducedJoinGraph) -> tuple["QueryTemplate", "TemplateAssignment"]:
        """Create a template from the reduced join graph of its first query.

        Returns the template plus the assignment of that first query.
        """
        parents = reduced.structural_parents()

        def depth(node: NodeKey) -> int:
            d = 0
            current = node
            while current in parents:
                current = parents[current]
                d += 1
            return d

        ordered_nodes = sorted(
            reduced.nodes, key=lambda n: (n[0].value, depth(n), n[1])
        )
        meta_of: dict[NodeKey, str] = {}
        meta_order: list[str] = []
        node_sides: dict[str, Side] = {}
        for i, node in enumerate(ordered_nodes, start=1):
            meta = f"var{i}"
            meta_of[node] = meta
            meta_order.append(meta)
            node_sides[meta] = node[0]

        structural = [(meta_of[p], meta_of[c]) for p, c in reduced.structural_edges]
        value = [(meta_of[a], meta_of[b]) for a, b in reduced.value_edges]

        template = cls(
            template_id=template_id,
            meta_order=meta_order,
            node_sides=node_sides,
            structural_edges=structural,
            value_edges=value,
            signature=reduced_graph_signature(reduced),
            _graph=_LabelledGraph(
                meta_order, [s.value for s in node_sides.values()], structural, value
            ),
        )
        assignment = TemplateAssignment(
            template=template,
            assignment={meta_of[node]: node[1] for node in reduced.nodes},
        )
        return template, assignment

    # ------------------------------------------------------------------ #
    # matching
    # ------------------------------------------------------------------ #
    def match(self, reduced: ReducedJoinGraph) -> Optional[TemplateAssignment]:
        """Match a reduced join graph against this template.

        Returns the meta-variable assignment when the graphs are isomorphic
        (respecting sides, edge kinds and directions); ``None`` otherwise.
        """
        keys = sorted(reduced.nodes, key=lambda n: (n[0].value, n[1]))
        query = _LabelledGraph(
            keys, [side.value for side, _ in keys], reduced.structural_edges, reduced.value_edges
        )
        mapping = _isomorphism(self._graph, query)
        if mapping is None:
            return None
        return TemplateAssignment(
            template=self,
            assignment={
                self.meta_order[t]: query.keys[node][1] for node, t in enumerate(mapping)
            },
        )

    # ------------------------------------------------------------------ #
    # structure helpers used by CQT construction
    # ------------------------------------------------------------------ #
    @property
    def num_value_joins(self) -> int:
        """Number of value-join edges in the template."""
        return len(self.value_edges)

    def structural_parent_of(self, meta: str) -> Optional[str]:
        """The structural parent of a meta-variable's node, if any."""
        for parent, child in self.structural_edges:
            if child == meta:
                return parent
        return None

    def isolated_meta_vars(self) -> list[str]:
        """Meta-variables whose nodes touch no structural edge."""
        touched = {m for edge in self.structural_edges for m in edge}
        return [m for m in self.meta_order if m not in touched]

    def rt_relation_name(self) -> str:
        """The name of this template's RT relation."""
        return f"RT_{self.template_id}"

    def rt_schema(self) -> list[str]:
        """The schema of this template's RT relation."""
        return ["qid"] + list(self.meta_order) + ["wl"]

    def out_relation_name(self) -> str:
        """The name of this template's output relation RoutT."""
        return f"Rout_{self.template_id}"

    def __repr__(self) -> str:
        return (
            f"<QueryTemplate #{self.template_id}: {len(self.meta_order)} meta vars, "
            f"{len(self.structural_edges)} structural edges, "
            f"{len(self.value_edges)} value joins>"
        )
