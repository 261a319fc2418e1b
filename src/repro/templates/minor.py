"""Graph-minor reduction of join graphs (paper Section 4.2).

The reduction rules:

1. Recursively remove leaf nodes that do not participate in any value join.
2. Remove nodes that are not descendants (or self) of the least common
   ancestor of the remaining leaf nodes.
3. Splice out intermediate nodes that have only one child in the modified
   graph.

The resulting graph contains only the value-join leaf nodes and the
intermediate nodes that are least common ancestors of two or more of them.
Because the structural constraints of each block were already checked by
Stage 1, evaluating only this reduced set of structural edges (plus the
value joins) preserves query results; it lets many more queries share a
template.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.templates.join_graph import JoinGraph, NodeKey, Side


@dataclass
class ReducedJoinGraph:
    """The graph minor of a join graph, ready for template matching.

    Attributes
    ----------
    nodes:
        Kept nodes (value-join participants plus their pairwise LCAs).
    structural_edges:
        Edges from each kept node's nearest kept ancestor to it.  These may
        span several original pattern edges (spliced intermediates).
    value_edges:
        The original value-join edges (unchanged by the reduction).
    """

    nodes: set[NodeKey] = field(default_factory=set)
    structural_edges: list[tuple[NodeKey, NodeKey]] = field(default_factory=list)
    value_edges: list[tuple[NodeKey, NodeKey]] = field(default_factory=list)

    def side_nodes(self, side: Side) -> list[NodeKey]:
        """Kept nodes of one side."""
        return [n for n in self.nodes if n[0] is side]

    def structural_parents(self) -> dict[NodeKey, NodeKey]:
        """Map each kept node to its kept structural parent (roots omitted)."""
        return {child: parent for parent, child in self.structural_edges}

    def isolated_nodes(self) -> list[NodeKey]:
        """Kept nodes with no incident structural edge (single-participant sides)."""
        touched: set[NodeKey] = set()
        for parent, child in self.structural_edges:
            touched.add(parent)
            touched.add(child)
        return [n for n in self.nodes if n not in touched]

    @property
    def num_value_joins(self) -> int:
        """Number of value-join edges."""
        return len(self.value_edges)

    def __repr__(self) -> str:
        return (
            f"<ReducedJoinGraph {len(self.nodes)} nodes, "
            f"{len(self.structural_edges)} structural edges, "
            f"{len(self.value_edges)} value joins>"
        )


def _reduce_side(graph: JoinGraph, side: Side) -> tuple[set[NodeKey], list[tuple[NodeKey, NodeKey]]]:
    """Apply the three reduction rules to one side of the join graph."""
    participants = graph.value_join_participants(side)
    if not participants:
        return set(), []
    parents = graph.parents

    kept: set[NodeKey] = set(participants)
    # Pairwise LCAs of the participants are exactly the branching nodes of
    # the Steiner tree spanning them; rule 2 + rule 3 keep precisely those.
    # A node branches when participants reach it through two different
    # children.  Each walk up stops at the first node an earlier walk
    # reached, since everything above it is already recorded, so every node
    # is visited once.
    reached_via: dict[NodeKey, NodeKey] = {}
    for participant in participants:
        child, node = participant, parents.get(participant)
        while node is not None:
            via = reached_via.get(node)
            if via is not None:
                if via != child:
                    kept.add(node)
                break
            reached_via[node] = child
            child, node = node, parents.get(node)

    # Structural edge: each kept node links to its nearest kept proper ancestor.
    edges: list[tuple[NodeKey, NodeKey]] = []
    for node in sorted(kept, key=lambda n: (graph.depth(n), n[1])):
        for ancestor in graph.ancestors(node):
            if ancestor in kept:
                edges.append((ancestor, node))
                break
    return kept, edges


def reduce_join_graph(graph: JoinGraph) -> ReducedJoinGraph:
    """Compute the graph minor of ``graph`` per the paper's reduction rules."""
    reduced = ReducedJoinGraph()
    for side in (Side.LEFT, Side.RIGHT):
        nodes, edges = _reduce_side(graph, side)
        reduced.nodes.update(nodes)
        reduced.structural_edges.extend(edges)
    reduced.value_edges = list(graph.value_edges)
    return reduced
