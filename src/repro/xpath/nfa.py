"""Shared NFA over absolute location paths (YFilter-style path sharing).

All absolute root paths of all registered query blocks are compiled into a
single trie-shaped NFA.  A document is then traversed once; at every element
the set of active NFA states is advanced, and accepting states report which
registered paths match the element.  This is the structural-sharing idea of
YFilter [Diao et al., TODS 2003], which the paper reuses for Stage 1.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable

from repro.xmlmodel.document import XmlDocument
from repro.xmlmodel.node import XmlNode
from repro.xpath.ast import Axis, LocationPath, Step


class PathNFA:
    """A shared NFA recognizing a set of absolute location paths.

    Paths are registered with :meth:`add_path` under an arbitrary hashable
    key; :meth:`match_document` returns, for every key, the set of element
    node ids matched by that path.
    """

    def __init__(self) -> None:
        # State 0 is the start state (the virtual document node).
        self._transitions: list[dict[tuple[Axis, str], int]] = [{}]
        self._accepting: dict[int, set[Hashable]] = defaultdict(set)
        self._has_descendant_out: list[bool] = [False]
        self._paths: dict[Hashable, LocationPath] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _new_state(self) -> int:
        self._transitions.append({})
        self._has_descendant_out.append(False)
        return len(self._transitions) - 1

    def add_path(self, key: Hashable, path: LocationPath) -> None:
        """Register an absolute path under ``key`` (idempotent per key)."""
        if not path.absolute:
            raise ValueError("the shared NFA only accepts absolute paths")
        if key in self._paths:
            if str(self._paths[key]) != str(path):
                raise ValueError(f"key {key!r} already registered with a different path")
            return
        self._paths[key] = path
        state = 0
        for step in path.steps:
            edge = (step.axis, step.test)
            nxt = self._transitions[state].get(edge)
            if nxt is None:
                nxt = self._new_state()
                self._transitions[state][edge] = nxt
                if step.axis is Axis.DESCENDANT:
                    self._has_descendant_out[state] = True
            state = nxt
        self._accepting[state].add(key)

    @property
    def num_states(self) -> int:
        """Number of NFA states (including the start state)."""
        return len(self._transitions)

    @property
    def paths(self) -> dict[Hashable, LocationPath]:
        """The registered paths, by key."""
        return dict(self._paths)

    # ------------------------------------------------------------------ #
    # matching
    # ------------------------------------------------------------------ #
    def _advance(self, active: frozenset[int], tag: str) -> tuple[set[int], set[int]]:
        """One transition step: returns (reached states, active set for children)."""
        reached: set[int] = set()
        carry: set[int] = set()
        for state in active:
            if self._has_descendant_out[state]:
                carry.add(state)
            for (axis, test), nxt in self._transitions[state].items():
                if test == "*" or test == tag:
                    reached.add(nxt)
        return reached, reached | carry

    def match_document(self, document: XmlDocument) -> dict[Hashable, set[int]]:
        """Match all registered paths against ``document``.

        Returns a mapping from path key to the set of matching element node
        ids (pre-order ids).  Keys with no matches are omitted.
        """
        results: dict[Hashable, set[int]] = defaultdict(set)

        def visit(node: XmlNode, active: frozenset[int]) -> None:
            reached, child_active = self._advance(active, node.tag)
            for state in reached:
                for key in self._accepting.get(state, ()):
                    results[key].add(node.node_id)
            child_active_f = frozenset(child_active)
            for child in node.children:
                visit(child, child_active_f)

        visit(document.root, frozenset({0}))
        return dict(results)
