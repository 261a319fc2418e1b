"""What a join subscription must deliver, by nested loops over the documents.

A reference evaluator sharing nothing with the engine but the XSCL parser
and the XML tree: no templates, witnesses, relevance index, plans, deltas or
column stores, and its own child/descendant step matcher in place of
Stage 1's (``tests/test_oracle_agreement.py`` scans its imports).  Its unit
is the set of ``(subscription id, left docid, right docid)``.

A subscription live when document B is published delivers ``(sid, A, B)``
for every earlier, unpruned document A such that

* A matches the left block and B the right one: same stream, and every
  pattern node bound to an element its path reaches — the root's path
  read from the document node, every other node's from its parent's
  element;
* under one such pair of bindings every value predicate holds, on XPath
  string values; and
* ``Δ = B.timestamp − A.timestamp`` fits the operator: ``0 < Δ ≤ w`` for
  FOLLOWED BY; ``0 ≤ Δ ≤ w`` for JOIN, which also delivers ``(sid, B, A)``
  when B matches the left block and A the right one.

``prune(t)`` forgets the documents stamped before ``t``, ``cancel`` a
subscription.  Like ``perf/oracle.py`` this is the program's semantics only
under conditions — Stage 1 computes witnesses on arrival, for the paths
registered then, and Stage 2 joins over each query's graph minor (join
variables and their lowest common ancestors):

1. every subscription is registered before the first document it should
   join with;
2. every pattern node the graph minor drops is present in every document
   (true of ``generate_query`` over ``build_document``, the RSS stream and
   the paper example); and
3. timestamps do not decrease, so window pruning only drops documents no
   live window reaches.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterator, Optional, Union

from repro.xmlmodel import XmlDocument
from repro.xpath.ast import Axis, LocationPath
from repro.xscl import JoinOperator, XsclQuery, parse_query


def _descendants(node) -> Iterator:
    for child in node.children:
        yield child
        yield from _descendants(child)


def _select(context, path: LocationPath) -> list:
    """The elements ``path`` reaches from ``context``, each once."""
    frontier = [context]
    for step in path.steps:
        reached: dict[int, object] = {}
        for node in frontier:
            candidates = node.children if step.axis is Axis.CHILD else _descendants(node)
            for candidate in candidates:
                if step.test == "*" or step.test == candidate.tag:
                    reached[id(candidate)] = candidate
        frontier = list(reached.values())
    return frontier


def _bindings(pattern_node, context) -> Iterator[dict]:
    """Every binding of the pattern subtree at ``pattern_node``: variable -> element."""
    for element in _select(context, pattern_node.path):
        partial = [{pattern_node.variable: element} if pattern_node.variable else {}]
        for child in pattern_node.children:
            partial = [{**p, **b} for p in partial for b in _bindings(child, element)]
        yield from partial


class Oracle:
    """Live subscriptions and unpruned documents; each publish's deliveries.

    It takes the broker's calls — ``subscribe(query, subscription_id=...,
    window_symbols=...)``, ``publish``, ``cancel``, ``prune`` — so a script
    plays against either.
    """

    def __init__(self) -> None:
        self.queries: dict[str, XsclQuery] = {}
        self.documents: list[XmlDocument] = []  # in arrival order
        self._values: dict[tuple, frozenset] = {}

    def subscribe(
        self,
        query: Union[str, XsclQuery],
        subscription_id: str,
        window_symbols: Optional[dict[str, float]] = None,
    ) -> None:
        if isinstance(query, str):
            query = parse_query(query, window_symbols=window_symbols)
        if not query.is_join_query or subscription_id in self.queries:
            raise ValueError(f"{subscription_id!r}: not a new join subscription")
        self.queries[subscription_id] = query

    def cancel(self, subscription_id: str) -> None:
        del self.queries[subscription_id]
        self._values = {k: v for k, v in self._values.items() if k[0] != subscription_id}

    def prune(self, min_timestamp: float) -> None:
        self.documents = [d for d in self.documents if d.timestamp >= min_timestamp]

    def publish(self, document: XmlDocument) -> set[tuple[str, str, str]]:
        """The deliveries of ``document``, which then joins the earlier documents."""
        out = set()
        for sid, query in self.queries.items():
            operator, window = query.join.operator, query.join.window
            for earlier in self.documents:
                delta = document.timestamp - earlier.timestamp
                if operator is JoinOperator.FOLLOWED_BY:
                    in_window = 0 < delta <= window
                else:
                    in_window = 0 <= delta <= window
                if not in_window:
                    continue
                if self._joins(sid, earlier, document):
                    out.add((sid, earlier.docid, document.docid))
                if operator is JoinOperator.JOIN and self._joins(sid, document, earlier):
                    out.add((sid, document.docid, earlier.docid))
        self.documents.append(document)
        return out

    def _joins(self, sid: str, left: XmlDocument, right: XmlDocument) -> bool:
        """Whether ``left`` matches the left block, ``right`` the right one, and they join."""
        return not self._values_of(sid, "left", left).isdisjoint(
            self._values_of(sid, "right", right)
        )

    def _values_of(self, sid: str, side: str, document: XmlDocument) -> frozenset:
        """The predicate string values under each binding of one block in ``document``."""
        key = (sid, side, document.docid)
        if key not in self._values:
            query = self.queries[sid]
            block = getattr(query, side)
            variables = [getattr(p, f"{side}_var") for p in query.join.predicates]
            bindings = ()
            if block.stream == document.stream:
                document_node = SimpleNamespace(children=[document.root])
                bindings = _bindings(block.pattern.root, document_node)
            self._values[key] = frozenset(
                tuple(binding[v].string_value() for v in variables) for binding in bindings
            )
        return self._values[key]
