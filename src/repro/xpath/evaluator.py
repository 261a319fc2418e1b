"""The Stage 1 evaluator: from documents to witnesses.

The evaluator maintains, across *all* registered queries:

* one shared :class:`~repro.xpath.nfa.PathNFA` per input stream, holding the
  absolute path of every (canonical) variable, and
* the set of *edge requests* — pairs of variables (ancestor, descendant)
  whose joint bindings the Join Processor needs (these are exactly the
  structural edges of the reduced query templates, Section 4.2).

For each incoming document it produces a :class:`DocumentWitnesses` object:
variable bindings (→ ``RvarW``), structural-edge bindings (→ ``RbinW``) and
node string values (→ ``RdocW``), plus the document id and timestamp
(→ ``RdocTSW``).  Documents arrive as text and are scanned once
(:meth:`XPathEvaluator.evaluate_text`); the tree walk
(:meth:`XPathEvaluator.evaluate`) is the reference the scan is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.xmlmodel.document import XmlDocument
from repro.xpath.ast import LocationPath, evaluate_relative
from repro.xpath.nfa import PathNFA
from repro.xpath.pattern import VariableTreePattern
from repro.xpath.streaming import StreamMatcher, scan_witness_sets


@dataclass
class DocumentWitnesses:
    """Witnesses produced by Stage 1 for a single document.

    Attributes
    ----------
    docid, timestamp:
        Identity of the document (the single ``RdocTSW`` tuple).
    var_nodes:
        ``variable -> set of node ids`` bound to it (``RvarW``).
    edge_pairs:
        ``(ancestor var, descendant var) -> set of (ancestor node, descendant node)``
        pairs (``RbinW``).
    node_values:
        ``node id -> XPath string value`` for every bound node (``RdocW``).
    """

    docid: str
    timestamp: float
    var_nodes: dict[str, set[int]] = field(default_factory=dict)
    edge_pairs: dict[tuple[str, str], set[tuple[int, int]]] = field(default_factory=dict)
    node_values: dict[int, str] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        """True when no registered variable matched the document."""
        return not self.var_nodes

    def bound_variables(self) -> set[str]:
        """The variables that have at least one binding in this document."""
        return {v for v, nodes in self.var_nodes.items() if nodes}


class VariableConflictError(ValueError):
    """Raised when one variable name is registered with two different definitions."""


class Stage1Registrations:
    """Reference-counted bookkeeping of a consumer's evaluator registrations.

    Both the engines (one record per query id, plus its ``::swap`` twin for
    symmetric JOINs) and the brokers' filter front end (one record per
    filter subscription) register shared variables/edges with an
    :class:`XPathEvaluator`.  This helper remembers, per caller-chosen key,
    what was registered, and on :meth:`withdraw` returns exactly the
    variables and edges whose *last* user is gone — the arguments for
    :meth:`XPathEvaluator.deregister`.
    """

    def __init__(self) -> None:
        # key -> (variables, edges) registered under it
        self._by_key: dict[object, tuple[tuple[str, ...], tuple[tuple[str, str], ...]]] = {}
        self._var_refs: dict[str, int] = {}
        self._edge_refs: dict[tuple[str, str], int] = {}

    def record(
        self,
        key: object,
        variables: Iterable[str],
        edges: Iterable[tuple[str, str]],
    ) -> None:
        """Remember (and refcount) one key's registrations."""
        variables = tuple(variables)
        edges = tuple(edges)
        self._by_key[key] = (variables, edges)
        for var in variables:
            self._var_refs[var] = self._var_refs.get(var, 0) + 1
        for edge in edges:
            self._edge_refs[edge] = self._edge_refs.get(edge, 0) + 1

    def withdraw(self, key: object) -> tuple[set[str], set[tuple[str, str]]]:
        """Release one key's registrations; returns (dead vars, dead edges).

        Unknown keys return empty sets (nothing was recorded for them).
        """
        dead_vars: set[str] = set()
        dead_edges: set[tuple[str, str]] = set()
        registrations = self._by_key.pop(key, None)
        if registrations is None:
            return dead_vars, dead_edges
        for var in registrations[0]:
            remaining = self._var_refs[var] - 1
            if remaining:
                self._var_refs[var] = remaining
            else:
                del self._var_refs[var]
                dead_vars.add(var)
        for edge in registrations[1]:
            remaining = self._edge_refs[edge] - 1
            if remaining:
                self._edge_refs[edge] = remaining
            else:
                del self._edge_refs[edge]
                dead_edges.add(edge)
        return dead_vars, dead_edges


class XPathEvaluator:
    """Shared Stage 1 evaluator for all registered query blocks."""

    def __init__(self) -> None:
        self._nfas: dict[str, PathNFA] = {}
        # variable -> (stream, absolute path)
        self._variables: dict[str, tuple[str, LocationPath]] = {}
        # (ancestor var, descendant var) -> relative path between them
        self._edges: dict[tuple[str, str], LocationPath] = {}
        # stream -> compiled streaming matcher (None = no registrations);
        # an entry is dropped when a variable of its stream, or an edge from
        # one, is added or removed
        self._stream_matchers: dict[str, Optional[StreamMatcher]] = {}

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register_variable(self, variable: str, stream: str, absolute_path: LocationPath) -> None:
        """Register a variable with its defining absolute path on ``stream``."""
        if not absolute_path.absolute:
            raise ValueError(f"variable {variable!r} needs an absolute defining path")
        existing = self._variables.get(variable)
        if existing is not None:
            if existing[0] != stream or existing[1] != absolute_path:
                raise VariableConflictError(
                    f"variable {variable!r} already registered with definition "
                    f"{existing[0]}:{existing[1]} (new: {stream}:{absolute_path})"
                )
            return
        self._variables[variable] = (stream, absolute_path)
        self._nfas.setdefault(stream, PathNFA()).add_path(variable, absolute_path)
        self._stream_matchers.pop(stream, None)

    def register_edge(
        self, ancestor_var: str, descendant_var: str, relative_path: LocationPath
    ) -> None:
        """Request (ancestor, descendant) edge witnesses for a variable pair."""
        if relative_path.absolute:
            raise ValueError("edge paths must be relative (from the ancestor's node)")
        key = (ancestor_var, descendant_var)
        existing = self._edges.get(key)
        if existing is not None:
            if existing != relative_path:
                raise VariableConflictError(
                    f"edge {key} already registered with path {existing} (new: {relative_path})"
                )
            return
        self._edges[key] = relative_path
        self._invalidate_edge_owner(ancestor_var)

    def register_pattern(
        self,
        pattern: VariableTreePattern,
        edges: Optional[list[tuple[str, str]]] = None,
    ) -> None:
        """Register every bound variable of ``pattern`` plus the requested edges.

        ``edges`` lists (ancestor var, descendant var) pairs; when omitted,
        every bound parent/child pair of the pattern is registered.
        """
        for var in pattern.variables():
            self.register_variable(var, pattern.stream, pattern.absolute_path_of(var))
        if edges is None:
            edges = []
            for var in pattern.variables():
                parent = pattern.parent_of(var)
                if parent is not None:
                    edges.append((parent, var))
        for ancestor, descendant in edges:
            self.register_edge(
                ancestor, descendant, pattern.relative_path_between(ancestor, descendant)
            )

    # ------------------------------------------------------------------ #
    # deregistration
    # ------------------------------------------------------------------ #
    def deregister(
        self,
        variables: "Iterable[str]" = (),
        edges: "Iterable[tuple[str, str]]" = (),
    ) -> None:
        """Retract variables and edge requests (subscription-cancellation path).

        The engines refcount their Stage 1 registrations per query and call
        this once per retraction with the variables/edges whose count
        reached zero, so shared registrations survive until their last
        query is gone.  Each affected stream's NFA is rebuilt once from the
        surviving variables (unknown names are tolerated); a stream with no
        remaining variables drops its NFA entirely, so future documents on
        it short-circuit in :meth:`evaluate_text`.  Only the streams touched
        lose their compiled streaming matchers.
        """
        for key in edges:
            if self._edges.pop(tuple(key), None) is not None:
                self._invalidate_edge_owner(key[0])
        streams: set[str] = set()
        for variable in variables:
            entry = self._variables.pop(variable, None)
            if entry is not None:
                streams.add(entry[0])
                self._stream_matchers.pop(entry[0], None)
        for stream in streams:
            nfa = PathNFA()
            remaining = False
            for variable, (var_stream, path) in self._variables.items():
                if var_stream == stream:
                    nfa.add_path(variable, path)
                    remaining = True
            if remaining:
                self._nfas[stream] = nfa
            else:
                self._nfas.pop(stream, None)

    def _invalidate_edge_owner(self, ancestor_var: str) -> None:
        """Drop the matcher of the stream an edge from ``ancestor_var`` belongs to.

        A stream's matcher compiles the edges whose ancestor is one of its
        variables; an edge from an unregistered variable is in none yet.
        """
        owner = self._variables.get(ancestor_var)
        if owner is not None:
            self._stream_matchers.pop(owner[0], None)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def variables(self) -> dict[str, tuple[str, LocationPath]]:
        """Registered variables with their (stream, absolute path) definitions."""
        return dict(self._variables)

    @property
    def edges(self) -> dict[tuple[str, str], LocationPath]:
        """Registered edge requests with their relative paths."""
        return dict(self._edges)

    def num_nfa_states(self) -> int:
        """Total NFA states across all streams (a measure of structural sharing)."""
        return sum(nfa.num_states for nfa in self._nfas.values())

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, document: XmlDocument) -> DocumentWitnesses:
        """Produce the witnesses of a document tree: the tree reference of Stage 1.

        Nothing at runtime calls this — every published document is scanned
        as text by :meth:`evaluate_text`.  It stays as the reference the
        witness-parity tests compare the scan against.
        """
        witnesses = DocumentWitnesses(docid=document.docid, timestamp=document.timestamp)
        nfa = self._nfas.get(document.stream)
        if nfa is None:
            return witnesses

        matches = nfa.match_document(document)
        for variable, node_ids in matches.items():
            if node_ids:
                witnesses.var_nodes[variable] = set(node_ids)

        # Structural-edge witnesses: anchor the relative path at every
        # binding of the ancestor variable.
        for (anc_var, desc_var), rel_path in self._edges.items():
            anc_nodes = witnesses.var_nodes.get(anc_var)
            if not anc_nodes:
                continue
            desc_bound = witnesses.var_nodes.get(desc_var, set())
            pairs: set[tuple[int, int]] = set()
            for anc_id in anc_nodes:
                anc_node = document.node(anc_id)
                for target in evaluate_relative(rel_path, anc_node):
                    if target.node_id in desc_bound or not desc_bound:
                        pairs.add((anc_id, target.node_id))
            if pairs:
                witnesses.edge_pairs[(anc_var, desc_var)] = pairs

        # String values for every bound node (RdocW never stores unbound nodes).
        bound_nodes: set[int] = set()
        for nodes in witnesses.var_nodes.values():
            bound_nodes.update(nodes)
        for pairs in witnesses.edge_pairs.values():
            for a, b in pairs:
                bound_nodes.add(a)
                bound_nodes.add(b)
        for node_id in bound_nodes:
            witnesses.node_values[node_id] = document.string_value(node_id)
        return witnesses

    def evaluate_text(
        self, text: str, docid: str, timestamp: float, stream: str = "S"
    ) -> DocumentWitnesses:
        """Produce the witnesses of a document given as raw XML text.

        The streaming counterpart of :meth:`evaluate`: one single pass over
        the text drives the shared NFA, edge matching and string-value
        capture directly (:mod:`repro.xpath.streaming`), without building a
        node tree.  This is the only Stage 1 path at runtime.  Witness sets
        are identical to parsing the text and calling :meth:`evaluate`;
        malformed input raises the same
        :class:`~repro.xmlmodel.parser.XmlParseError`.
        """
        try:
            matcher = self._stream_matchers[stream]
        except KeyError:
            nfa = self._nfas.get(stream)
            if nfa is None:
                matcher = None
            else:
                stream_variables = {
                    variable
                    for variable, (var_stream, _path) in self._variables.items()
                    if var_stream == stream
                }
                matcher = StreamMatcher(nfa, self._edges, stream_variables)
            self._stream_matchers[stream] = matcher
        var_nodes, edge_pairs, node_values = scan_witness_sets(text, matcher)
        witnesses = DocumentWitnesses(docid=docid, timestamp=timestamp)
        witnesses.var_nodes = var_nodes
        witnesses.edge_pairs = edge_pairs
        witnesses.node_values = node_values
        return witnesses
