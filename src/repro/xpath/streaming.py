"""Streaming Stage 1: witnesses straight from the text scan.

The tree evaluation path parses a published document into an
:class:`~repro.xmlmodel.node.XmlNode` tree and then walks it twice (NFA
matching, then per-edge relative-path evaluation plus string-value
extraction).  This module produces the same witness sets in a *single*
pass over the raw text, without ever materializing nodes: the scanner's
``start``/``text``/``end`` events drive

* the shared per-stream :class:`~repro.xpath.nfa.PathNFA` (one stack of
  active state sets, exactly :meth:`PathNFA._advance` semantics);
* one small *edge run* per (structural edge, ancestor binding): a linear
  state chain over the edge's relative steps, started when the ancestor
  variable binds and torn down when its element closes.  A run reaching
  its accept state at a node's start event yields the same
  ``(ancestor, descendant)`` pair :func:`~repro.xpath.ast.evaluate_relative`
  would find on the tree;
* string-value capture: per-element direct text is finalized at the end
  event, and while any bound node's element is open every finalized
  ``(pre_id, text)`` is retained, so a bound node's XPath string value is
  re-assembled in pre-order at its end event — byte-identical to
  :meth:`XmlNode.string_value`;
* tag projection: a run of leaves whose tags no NFA transition or edge
  program tests arrives as one ``leaves`` event, which only advances
  pre-order ids and, under an open capture, finalizes each leaf's text
  (off while any test is ``*``).

Pre-order ids are start-event counts, so all node ids agree with the tree
path's :meth:`XmlDocument._assign_ids`.  Equivalence across randomized
documents is asserted by property tests.
"""

from __future__ import annotations

from typing import Optional

from repro.xmlmodel.stream import (
    _LEAF_TEXT_RE,
    _unescape,
    leaf_run_pattern,
    scan_text,
    validate_text,
)
from repro.xpath.ast import Axis, LocationPath
from repro.xpath.nfa import PathNFA


class _EdgeProgram:
    """One structural edge compiled to a linear state chain.

    State ``s`` (0-based) consumes ``tests[s]``; ``has_desc[s]`` keeps the
    state live for deeper levels (the carry rule of descendant steps);
    state ``len(tests)`` accepts.
    """

    __slots__ = ("key", "tests", "has_desc", "accept")

    def __init__(self, key: tuple[str, str], path: LocationPath):
        self.key = key
        self.tests = tuple(step.test for step in path.steps)
        self.has_desc = tuple(step.axis is Axis.DESCENDANT for step in path.steps)
        self.accept = len(self.tests)


class StreamMatcher:
    """The compiled streaming form of one stream's Stage-1 registrations.

    Built (and cached) by :meth:`XPathEvaluator.evaluate_text`; rebuilt
    after a variable of the stream, or an edge from one, is added or
    removed.  ``leaf_run`` is the scanner's leaf-run pattern for the
    matcher's alphabet (every tag an NFA transition or an edge program
    tests), or ``None`` when one of those tests is ``*``.
    """

    __slots__ = ("transitions", "accepting", "has_desc", "edges_by_anc", "leaf_run")

    def __init__(
        self,
        nfa: PathNFA,
        edges: dict[tuple[str, str], LocationPath],
        stream_variables: set[str],
    ):
        self.transitions = nfa._transitions
        self.has_desc = nfa._has_descendant_out
        self.accepting = {
            state: tuple(keys) for state, keys in nfa._accepting.items() if keys
        }
        by_anc: dict[str, list[_EdgeProgram]] = {}
        for key, path in edges.items():
            if key[0] in stream_variables:
                by_anc.setdefault(key[0], []).append(_EdgeProgram(key, path))
        self.edges_by_anc = by_anc
        alphabet = {test for moves in self.transitions for _axis, test in moves}
        for programs in by_anc.values():
            for program in programs:
                alphabet.update(program.tests)
        self.leaf_run = None if "*" in alphabet else leaf_run_pattern(frozenset(alphabet))


class WitnessBuilder:
    """Scan-event handler accumulating witness sets for one document."""

    __slots__ = (
        "matcher",
        "var_nodes",
        "raw_pairs",
        "node_values",
        "_pre",
        "_active_stack",
        "_runs",
        "_frames",
        "_parts",
        "_finalized",
        "_capture_start",
        "_open_captures",
    )

    def __init__(self, matcher: StreamMatcher):
        self.matcher = matcher
        self.var_nodes: dict[str, set[int]] = {}
        self.raw_pairs: dict[tuple[str, str], set[tuple[int, int]]] = {}
        self.node_values: dict[int, str] = {}
        self._pre = 0
        self._active_stack: list[set[int]] = [{0}]
        # live edge runs: [program, anchor pre id, stack of active state sets]
        self._runs: list[tuple[_EdgeProgram, int, list[set[int]]]] = []
        # per open element: (pre id, run-count at entry, is a capture node)
        self._frames: list[tuple[int, int, bool]] = []
        self._parts: list[list[str]] = []
        # (pre id, finalized text) of every element closed while a capture
        # is open; a capture node re-assembles its subtree slice at its end.
        self._finalized: list[tuple[int, Optional[str]]] = []
        self._capture_start: dict[int, int] = {}
        self._open_captures = 0

    # ------------------------------------------------------------------ #
    # scan events
    # ------------------------------------------------------------------ #
    def start(self, tag: str, attributes: dict[str, str]) -> None:
        matcher = self.matcher
        pre = self._pre
        self._pre = pre + 1

        # Main NFA step (PathNFA._advance semantics).
        transitions = matcher.transitions
        has_desc = matcher.has_desc
        reached: set[int] = set()
        child_active: set[int] = set()
        for state in self._active_stack[-1]:
            if has_desc[state]:
                child_active.add(state)
            for (_axis, test), nxt in transitions[state].items():
                if test == "*" or test == tag:
                    reached.add(nxt)
        child_active |= reached
        self._active_stack.append(child_active)

        bound_here: list[str] = []
        if reached:
            accepting = matcher.accepting
            for state in reached:
                keys = accepting.get(state)
                if keys:
                    for var in keys:
                        nodes = self.var_nodes.get(var)
                        if nodes is None:
                            self.var_nodes[var] = {pre}
                        else:
                            nodes.add(pre)
                        bound_here.append(var)
        capture = bool(bound_here)

        # Advance live edge runs (anchored at proper ancestors) before
        # creating runs anchored here — a run never matches its own anchor.
        runs = self._runs
        runs_at_entry = len(runs)
        for program, anchor, stack in runs:
            tests = program.tests
            run_desc = program.has_desc
            accept = program.accept
            nxt_active: set[int] = set()
            matched = False
            for state in stack[-1]:
                if run_desc[state]:
                    nxt_active.add(state)
                test = tests[state]
                if test == "*" or test == tag:
                    advanced = state + 1
                    if advanced == accept:
                        matched = True
                    else:
                        nxt_active.add(advanced)
            stack.append(nxt_active)
            if matched:
                pairs = self.raw_pairs.get(program.key)
                if pairs is None:
                    self.raw_pairs[program.key] = {(anchor, pre)}
                else:
                    pairs.add((anchor, pre))
                capture = True

        edges_by_anc = matcher.edges_by_anc
        if edges_by_anc:
            for var in bound_here:
                programs = edges_by_anc.get(var)
                if programs:
                    for program in programs:
                        runs.append((program, pre, [{0}]))

        if capture:
            self._capture_start[pre] = len(self._finalized)
            self._open_captures += 1
        self._frames.append((pre, runs_at_entry, capture))
        self._parts.append([])

    def text(self, data: str) -> None:
        self._parts[-1].append(data)

    def leaves(self, text: str, start: int, end: int, entities: dict[str, str]) -> None:
        """A run of leaves no test names: what their start/text/end events would do.

        None binds, advances an edge run or opens a capture.  Without an open
        capture nothing reads the leaves' or the parent's text (a capture
        that could would have opened at the parent or above, before the run).
        """
        if not self._open_captures:
            self._pre += text.count("</", start, end)
            return
        found = _LEAF_TEXT_RE.findall(text, start, end)
        spaces = "".join(found[1::2])
        if spaces:
            self._parts[-1].append(spaces)
        raw = found[::2]
        if text.find("&", start, end) >= 0:
            raw = [_unescape(part, entities) for part in raw]
        pre = self._pre
        self._pre = pre + len(raw)
        self._finalized.extend(
            zip(range(pre, pre + len(raw)), [part.strip() or None for part in raw])
        )

    def end(self) -> None:
        pre, runs_at_entry, capture = self._frames.pop()
        text = "".join(self._parts.pop()).strip() or None
        self._active_stack.pop()
        runs = self._runs
        del runs[runs_at_entry:]  # runs anchored at this element die with it
        for run in runs:
            run[2].pop()
        if self._open_captures:
            self._finalized.append((pre, text))
            if capture:
                start = self._capture_start.pop(pre)
                self.node_values[pre] = "".join(
                    [part for _, part in sorted(self._finalized[start:]) if part]
                )
                self._open_captures -= 1
                if not self._open_captures:
                    self._finalized.clear()

    # ------------------------------------------------------------------ #
    # finalization
    # ------------------------------------------------------------------ #
    def witness_sets(
        self,
    ) -> tuple[
        dict[str, set[int]],
        dict[tuple[str, str], set[tuple[int, int]]],
        dict[int, str],
    ]:
        """The (var_nodes, edge_pairs, node_values) sets of the scanned document.

        Applies the same descendant-binding filter as the tree path and
        restricts node values to nodes that end up bound.
        """
        var_nodes = self.var_nodes
        edge_pairs: dict[tuple[str, str], set[tuple[int, int]]] = {}
        for key, raw in self.raw_pairs.items():
            desc_bound = var_nodes.get(key[1])
            if desc_bound:
                pairs = {pair for pair in raw if pair[1] in desc_bound}
            else:
                pairs = raw
            if pairs:
                edge_pairs[key] = pairs
        bound: set[int] = set()
        for nodes in var_nodes.values():
            bound.update(nodes)
        for pairs in edge_pairs.values():
            for ancestor_id, descendant_id in pairs:
                bound.add(ancestor_id)
                bound.add(descendant_id)
        values = self.node_values
        return var_nodes, edge_pairs, {node_id: values[node_id] for node_id in bound}


def scan_witness_sets(
    text: str, matcher: Optional[StreamMatcher]
) -> tuple[
    dict[str, set[int]],
    dict[tuple[str, str], set[tuple[int, int]]],
    dict[int, str],
]:
    """Scan ``text`` once and return its witness sets under ``matcher``.

    ``matcher=None`` (no registrations on the stream) still scans the full
    text, so malformed input raises exactly as the tree path would.
    """
    if matcher is None:
        validate_text(text)
        return {}, {}, {}
    builder = WitnessBuilder(matcher)
    scan_text(text, builder, matcher.leaf_run)
    return builder.witness_sets()
