"""AST for XSCL queries.

An XSCL query has three clauses — SELECT, FROM, PUBLISH — of which the FROM
clause carries the join structure: two XPath *query blocks* connected by a
``JOIN`` or ``FOLLOWED BY`` operator with an equality predicate and a time
window (paper Section 2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.xpath.pattern import PatternNode, VariableTreePattern

#: Window constant meaning "no time constraint" (the RSS experiment of
#: Section 6.3 assigns a window of infinity to every query).
INFINITE_WINDOW = float("inf")


class JoinOperator(enum.Enum):
    """The two XSCL join operators."""

    #: Symmetric time-window join: events within ``window`` of each other.
    JOIN = "JOIN"
    #: Sequencing operator: the left event must precede the right event.
    FOLLOWED_BY = "FOLLOWED BY"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class ValueJoinPredicate:
    """A single equality predicate ``left_var = right_var``.

    ``left_var`` is bound in the left query block and ``right_var`` in the
    right query block (value-join normal form).  Equality is on XPath string
    values.
    """

    left_var: str
    right_var: str

    def __str__(self) -> str:
        return f"{self.left_var}={self.right_var}"


@dataclass(frozen=True)
class JoinSpec:
    """The parameters of a JOIN / FOLLOWED BY operator."""

    operator: JoinOperator
    predicates: tuple[ValueJoinPredicate, ...]
    window: float

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ValueError("window length must be non-negative")
        if not self.predicates:
            raise ValueError("a join operator needs at least one value-join predicate")

    def __str__(self) -> str:
        preds = " AND ".join(str(p) for p in self.predicates)
        window = "INF" if self.window == INFINITE_WINDOW else str(self.window)
        return f"{self.operator.value}{{{preds}, {window}}}"


@dataclass
class QueryBlock:
    """One XPath query block of the FROM clause.

    A query block is a stream name plus a variable tree pattern; it matches
    single documents on that stream.
    """

    pattern: VariableTreePattern

    @property
    def stream(self) -> str:
        """The stream the block reads from."""
        return self.pattern.stream

    def variables(self) -> list[str]:
        """Variables bound in this block."""
        return self.pattern.variables()

    @property
    def root_variable(self) -> Optional[str]:
        """The variable bound to the block's root pattern node (if any)."""
        return self.pattern.root.variable

    def __repr__(self) -> str:
        return f"QueryBlock({self.stream}: {self.variables()})"


@dataclass
class XsclQuery:
    """A complete XSCL query.

    Attributes
    ----------
    left, right:
        The two query blocks of the FROM clause.  ``right`` is ``None`` for
        simple single-block (filter) queries such as ``SELECT * FROM blog``.
    join:
        The join operator specification; ``None`` for single-block queries.
    select:
        The SELECT clause text; ``"*"`` (the default) produces the paper's
        default output construction.
    publish:
        Optional name of the query's output stream (PUBLISH clause).
    name:
        Optional user-facing query name; engines assign the definitive query
        id at registration.
    text:
        The original query text when parsed from a string.
    """

    left: QueryBlock
    right: Optional[QueryBlock] = None
    join: Optional[JoinSpec] = None
    select: str = "*"
    publish: Optional[str] = None
    name: Optional[str] = None
    text: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.right is None) != (self.join is None):
            raise ValueError("a join spec requires a right block, and vice versa")

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def is_join_query(self) -> bool:
        """True for inter-document queries (two blocks and a join operator)."""
        return self.join is not None

    def all_variables(self) -> list[str]:
        """Variables bound in both blocks (duplicates removed, order preserved)."""
        out: list[str] = []
        seen: set[str] = set()
        for block in (self.left, self.right):
            if block is None:
                continue
            for var in block.variables():
                if var not in seen:
                    seen.add(var)
                    out.append(var)
        return out

    def left_join_variables(self) -> list[str]:
        """Left-block variables appearing in the join predicate, in predicate order."""
        if self.join is None:
            return []
        out = []
        for pred in self.join.predicates:
            if pred.left_var not in out:
                out.append(pred.left_var)
        return out

    def right_join_variables(self) -> list[str]:
        """Right-block variables appearing in the join predicate, in predicate order."""
        if self.join is None:
            return []
        out = []
        for pred in self.join.predicates:
            if pred.right_var not in out:
                out.append(pred.right_var)
        return out

    def rename_variables(self, mapping: dict[str, str]) -> "XsclQuery":
        """Return a copy of the query with variables renamed per ``mapping``.

        Variables not present in ``mapping`` keep their names.  Used by the
        canonicalization step (:mod:`repro.xscl.normalize`) on every
        subscribe, so the pattern copy is structural: fresh
        :class:`~repro.xpath.pattern.PatternNode` objects (the mutable
        layer) sharing the frozen :class:`~repro.xpath.ast.LocationPath`
        objects, instead of a ``copy.deepcopy`` that clones every step and
        node test of every path.
        """

        def copy_node(node: PatternNode) -> PatternNode:
            variable = node.variable
            if variable is not None:
                variable = mapping.get(variable, variable)
            return PatternNode(
                variable, node.path, [copy_node(child) for child in node.children]
            )

        def rename_block(block: Optional[QueryBlock]) -> Optional[QueryBlock]:
            if block is None:
                return None
            pattern = block.pattern
            return QueryBlock(
                pattern=VariableTreePattern(
                    root=copy_node(pattern.root), stream=pattern.stream
                )
            )

        new_join = None
        if self.join is not None:
            new_join = JoinSpec(
                operator=self.join.operator,
                predicates=tuple(
                    ValueJoinPredicate(
                        mapping.get(p.left_var, p.left_var),
                        mapping.get(p.right_var, p.right_var),
                    )
                    for p in self.join.predicates
                ),
                window=self.join.window,
            )
        return replace(
            self,
            left=rename_block(self.left),
            right=rename_block(self.right),
            join=new_join,
        )

    def __repr__(self) -> str:
        if self.join is None:
            return f"<XsclQuery {self.name or ''} single-block {self.left!r}>"
        return (
            f"<XsclQuery {self.name or ''} {self.left!r} "
            f"{self.join.operator.value} {self.right!r} "
            f"({len(self.join.predicates)} value joins, window={self.join.window})>"
        )

