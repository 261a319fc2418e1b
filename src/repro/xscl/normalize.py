"""Query normalization: value-join normal form and canonical variable names.

The Join Processor relies on two assumptions stated in Section 2 of the
paper (both without loss of generality, achievable by rewriting at query
insertion time):

1. *Value-join normal form* — the FOLLOWED BY / JOIN predicate is a
   conjunction of equality comparisons between one variable of the left
   block and one variable of the right block.
2. *Canonical variables* — two variables with exactly the same definition
   (same stream, same absolute path) carry the same name, in the same query
   or across queries.  This is what lets witness relations be shared.

:class:`VariableCatalog` implements assumption 2; the check/rewrite helpers
implement assumption 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.xscl.ast import JoinSpec, QueryBlock, ValueJoinPredicate, XsclQuery
from repro.xscl.errors import XsclSemanticsError


@dataclass
class VariableCatalog:
    """Maps variable *definitions* to canonical variable names.

    A definition is ``(stream, absolute path)``.  The first name registered
    for a definition becomes the canonical one; later variables with the
    same definition are renamed to it.
    """

    _by_definition: dict[tuple[str, str], str] = field(default_factory=dict)
    _definitions: dict[str, tuple[str, str]] = field(default_factory=dict)

    def canonical_name(self, definition: tuple[str, str], preferred: str) -> str:
        """Return the canonical variable name for ``definition``.

        Registers ``preferred`` as the canonical name when the definition is
        new.  If ``preferred`` is already in use for a *different*
        definition, a fresh derived name is generated instead.
        """
        existing = self._by_definition.get(definition)
        if existing is not None:
            return existing
        name = preferred
        suffix = 1
        while name in self._definitions and self._definitions[name] != definition:
            suffix += 1
            name = f"{preferred}_{suffix}"
        self._by_definition[definition] = name
        self._definitions[name] = definition
        return name

    def definition_of(self, name: str) -> Optional[tuple[str, str]]:
        """The definition registered under a canonical name, if any."""
        return self._definitions.get(name)

    def __len__(self) -> int:
        """Number of canonical names: a watermark for persisting :meth:`entries`."""
        return len(self._by_definition)

    def entries(self, start: int = 0) -> list[tuple[str, str, str]]:
        """Registrations as ``(name, stream, path)``, in registration order.

        The persistence view: canonical names are assigned in registration
        order (collisions get ``_2``-style suffixes), so the order is part
        of the catalog's identity and must survive externalization.
        ``start`` skips the first registrations (those already persisted).
        """
        return [
            (name, stream, path)
            for (stream, path), name in itertools.islice(
                self._by_definition.items(), start, None
            )
        ]

    def restore(self, entries: "list[tuple[str, str, str]]") -> None:
        """Re-register persisted ``(name, stream, path)`` entries verbatim.

        Used by crash recovery *before* any query is (re-)canonicalized:
        replaying only the surviving subscriptions would re-derive names in
        a different registration order than the crashed session, and the
        names frozen into the persisted join-state rows would no longer
        resolve.  Restoring the catalog verbatim pins every name first.
        """
        for name, stream, path in entries:
            self._by_definition[(stream, path)] = name
            self._definitions[name] = (stream, path)


def check_value_join_normal_form(query: XsclQuery) -> None:
    """Validate (and minimally repair in-place is *not* done here) normal form.

    Raises :class:`XsclSemanticsError` when a predicate variable is not
    bound, or when both variables of a predicate come from the same block.
    """
    if not query.is_join_query:
        return
    left_vars = set(query.left.variables())
    right_vars = set(query.right.variables())
    for pred in query.join.predicates:
        in_left = pred.left_var in left_vars
        in_right = pred.right_var in right_vars
        swapped = pred.left_var in right_vars and pred.right_var in left_vars
        if not (in_left and in_right) and not swapped:
            raise XsclSemanticsError(
                f"predicate {pred} is not a value join between the two query blocks "
                f"(left block binds {sorted(left_vars)}, right block binds {sorted(right_vars)})"
            )


def to_value_join_normal_form(query: XsclQuery) -> XsclQuery:
    """Return an equivalent query whose predicates all read ``left = right``.

    Predicates written "backwards" (right-block variable first) are swapped.
    For self-joins where a variable name is bound in *both* blocks the
    original orientation is kept.
    """
    if not query.is_join_query:
        return query
    left_vars = set(query.left.variables())
    right_vars = set(query.right.variables())
    fixed: list[ValueJoinPredicate] = []
    for pred in query.join.predicates:
        lv, rv = pred.left_var, pred.right_var
        if lv in left_vars and rv in right_vars:
            fixed.append(pred)
        elif lv in right_vars and rv in left_vars:
            fixed.append(ValueJoinPredicate(rv, lv))
        else:
            raise XsclSemanticsError(
                f"predicate {pred} refers to variables not bound by the query blocks"
            )
    new_join = JoinSpec(
        operator=query.join.operator,
        predicates=tuple(fixed),
        window=query.join.window,
    )
    out = XsclQuery(
        left=query.left,
        right=query.right,
        join=new_join,
        select=query.select,
        publish=query.publish,
        name=query.name,
        text=query.text,
    )
    return out


def canonicalize_query(query: XsclQuery, catalog: VariableCatalog) -> XsclQuery:
    """Rename the query's variables to their canonical (definition-based) names.

    Two variables — in this query or any previously canonicalized one — that
    share a definition end up with the same name, enabling witness sharing
    across queries (paper Section 2, third assumption).
    """
    mapping: dict[str, str] = {}
    for block in (query.left, query.right):
        if block is None:
            continue
        for var in block.variables():
            definition = block.pattern.definition_key(var)
            canonical = catalog.canonical_name(definition, var)
            existing = mapping.get(var)
            if existing is not None and existing != canonical:
                # The same surface name is used for two different definitions
                # within one query (e.g. x5 and x5' collapsing); keep both by
                # letting the later one win only for its own block.  This is
                # resolved by renaming per-block below.
                raise XsclSemanticsError(
                    f"variable {var!r} is bound to two different definitions in one query; "
                    "rename one of the occurrences"
                )
            mapping[var] = canonical
    renamed = query.rename_variables(mapping)
    check_value_join_normal_form(renamed)
    return to_value_join_normal_form(renamed)
