"""Catalogs of named relations.

The MMQJP join state (``Rbin``, ``Rdoc``, ``RdocTS``) and the per-template
relations (``RT``) live in a :class:`Database`, mirroring how the paper keeps
them as SQL Server tables.  :class:`IndexedDatabase` is the evaluation
environment of the incremental join pipeline: a mapping from relation names
to relations whose values it interns into one id space.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence

from repro.relational.columnar import ColumnStore, ValueDictionary
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema, SchemaError


class Database:
    """A named collection of relations."""

    def __init__(self) -> None:
        self._relations: dict[str, Relation] = {}

    def create(self, name: str, schema: RelationSchema | Sequence[str]) -> Relation:
        """Create an empty relation called ``name``; error if it already exists."""
        if name in self._relations:
            raise SchemaError(f"relation {name!r} already exists")
        rel = Relation(schema, name=name)
        self._relations[name] = rel
        return rel

    def create_or_replace(self, name: str, relation: Relation) -> Relation:
        """Register ``relation`` under ``name``, replacing any existing one."""
        relation.name = name
        self._relations[name] = relation
        return relation

    def get(self, name: str) -> Relation:
        """Return the relation called ``name`` (KeyError-style SchemaError if missing)."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def drop(self, name: str) -> None:
        """Remove the relation called ``name`` if present."""
        self._relations.pop(name, None)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def names(self) -> list[str]:
        """All registered relation names."""
        return list(self._relations)

    def total_rows(self) -> int:
        """Total number of stored rows across all relations (for stats/tests)."""
        return sum(len(r) for r in self._relations.values())


class IndexedDatabase:
    """The evaluation environment of the compiled plans and the delta pass.

    Looks like a mapping from relation names to :class:`Relation` (so
    :func:`~repro.relational.conjunctive.evaluate_conjunctive` accepts it
    directly).  The environment owns one
    :class:`~repro.relational.columnar.ValueDictionary`, and every bound
    relation gets a column store interning through it — one id space, so
    cross-relation joins compare ids directly.  The plan executor and the
    delta-reduction pass read relations only through those id columns.

    * Relations bound as **indexed** (the long-lived join state and the
      per-template ``RT`` relations) are *stable*: their stores follow the
      relation incrementally and keep their memoized group indexes across
      documents, and compiled plans key their stats epoch on them.
    * Relations bound as **ephemeral** (the current document's witnesses and
      the per-document materialized views) are encoded once per document.
    """

    def __init__(self) -> None:
        self.dictionary = ValueDictionary()
        self._relations: dict[str, Relation] = {}
        self._stable: set[str] = set()

    # ------------------------------------------------------------------ #
    # binding
    # ------------------------------------------------------------------ #
    def bind(self, name: str, relation: Relation, indexed: bool = False) -> Relation:
        """Bind ``relation`` under ``name`` (replacing any previous binding).

        With ``indexed=True`` it is remembered as **stable**: long-lived
        and mutating incrementally, so compiled query plans may key their
        stats epoch on it — as opposed to the ephemeral per-document
        bindings.
        """
        self._relations[name] = relation
        relation.enable_columnar(self.dictionary)
        if indexed:
            self._stable.add(name)
        else:
            self._stable.discard(name)
        return relation

    def bind_all(self, relations: Mapping[str, Relation], indexed: bool = False) -> None:
        """Bind many relations at once."""
        for name, relation in relations.items():
            self.bind(name, relation, indexed=indexed)

    def unbind(self, name: str) -> None:
        """Remove a binding if present."""
        self._relations.pop(name, None)
        self._stable.discard(name)

    # ------------------------------------------------------------------ #
    # mapping protocol (what the evaluator needs)
    # ------------------------------------------------------------------ #
    def get(self, name: str, default: Optional[Relation] = None) -> Optional[Relation]:
        """Return the relation bound under ``name`` (or ``default``)."""
        return self._relations.get(name, default)

    def __getitem__(self, name: str) -> Relation:
        return self._relations[name]

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    def names(self) -> list[str]:
        """All bound relation names."""
        return list(self._relations)

    def is_stable(self, name: str) -> bool:
        """Whether ``name`` is a long-lived (state/``RT``) binding.

        Compiled plans track their stats epoch over stable relations only;
        ephemeral per-document bindings (witnesses, materialized views) must
        not invalidate a plan just because a new document arrived.
        """
        return name in self._stable

    def columnar_counters(self) -> dict[str, int]:
        """Column-store sync counters summed over the stable relations.

        What keeping the long-lived state and ``RT`` column stores current
        has cost (:attr:`ColumnStore.COUNTERS
        <repro.relational.columnar.ColumnStore.COUNTERS>`).  Per-document
        ephemeral relations are encoded once and discarded, so they are not
        counted.
        """
        totals = dict.fromkeys(ColumnStore.COUNTERS, 0)
        for name in self._stable:
            store = self._relations[name]._colstore
            for counter in totals:
                totals[counter] += getattr(store, counter)
        return totals
