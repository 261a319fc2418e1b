"""Catalogs of named relations.

The MMQJP join state (``Rbin``, ``Rdoc``, ``RdocTS``) and the per-template
relations (``RT``) live in a :class:`Database`, mirroring how the paper keeps
them as SQL Server tables.  :class:`IndexedDatabase` is the evaluation
environment of the incremental join pipeline: a mapping from relation names
to relations that additionally resolves an atom's join-key columns against
persistent, incrementally maintained hash indexes.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence

from repro.relational.index import HashIndex
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
    """An evaluation environment with persistent per-relation hash indexes.

    Looks like a mapping from relation names to :class:`Relation` (so
    :func:`~repro.relational.conjunctive.evaluate_conjunctive` accepts it
    directly) and additionally answers :meth:`index_for`, which the
    evaluator calls to resolve an atom's join-key columns:

    * Relations bound as **indexed** (the long-lived join state and the
      per-template ``RT`` relations) answer with a live
      :class:`~repro.relational.index.HashIndex`, built and memoized once
      per (relation, key columns) and updated inline on every insert and
      prune.
    * Relations bound as **ephemeral** (the current document's witnesses and
      the per-document materialized views) answer ``None``, making the
      evaluator fall back to its per-call hashing.

    With ``columnar=True`` the environment owns one shared
    :class:`~repro.relational.columnar.ValueDictionary` and every bound
    relation gets a columnar sidecar interning through it (one id space, so
    cross-relation joins compare ids directly); the vectorized fast paths
    in the plan executor and the delta-reduction passes detect the
    dictionary via :attr:`columnar_dictionary` and fall back to the row
    path wherever a sidecar is unavailable.
    """

    def __init__(self, columnar: bool = False, dictionary=None):
        if columnar:
            from repro.relational.columnar import ValueDictionary

            self.columnar_dictionary = (
                dictionary if dictionary is not None else ValueDictionary()
            )
        else:
            self.columnar_dictionary = None
        self._relations: dict[str, Relation] = {}
        self._stable: set[str] = set()
        #: Compiled-plan executions that left the vectorized path for the
        #: row path (a sidecar or a packed probe key was unavailable).
        self.execute_fallbacks = 0

    @property
    def columnar(self) -> bool:
        """Whether this environment interns values for columnar evaluation."""
        return self.columnar_dictionary is not None

    # ------------------------------------------------------------------ #
    # binding
    # ------------------------------------------------------------------ #
    def bind(self, name: str, relation: Relation, indexed: bool = False) -> Relation:
        """Bind ``relation`` under ``name`` (replacing any previous binding).

        With ``indexed=True`` the relation's join keys are served from
        persistent indexes and it is remembered as **stable**: long-lived
        and mutating incrementally, so compiled query plans may key their
        stats epoch on it — as opposed to the ephemeral per-document
        bindings.
        """
        self._relations[name] = relation
        if self.columnar_dictionary is not None:
            relation.enable_columnar(self.columnar_dictionary)
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
        """Whether ``name`` is a long-lived (state/``RT``) binding, served from indexes.

        Compiled plans track their stats epoch over stable relations only;
        ephemeral per-document bindings (witnesses, materialized views) must
        not invalidate a plan just because a new document arrived.
        """
        return name in self._stable

    def columnar_counters(self) -> dict[str, int]:
        """Column-store sync counters summed over the stable relations.

        What keeping the long-lived state and ``RT`` sidecars current has
        cost (:attr:`ColumnStore.COUNTERS
        <repro.relational.columnar.ColumnStore.COUNTERS>`), plus this
        environment's ``execute_fallbacks``; all zero with ``columnar``
        off.  Per-document ephemeral relations are encoded once and
        discarded, so they are not counted.
        """
        from repro.relational.columnar import ColumnStore

        totals = dict.fromkeys(ColumnStore.COUNTERS, 0)
        for name in self._stable:
            store = self._relations[name]._colstore
            if store is not None:
                for counter in totals:
                    totals[counter] += getattr(store, counter)
        totals["execute_fallbacks"] = self.execute_fallbacks
        return totals

    # ------------------------------------------------------------------ #
    # index resolution
    # ------------------------------------------------------------------ #
    def index_for(self, name: str, key_columns: Sequence) -> Optional[HashIndex]:
        """A live index on ``key_columns`` of relation ``name``, or ``None``.

        ``None`` (unknown or ephemeral relation) tells the evaluator to
        hash the relation per call instead.
        """
        if name not in self._stable:
            return None
        return self._relations[name].index_on(key_columns)
