"""Hash indexes over relations.

The view materialization of Section 5 (``RL`` slices keyed on string value,
and the witness lookups that build them) needs fast equality lookup on one
or more attributes of the join state; :class:`HashIndex` provides that.
Stage 2's compiled plans probe id columns instead
(:mod:`repro.relational.columnar`).

Indexes are **live** when obtained through
:meth:`~repro.relational.relation.Relation.index_on`: the owning relation
registers them and keeps them current inline under inserts, partition
drops and clears, and calls :meth:`rebuild` on the next use after a
wholesale ``rows`` assignment.  The ``version`` attribute records the relation mutation counter the index was
last synchronized with; the relation uses it to decide whether a rebuild is
needed.

A :class:`HashIndex` constructed directly (not via ``index_on``) is a
snapshot of the rows present at construction time; the caller keeps it in
sync manually via :meth:`add_row` / :meth:`remove_row`, as the view cache
does.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from repro.relational.relation import Relation


class HashIndex:
    """A hash index mapping key-attribute values to the rows containing them.

    Parameters
    ----------
    relation:
        The relation to index.
    attributes:
        The key attributes — names or column positions (order matters for
        composite keys).
    """

    __slots__ = ("schema", "attributes", "version", "_key_idx", "_buckets")

    def __init__(self, relation: Relation, attributes: Sequence):
        self.schema = relation.schema
        self._key_idx = tuple(
            relation.schema.index_of(a) if isinstance(a, str) else int(a)
            for a in attributes
        )
        self.attributes = tuple(relation.schema.attributes[i] for i in self._key_idx)
        self.version = 0
        self._buckets: dict[tuple, list[tuple]] = defaultdict(list)
        self.rebuild(relation.rows)

    def _key(self, row: Sequence) -> tuple:
        return tuple(row[i] for i in self._key_idx)

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def add_row(self, row: Sequence) -> None:
        """Index an additional row."""
        self._buckets[self._key(tuple(row))].append(tuple(row))

    def remove_row(self, row: Sequence) -> None:
        """Drop one occurrence of ``row`` from its bucket (no-op if absent)."""
        t = tuple(row)
        bucket = self._buckets.get(self._key(t))
        if bucket is None:
            return
        try:
            bucket.remove(t)
        except ValueError:
            return
        if not bucket:
            del self._buckets[self._key(t)]

    def remove_rows(self, rows: Iterable[Sequence]) -> None:
        """Drop many rows (used when a relation partition is pruned).

        Rows are grouped by bucket first, so every touched bucket is
        rewritten at most once.  When a partition attribute is part of the
        key (e.g. the ``(docid, node2)`` state indexes), a pruned
        partition's buckets die wholesale and the cost is proportional to
        the rows dropped; otherwise it is bounded by the sizes of the
        buckets the dropped rows share.
        """
        by_key: dict[tuple, list[tuple]] = {}
        for row in rows:
            t = tuple(row)
            by_key.setdefault(self._key(t), []).append(t)
        for key, doomed in by_key.items():
            bucket = self._buckets.get(key)
            if bucket is None:
                continue
            if len(doomed) >= len(bucket):
                del self._buckets[key]
                continue
            counts: dict[tuple, int] = {}
            for t in doomed:
                counts[t] = counts.get(t, 0) + 1
            kept = []
            for t in bucket:
                left = counts.get(t, 0)
                if left:
                    counts[t] = left - 1
                else:
                    kept.append(t)
            if kept:
                self._buckets[key] = kept
            else:
                del self._buckets[key]

    def clear(self) -> None:
        """Drop every bucket."""
        self._buckets.clear()

    def rebuild(self, rows: Iterable[Sequence]) -> None:
        """Re-index from scratch (catching up after a wholesale ``rows`` assignment)."""
        buckets: dict[tuple, list[tuple]] = defaultdict(list)
        for row in rows:
            buckets[self._key(row)].append(tuple(row))
        self._buckets = buckets

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def lookup(self, *key_values) -> list[tuple]:
        """Return the rows whose key attributes equal ``key_values``."""
        return self._buckets.get(tuple(key_values), [])

    def lookup_key(self, key: tuple) -> list[tuple]:
        """Like :meth:`lookup`, but the key is already a tuple (hot path)."""
        return self._buckets.get(key, [])

    def lookup_relation(self, *key_values, name: str = "") -> Relation:
        """Like :meth:`lookup`, but wrap the result in a :class:`Relation`."""
        out = Relation(self.schema, name=name)
        out.rows = list(self.lookup(*key_values))
        return out

    def keys(self) -> Iterable[tuple]:
        """All distinct key values present in the index."""
        return self._buckets.keys()

    def __contains__(self, key: tuple) -> bool:
        if not isinstance(key, tuple):
            key = (key,)
        return key in self._buckets

    def __len__(self) -> int:
        return len(self._buckets)
