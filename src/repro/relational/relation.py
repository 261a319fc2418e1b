"""Relations: a schema plus a bag of tuples, mirrored as id columns.

Relations are deliberately simple — a list of plain Python tuples — because
the join state of the MMQJP engine (``Rbin``, ``Rdoc``, ``RdocTS`` and the
per-document witness relations) is scanned and probed constantly; plain
tuples keep that cheap and keep hashing (for joins and distinct) trivial.

Two features support the incremental join pipeline:

* Every relation carries a **mutation stamp** and, once bound into an
  evaluation environment, a column store
  (:class:`~repro.relational.columnar.ColumnStore`): the interned id
  columns and group indexes every probe of the relation goes through.  The
  store encodes appends lazily, mirrors prefix drops and swap-deletes, and
  re-encodes after any other mutation (:meth:`Relation.column_store`).
* :class:`PartitionedRelation` additionally groups its rows by one
  partition attribute (``docid`` for the join-state relations), so that
  window pruning can drop all rows of a document in one dictionary pop
  (:meth:`PartitionedRelation.drop_partitions`) instead of rewriting the
  whole row list.

Both keep per-column value counters once a column's distinct count has been
asked for, and update them on every insert and delete, so the join-order
optimizer's NDV estimates stay O(1) under churn instead of a column scan
after each change.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from repro.relational.schema import RelationSchema, SchemaError


class Relation:
    """A named relation: a :class:`RelationSchema` and a bag of tuples.

    Tuples are stored in insertion order.  Duplicate tuples are allowed
    (bag semantics); use :meth:`distinct` for set semantics.

    Parameters
    ----------
    schema:
        The relation schema, or a sequence of attribute names.
    rows:
        Optional initial rows.  Each row must have the schema's arity.
    name:
        Optional relation name used in error messages and SQL rendering.
    """

    __slots__ = (
        "schema",
        "rows",
        "name",
        "_ndv_counters",
        "_ndv_stamp",
        "_version",
        "_deletes",
        "_colstore",
    )

    def __init__(
        self,
        schema: RelationSchema | Sequence[str],
        rows: Iterable[Sequence] = (),
        name: str = "",
    ):
        if not isinstance(schema, RelationSchema):
            schema = RelationSchema(schema)
        self.schema = schema
        self.name = name
        #: column -> value -> occurrences, valid while ``_ndv_stamp`` is
        #: the relation's stamp (see :meth:`distinct_count`).
        self._ndv_counters: dict[int, dict[object, int]] = {}
        self._ndv_stamp = None
        self._version = 0
        self._deletes = 0
        self._colstore = None
        self.rows: list[tuple] = []
        for row in rows:
            self.insert(row)

    # ------------------------------------------------------------------ #
    # basic container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __eq__(self, other: object) -> bool:
        """Two relations are equal when schema and the *multiset* of rows agree.

        Rows compare by value (a :class:`collections.Counter` over the row
        tuples), not by their ``repr`` — the historical repr-sort was
        O(n log n), allocated a rendering of every row, and made equality
        depend on how values print rather than on what they are.
        """
        if isinstance(other, Relation):
            if self.schema != other.schema or len(self.rows) != len(other.rows):
                return False
            return Counter(self.rows) == Counter(other.rows)
        return NotImplemented

    def __hash__(self):  # pragma: no cover - relations are mutable
        raise TypeError("Relation objects are mutable and unhashable")

    def __repr__(self) -> str:
        label = self.name or "Relation"
        return f"<{label}{list(self.schema.attributes)} with {len(self)} rows>"

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def insert(self, row: Sequence) -> None:
        """Append a single row (validated against the schema arity)."""
        t = tuple(row)
        if len(t) != len(self.schema):
            raise SchemaError(
                f"row arity {len(t)} does not match schema arity {len(self.schema)} "
                f"for relation {self.name or '<anonymous>'}"
            )
        self._append(t)

    def insert_many(self, rows: Iterable[Sequence]) -> None:
        """Append many rows."""
        for row in rows:
            self.insert(row)

    def insert_dict(self, values: dict[str, object]) -> None:
        """Append a row given as an attribute-name → value mapping."""
        try:
            row = tuple(values[a] for a in self.schema.attributes)
        except KeyError as exc:
            raise SchemaError(f"missing attribute {exc.args[0]!r} in row values") from None
        self._append(row)

    def clear(self) -> None:
        """Remove all rows."""
        self.rows.clear()
        self._version += 1
        self._deletes += 1

    def extend(self, other: "Relation") -> None:
        """Append all rows of ``other`` (schemas must match exactly)."""
        if other.schema != self.schema:
            raise SchemaError(
                f"cannot extend relation with schema {self.schema} "
                f"from relation with schema {other.schema}"
            )
        for row in other.rows:
            self._append(row)

    def _append(self, t: tuple) -> None:
        """Append one validated tuple, keeping the counters current."""
        counting = self._counting()
        self.rows.append(t)
        self._version += 1
        if counting:
            self._count_in(t)
            self._ndv_stamp = self._stamp()

    def delete_rows(self, predicate: Callable[[tuple], bool]) -> int:
        """Delete every row for which ``predicate`` (on the raw tuple) is true.

        Returns the number of rows removed.  A deletion that removes
        nothing leaves the version (and every derived artifact) untouched.
        """
        kept: list[tuple] = []
        gone: list[tuple] = []
        for row in self.rows:
            (gone if predicate(row) else kept).append(row)
        if not gone:
            return 0
        counting = self._counting()
        self.rows = kept
        self._version += 1
        self._deletes += 1
        if counting:
            self._count_out(gone)
            self._ndv_stamp = self._stamp()
        return len(gone)

    def delete_row(self, row: Sequence) -> bool:
        """Delete one row by exact value; returns whether a row was removed.

        The point-deletion fast path for callers that can reconstruct the
        tuple they inserted (e.g. the template registry retracting one
        query's ``RT`` tuple): ``list.remove`` runs the equality scan in C
        and stops at the first hit, where :meth:`delete_rows` evaluates a
        Python predicate on every row.  Only the first occurrence of a
        duplicated row is removed.  Bookkeeping matches :meth:`delete_rows`.
        """
        t = tuple(row)
        counting = self._counting()
        try:
            self.rows.remove(t)
        except ValueError:
            return False
        self._version += 1
        self._deletes += 1
        if counting:
            self._count_out((t,))
            self._ndv_stamp = self._stamp()
        return True

    def swap_delete_at(self, position: int) -> tuple:
        """Delete the row at ``position`` by swapping the last row into it.

        O(1) point deletion for callers that track row positions (the
        template registry keeps a qid → position map over each ``RT``).
        Returns the removed row; afterwards the previously-last row — if
        any remains — occupies ``position``, so the caller must update its
        position map for that row.  Row *order* is not preserved.
        Bookkeeping matches :meth:`delete_rows`, except that a columnar
        sidecar in sync up to appends mirrors the swap in O(1) per column
        instead of being left to rebuild.
        """
        rows = self.rows
        t = rows[position]
        store = self._mirroring_store()
        counting = self._counting()
        last = rows.pop()
        if position < len(rows):
            rows[position] = last
        self._version += 1
        self._deletes += 1
        if counting:
            self._count_out((t,))
            self._ndv_stamp = self._stamp()
        if store is not None:
            store.swap_delete(position, self._stamp())
        return t

    # ------------------------------------------------------------------ #
    # the id columns (see repro.relational.columnar)
    # ------------------------------------------------------------------ #
    def enable_columnar(self, dictionary) -> None:
        """Attach a column store interning through ``dictionary``.

        Idempotent per dictionary; binding the same relation into a
        different environment re-homes the store.  Attaching it costs
        nothing until :meth:`column_store` is asked for the columns; from
        that first sync on, appends are encoded lazily (suffix only) and
        :meth:`swap_delete_at` / :meth:`PartitionedRelation.drop_partitions`
        of a row prefix are mirrored into the store as they happen.  Every
        other delete leaves it to re-encode all rows on its next use.
        """
        from repro.relational.columnar import ColumnStore

        store = self._colstore
        if store is None or store.dictionary is not dictionary:
            self._colstore = ColumnStore(len(self.schema), dictionary)

    def column_store(self):
        """The synced column store, or ``None`` when none is attached.

        The validity stamp is ``(version, len(rows), deletes)`` — the same
        trick the NDV cache uses to also catch direct ``rows``
        manipulation by legacy callers.  A stamp that moved by appends
        alone costs the new suffix; a delete counter the store was not
        told about (see :meth:`enable_columnar`) costs a full re-encode.
        A row value that cannot be interned raises :class:`TypeError`.
        """
        store = self._colstore
        if store is None:
            return None
        rows = self.rows
        stamp = (self._version, len(rows), self._deletes)
        if store.stamp != stamp:
            try:
                store.sync(rows, stamp)
            except TypeError as exc:
                raise TypeError(
                    f"relation {self.name or '<anonymous>'!r} holds an unhashable "
                    f"value, which cannot be joined on: {exc}"
                ) from None
        return store

    def _mirroring_store(self):
        """The sidecar, if it can mirror the delete about to be applied.

        Called *before* the rows change: a sidecar that has been synced and
        has only appends pending is brought up to date and returned, so the
        caller can report the delete to it afterwards; otherwise ``None``
        (the sidecar, if any, rebuilds on its next use).
        """
        store = self._colstore
        if store is not None and store.catch_up(self.rows, self._stamp()):
            return store
        return None

    def _attach_store(self, store) -> None:
        """Adopt a precomputed (frozen) store — derived-relation path."""
        self._colstore = store

    def _stamp(self) -> tuple[int, int, int]:
        """The mutation stamp column stores validate against."""
        return (self._version, len(self.rows), self._deletes)

    @property
    def version(self) -> int:
        """The mutation counter (bumped on every insert/drop/clear).

        Consumers that cache derived artifacts — NDV counts, compiled query
        plans — key their validity checks on this counter.
        """
        return self._version

    # ------------------------------------------------------------------ #
    # row access helpers
    # ------------------------------------------------------------------ #
    def column(self, attribute: str) -> list:
        """Return the values of one column, in row order."""
        i = self.schema.index_of(attribute)
        return [row[i] for row in self.rows]

    def row_dicts(self) -> Iterator[dict[str, object]]:
        """Iterate rows as attribute-name → value dictionaries."""
        attrs = self.schema.attributes
        for row in self.rows:
            yield dict(zip(attrs, row))

    def value(self, row: Sequence, attribute: str):
        """Return the value of ``attribute`` within ``row``."""
        return row[self.schema.index_of(attribute)]

    def distinct_count(self, column_index: int) -> int:
        """Number of distinct values in one column, O(1) once counted.

        Used by the conjunctive-query optimizer to estimate join fan-out.
        The first call per column counts its values; inserts and deletes
        then update the counters in time proportional to the rows they
        touch (a swap-deleted ``RT`` row costs one decrement per counted
        column, not a recount).  The counters are trusted only while their
        stamp is the relation's mutation stamp, which also catches legacy
        direct ``rows`` manipulation: a mismatch recounts.
        """
        stamp = self._stamp()
        if self._ndv_stamp != stamp:
            self._ndv_counters = {}
            self._ndv_stamp = stamp
        counter = self._ndv_counters.get(column_index)
        if counter is None:
            counter = self._ndv_counters[column_index] = Counter(
                map(itemgetter(column_index), self.rows)
            )
        return len(counter)

    def _counting(self) -> bool:
        """Whether the value counters are current (call before a mutation)."""
        return bool(self._ndv_counters) and self._ndv_stamp == self._stamp()

    def _count_in(self, t: tuple) -> None:
        """Count one added row into the value counters."""
        for col, counter in self._ndv_counters.items():
            v = t[col]
            counter[v] = counter.get(v, 0) + 1

    def _count_out(self, rows: Iterable[tuple]) -> None:
        """Count removed rows out of the value counters."""
        for col, counter in self._ndv_counters.items():
            for row in rows:
                v = row[col]
                left = counter[v] - 1
                if left:
                    counter[v] = left
                else:
                    del counter[v]

    # ------------------------------------------------------------------ #
    # derived relations (non-mutating)
    # ------------------------------------------------------------------ #
    def copy(self, name: str | None = None) -> "Relation":
        """Return a shallow copy (rows are immutable tuples, so this is safe)."""
        out = Relation(self.schema, name=name if name is not None else self.name)
        out.rows = list(self.rows)
        return out

    def distinct(self, name: str | None = None) -> "Relation":
        """Return a copy with duplicate rows removed (first occurrence kept)."""
        seen: set[tuple] = set()
        out = Relation(self.schema, name=name if name is not None else self.name)
        for row in self.rows:
            if row not in seen:
                seen.add(row)
                out.rows.append(row)
        return out

    def where(self, predicate: Callable[[dict[str, object]], bool]) -> "Relation":
        """Return the rows for which ``predicate`` (on a row dict) is true."""
        attrs = self.schema.attributes
        out = Relation(self.schema, name=self.name)
        for row in self.rows:
            if predicate(dict(zip(attrs, row))):
                out.rows.append(row)
        return out

    def sorted_rows(self) -> list[tuple]:
        """Return the rows sorted by their repr (stable, type-agnostic order)."""
        return sorted(self.rows, key=repr)

    @classmethod
    def empty_like(cls, other: "Relation", name: str | None = None) -> "Relation":
        """Return an empty relation with the same schema as ``other``."""
        return cls(other.schema, name=name if name is not None else other.name)


class PartitionedRelation(Relation):
    """A relation whose rows are additionally grouped by one partition attribute.

    The join-state relations are partitioned on ``docid``: all rows of one
    previously processed document form one partition, so window pruning can
    drop entire documents in one dictionary pop per document
    (:meth:`drop_partitions`) instead of filtering every row.  The flat
    ``rows`` list is kept in sync incrementally on inserts and on drops of
    a row prefix (the oldest documents, i.e. every in-order window prune),
    and re-stitched lazily from the surviving partitions after any other
    deletion.

    Every mutation keeps the per-column value counters current, so
    :meth:`distinct_count` needs no stamp check.
    """

    __slots__ = (
        "partition_attribute",
        "_pcol",
        "_partitions",
        "_flat",
        "_flat_dirty",
        "_size",
    )

    def __init__(
        self,
        schema: RelationSchema | Sequence[str],
        rows: Iterable[Sequence] = (),
        name: str = "",
        partition_attribute: str = "docid",
    ):
        if not isinstance(schema, RelationSchema):
            schema = RelationSchema(schema)
        self.partition_attribute = partition_attribute
        self._pcol = schema.index_of(partition_attribute)
        self._partitions: dict[object, list[tuple]] = {}
        self._flat: list[tuple] = []
        self._flat_dirty = False
        self._size = 0
        super().__init__(schema, rows, name)

    # ------------------------------------------------------------------ #
    # the flat row view
    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> list[tuple]:
        if self._flat_dirty:
            flat: list[tuple] = []
            for part in self._partitions.values():
                flat.extend(part)
            self._flat = flat
            self._flat_dirty = False
        return self._flat

    @rows.setter
    def rows(self, new_rows: list[tuple]) -> None:
        # Wholesale replacement (base-class init and legacy callers): rebuild
        # the partitions; a column store re-encodes on its next use.
        self._partitions = {}
        self._flat = []
        self._flat_dirty = False
        self._size = 0
        self._ndv_counters = {}
        self._version += 1
        self._deletes += 1
        for t in new_rows:
            self._partitions.setdefault(t[self._pcol], []).append(t)
            self._flat.append(t)
            self._size += 1

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[tuple]:
        if self._flat_dirty:
            for part in self._partitions.values():
                yield from part
        else:
            yield from self._flat

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def _append(self, t: tuple) -> None:
        key = t[self._pcol]
        part = self._partitions.get(key)
        if part is None:
            part = self._partitions[key] = []
        part.append(t)
        if not self._flat_dirty:
            self._flat.append(t)
        self._size += 1
        if self._ndv_counters:
            self._count_in(t)
        self._version += 1

    def clear(self) -> None:
        self._partitions.clear()
        self._flat = []
        self._flat_dirty = False
        self._size = 0
        self._ndv_counters = {}
        self._version += 1
        self._deletes += 1

    def delete_rows(self, predicate: Callable[[tuple], bool]) -> int:
        """Delete matching rows across all partitions; returns rows removed.

        Mirrors :meth:`Relation.delete_rows` on the partitioned layout:
        partitions emptied by the deletion are dropped and the flat view is
        re-stitched lazily.  NDV counters are decremented per deleted row
        (O(removed), like :meth:`drop_partitions`) instead of being thrown
        away.
        """
        removed = 0
        gone: list[tuple] = []
        emptied: list[object] = []
        for key, part in self._partitions.items():
            kept: list[tuple] = []
            for row in part:
                (gone if predicate(row) else kept).append(row)
            if len(kept) != len(part):
                removed += len(part) - len(kept)
                if kept:
                    self._partitions[key] = kept
                else:
                    emptied.append(key)
        if not removed:
            return 0
        for key in emptied:
            del self._partitions[key]
        self._size -= removed
        self._flat_dirty = True
        self._version += 1
        self._deletes += 1
        self._count_out(gone)
        return removed

    def swap_delete_at(self, position: int) -> tuple:
        """Unsupported: flat-view positions are unstable under partitioning."""
        raise TypeError(
            "PartitionedRelation does not support positional deletion; "
            "use delete_row or drop_partitions"
        )

    def delete_row(self, row: Sequence) -> bool:
        """Delete one row by exact value (partition-local scan).

        Mirrors :meth:`Relation.delete_row`: only the row's own partition is
        scanned (``list.remove`` in C), bookkeeping matches
        :meth:`delete_rows`.
        """
        t = tuple(row)
        key = t[self._pcol]
        part = self._partitions.get(key)
        if part is None:
            return False
        try:
            part.remove(t)
        except ValueError:
            return False
        if not part:
            del self._partitions[key]
        self._size -= 1
        self._flat_dirty = True
        self._version += 1
        self._deletes += 1
        self._count_out((t,))
        return True

    def drop_partitions(self, keys: Iterable[object]) -> int:
        """Drop every row of the given partitions; returns rows removed.

        The cost is proportional to the rows *dropped*; surviving rows are
        not touched.  When the dropped rows are exactly the leading rows of the
        flat view — the oldest documents, as in every in-order window prune
        — the view is sliced in place and an attached columnar sidecar
        drops the same prefix.  Otherwise the view is re-stitched lazily on
        its next access and the sidecar re-encodes on its next use.
        """
        dropped: list[list[tuple]] = []
        gone: set[object] = set()
        removed = 0
        for key in keys:
            part = self._partitions.pop(key, None)
            if part:
                dropped.append(part)
                gone.add(key)
                removed += len(part)
        if not removed:
            return 0
        # ``removed`` rows carry a dropped key, so they are the flat view's
        # prefix iff its first ``removed`` rows all do.
        pcol = self._pcol
        leading = not self._flat_dirty and all(
            row[pcol] in gone for row in itertools.islice(self._flat, removed)
        )
        store = self._mirroring_store() if leading else None
        self._size -= removed
        if leading:
            del self._flat[:removed]
        else:
            self._flat_dirty = True
        self._version += 1
        self._deletes += 1
        if store is not None:
            store.drop_prefix(removed, self._stamp())
        for part in dropped:
            self._count_out(part)
        return removed

    # ------------------------------------------------------------------ #
    # partition access and statistics
    # ------------------------------------------------------------------ #
    def partition_keys(self) -> list[object]:
        """All partition keys currently present."""
        return list(self._partitions)

    def partition(self, key: object) -> list[tuple]:
        """The rows of one partition (empty list if absent)."""
        return list(self._partitions.get(key, ()))

    @property
    def num_partitions(self) -> int:
        """Number of non-empty partitions."""
        return len(self._partitions)

    def distinct_count(self, column_index: int) -> int:
        """O(1) NDV from an incrementally maintained per-column counter."""
        counter = self._ndv_counters.get(column_index)
        if counter is None:
            counter = self._ndv_counters[column_index] = Counter(
                map(itemgetter(column_index), self)
            )
        return len(counter)
