"""Columnar relation storage: interned value ids + packed column vectors.

The row-oriented :class:`~repro.relational.relation.Relation` keeps
``list[tuple]`` as its canonical storage — every probe walks Python tuples
and pays per-object interpreter tax.  This module provides the *columnar
sidecar* that the ``columnar`` runtime knob switches on:

* :class:`ValueDictionary` interns arbitrary (hashable) values to dense
  integer ids shared by every relation of one evaluation environment, so a
  value join becomes an integer comparison and cross-relation joins stay in
  one id space.
* :class:`ColumnStore` mirrors a relation's rows as per-column
  ``array('q')`` id vectors.  It is validated *lazily* against the
  relation's mutation stamp ``(version, len(rows), deletes)`` and follows
  the three mutations the engine performs in steady state at a cost
  proportional to the rows that changed: appends (the new suffix is
  encoded on the next sync), window pruning (a dropped row prefix is
  sliced off) and ``swap_delete_at`` (the last id moves into the hole).
  Every other mutation — predicate deletes, clears, wholesale row
  replacement, a drop that is not a row prefix — moves the delete counter
  without telling the store, and the next sync re-encodes every row.
  Non-columnar configurations never pay a cent — the sidecar is only
  touched by columnar fast paths.
* :class:`GroupIndex` groups a store's rows by a packed multi-column key
  (stable order) for batch hash-probe joins: probing N keys is one
  ``searchsorted`` instead of N dict lookups, and the matched row positions
  expand via ``repeat``/``cumsum`` arithmetic.  An index outlives appends
  and prefix drops (an unindexed suffix is scanned, a dead prefix masked)
  until the two together outgrow a quarter of it.

``numpy`` is an *optional* accelerator (the ``repro[fast]`` extra).  When it
is missing, columns stay pure-``array`` vectors: the selection kernels
(:func:`select_positions`, :func:`distinct_ids`) run as tight loops over
machine ints, and the fully vectorized join kernels report unavailable so
callers fall back to the row path.  Either way the match sets are identical;
only the constant factor changes.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Optional, Sequence

__all__ = [
    "HAVE_NUMPY",
    "ValueDictionary",
    "ColumnStore",
    "GroupIndex",
    "select_positions",
    "distinct_ids",
    "domain_array",
]

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI replay
    _np = None

HAVE_NUMPY = _np is not None

#: Packed multi-column keys must stay well inside int64.
_PACK_LIMIT = 1 << 62

#: Up to this many ids, a domain is matched by one equality pass per id:
#: ``np.isin``'s fixed overhead costs more than a few of those.
_SMALL_DOMAIN = 8


class ValueDictionary:
    """Bidirectional value ↔ dense-int interning shared by an environment.

    One dictionary spans *all* relations of an evaluation environment (not
    one per column): equi-joins compare ids across relations, so both sides
    must agree on the encoding.  Ids are dense and append-only; values are
    never evicted (the dictionary lives as long as its environment, like the
    join state itself).
    """

    __slots__ = ("_ids", "_values")

    def __init__(self) -> None:
        self._ids: dict = {}
        self._values: list = []

    def id_of(self, value) -> int:
        """Intern ``value``, returning its dense id (stable across calls)."""
        i = self._ids.get(value)
        if i is None:
            i = len(self._values)
            self._ids[value] = i
            self._values.append(value)
        return i

    def get_id(self, value) -> Optional[int]:
        """The id of ``value`` if already interned, else ``None``."""
        try:
            return self._ids.get(value)
        except TypeError:  # unhashable query constant
            return None

    def value_of(self, i: int):
        """The value interned as id ``i``."""
        return self._values[i]

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> list:
        """The id → value table (index ``i`` holds the value of id ``i``)."""
        return self._values

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ValueDictionary {len(self._values)} values>"


class GroupIndex:
    """Rows of a :class:`ColumnStore` grouped by a packed key (numpy only).

    ``positions`` lists row positions sorted by key with the *original row
    order preserved within each key* (stable sort), so batch probes yield
    rows in exactly the order the row-path hash probe would.
    """

    __slots__ = (
        "bases",
        "unique_keys",
        "starts",
        "counts",
        "positions",
        "built_n",
        "dropped",
    )

    def __init__(self, bases, unique_keys, starts, counts, positions):
        self.bases = bases
        self.unique_keys = unique_keys
        self.starts = starts
        self.counts = counts
        self.positions = positions
        #: Number of leading store rows this index covers; rows appended
        #: since the build are probed separately (:meth:`ColumnStore.probe`).
        self.built_n = 0
        #: Rows dropped from the front of the store since the build.
        #: ``positions`` stay in build-time coordinates: :meth:`expand`
        #: shifts them down by this much and masks what falls below zero.
        self.dropped = 0

    def pack_probe(self, probe_cols):
        """Pack probe-side id columns with the build-side bases.

        Returns ``(packed, valid)``: probe values outside a build-side
        column's id range cannot match any row, so they are masked invalid
        and packed as 0 (keeping the packing inside the build-side range —
        no overflow regardless of how the dictionary grew since build).
        """
        packed = None
        valid = None
        for col, base in zip(probe_cols, self.bases):
            inside = col < base
            col = _np.where(inside, col, 0)
            valid = inside if valid is None else (valid & inside)
            packed = col if packed is None else packed * base + col
        return packed, valid

    def probe(self, probe_cols):
        """Batch hash-probe: one packed key per probe row.

        Returns ``(probe_idx, row_pos)`` — parallel arrays pairing each
        probing row index with each matched store row position, probe-major
        with store rows in original order (the row-path loop order).
        """
        packed, valid = self.pack_probe(probe_cols)
        uniques = self.unique_keys
        if len(uniques) == 0 or len(packed) == 0:
            empty = _np.empty(0, dtype=_np.int64)
            return empty, empty
        slot = _np.searchsorted(uniques, packed)
        slot[slot == len(uniques)] = 0
        hit = valid & (uniques[slot] == packed)
        counts = _np.where(hit, self.counts[slot], 0)
        starts = _np.where(hit, self.starts[slot], 0)
        return self.expand(starts, counts)

    def expand(self, starts, counts):
        """Expand per-probe ``(start, count)`` runs into match pairs."""
        total = int(counts.sum())
        if total == 0:
            empty = _np.empty(0, dtype=_np.int64)
            return empty, empty
        probe_idx = _np.repeat(_np.arange(len(counts), dtype=_np.int64), counts)
        offsets = _np.repeat(_np.cumsum(counts) - counts, counts)
        intra = _np.arange(total, dtype=_np.int64) - offsets
        row_pos = self.positions[_np.repeat(starts, counts) + intra]
        if self.dropped:
            row_pos -= self.dropped
            live = row_pos >= 0
            return probe_idx[live], row_pos[live]
        return probe_idx, row_pos


def _build_group(cols) -> Optional[GroupIndex]:
    """Group row positions by the packed key over ``cols`` (numpy arrays)."""
    if not cols:
        return None
    bases = []
    span = 1
    for col in cols:
        base = int(col.max()) + 1 if len(col) else 1
        bases.append(base)
        span *= base
        if span > _PACK_LIMIT:
            return None  # packed key would overflow int64 — use the row path
    packed = None
    for col, base in zip(cols, bases):
        packed = col if packed is None else packed * base + col
    order = _np.argsort(packed, kind="stable")
    sorted_keys = packed[order]
    n = len(sorted_keys)
    if n == 0:
        empty = _np.empty(0, dtype=_np.int64)
        return GroupIndex(bases, empty, empty, empty, empty)
    head = _np.empty(n, dtype=bool)
    head[0] = True
    _np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    starts = _np.flatnonzero(head)
    counts = _np.diff(_np.append(starts, n))
    return GroupIndex(bases, sorted_keys[starts], starts, counts, order)


class ColumnStore:
    """Columnar sidecar of one relation: per-column interned id vectors.

    The relation's ``rows`` list stays canonical; the store mirrors it as
    ``array('q')`` vectors over a shared :class:`ValueDictionary`, valid
    while its ``stamp`` equals the relation's ``(version, len(rows),
    deletes)``.  It keeps up with the relation in time proportional to the
    rows that changed for exactly three mutations:

    * **appends** — :meth:`sync` encodes only the new suffix;
    * **a dropped row prefix** (window pruning, reported by
      :meth:`PartitionedRelation.drop_partitions
      <repro.relational.relation.PartitionedRelation.drop_partitions>`) —
      :meth:`drop_prefix` slices it off each column;
    * **a swap-delete** (:meth:`Relation.swap_delete_at
      <repro.relational.relation.Relation.swap_delete_at>`) —
      :meth:`swap_delete` moves the last id into the hole.

    Any other mutation (``delete_rows``/``delete_row``, ``clear``, ``rows``
    assignment, a drop that is not a row prefix) moves the relation's
    delete counter without telling the store, and the next :meth:`sync`
    falls back to re-encoding every row — the one fallback, also taken when
    a mirrored mutation finds the store already out of sync.  The counters
    ``rebuilds`` / ``rows_encoded`` / ``prefix_drops`` / ``swap_deletes`` /
    ``group_builds`` say which of these happened; the brokers report them
    summed as ``stats()["columnar"]``.

    A store whose rows contain unhashable values marks itself ``disabled``
    — callers fall back to the row path for that relation.
    """

    #: Names of the counter attributes (the keys of ``stats()["columnar"]``).
    COUNTERS = (
        "rebuilds",
        "rows_encoded",
        "prefix_drops",
        "swap_deletes",
        "group_builds",
    )

    __slots__ = (
        "dictionary",
        "stamp",
        "disabled",
        "_cols",
        "_n",
        "_views",
        "_groups",
    ) + COUNTERS

    def __init__(self, num_columns: int, dictionary: ValueDictionary):
        self.dictionary = dictionary
        self.stamp = None
        self.disabled = False
        self._cols = [array("q") for _ in range(num_columns)]
        self._n = 0
        self._views = None
        self._groups: dict = {}
        self.rebuilds = 0  # syncs that re-encoded a previously synced store
        self.rows_encoded = 0  # rows interned by sync (suffixes and rebuilds)
        self.prefix_drops = 0
        self.swap_deletes = 0
        self.group_builds = 0  # argsorts: first builds and quarter-rule rebuilds

    @classmethod
    def from_columns(cls, cols: Sequence, dictionary: ValueDictionary, stamp):
        """A frozen store over precomputed id columns (reduced relations)."""
        store = cls(0, dictionary)
        store._cols = None  # frozen: no backing buffers, no resync
        store._views = list(cols)
        store._n = len(cols[0]) if cols else 0
        store.stamp = stamp
        return store

    def __len__(self) -> int:
        return self._n

    def _only_appended(self, n: int, stamp) -> bool:
        """Whether ``stamp`` differs from the synced one by appends alone."""
        old = self.stamp
        return (
            old is not None
            and stamp[2] == old[2]
            and n >= self._n
            and stamp[0] >= old[0]
        )

    def sync(self, rows: Sequence[tuple], stamp) -> bool:
        """Bring the id columns up to date with ``rows``; False = disabled.

        ``stamp`` is the relation's ``(version, num_rows, deletes)``: a
        grown row count with the delete counter unchanged is an append-only
        delta (encode the suffix).  Anything else is a mutation nobody
        mirrored into the store, and rebuilds from scratch.
        """
        if stamp == self.stamp:
            return True
        if self._cols is None:  # frozen store: its relation must not mutate
            self.disabled = True
            return False
        # Drop our own numpy views first: they alias the ``array`` buffers
        # and would otherwise pin them against the mutations below.  Group
        # indexes survive append-only growth (they are built over a row
        # prefix and probe the suffix separately) but not a rebuild.
        self._views = None
        n = len(rows)
        if self._only_appended(n, stamp):
            new_rows = rows[self._n:] if n > self._n else ()
        else:
            if self.stamp is not None:
                self.rebuilds += 1
            self._groups.clear()
            for c, col in enumerate(self._cols):
                try:
                    del col[:]
                except BufferError:  # a caller retained a view: new buffer
                    self._cols[c] = array("q")
            self._n = 0
            new_rows = rows
        if new_rows:
            id_of = self.dictionary.id_of
            try:
                # Encode before touching the columns, so a TypeError cannot
                # leave them partially extended.
                encoded = [
                    [id_of(row[c]) for row in new_rows]
                    for c in range(len(self._cols))
                ]
            except TypeError:  # unhashable row value: cannot intern
                self.disabled = True
                return False
            for c, ids in enumerate(encoded):
                try:
                    self._cols[c].extend(ids)
                except BufferError:  # a caller retained a view: copy + extend
                    fresh = array("q", self._cols[c])
                    fresh.extend(ids)
                    self._cols[c] = fresh
            self._n = n
            self.rows_encoded += len(new_rows)
        self.stamp = stamp
        return True

    def catch_up(self, rows: Sequence[tuple], stamp) -> bool:
        """Encode pending appends ahead of a mirrored delete; False = cannot.

        The relation calls this with its *pre-delete* rows and stamp.  True
        means the columns now equal ``rows`` and :meth:`drop_prefix` /
        :meth:`swap_delete` may follow.  False — never synced (nothing to
        keep current; stay lazy), frozen, disabled, or already behind an
        unmirrored delete — leaves the store untouched for the next
        :meth:`sync` to rebuild.
        """
        if self.disabled or self._cols is None:
            return False
        return stamp == self.stamp or (
            self._only_appended(len(rows), stamp) and self.sync(rows, stamp)
        )

    def drop_prefix(self, k: int, stamp) -> None:
        """Mirror the deletion of the first ``k`` rows (window pruning).

        One ``memmove`` per column; ``stamp`` is the relation's stamp after
        the drop.  Group indexes are kept: their positions shift by ``k``
        (see :attr:`GroupIndex.dropped`) and :meth:`group` decides when the
        dead prefix is worth an argsort.
        """
        self._views = None
        for c, col in enumerate(self._cols):
            try:
                del col[:k]
            except BufferError:  # a caller retained a view: new buffer
                self._cols[c] = col[k:]
        self._n -= k
        for gi in self._groups.values():
            if gi is not None:
                gi.dropped += k
                gi.built_n = max(0, gi.built_n - k)
        self.prefix_drops += 1
        self.stamp = stamp

    def swap_delete(self, position: int, stamp) -> None:
        """Mirror :meth:`Relation.swap_delete_at`: last id into ``position``.

        Row positions moved, so the group indexes are dropped (one argsort
        each on the next probe); nothing is re-interned.
        """
        self._views = None
        self._groups.clear()
        for c, col in enumerate(self._cols):
            try:
                last = col.pop()
            except BufferError:  # a caller retained a view: new buffer
                last = col[-1]
                col = self._cols[c] = col[:-1]
            if position < len(col):
                col[position] = last
        self._n -= 1
        self.swap_deletes += 1
        self.stamp = stamp

    def columns(self):
        """Per-column id vectors: numpy int64 views (zero-copy) or arrays.

        The numpy views alias the backing ``array('q')`` buffers and are
        invalidated by the next sync — use within one evaluation, never
        retain across documents.
        """
        views = self._views
        if views is not None:
            return views
        if _np is None:
            self._views = self._cols
            return self._cols
        views = [
            _np.frombuffer(col, dtype=_np.int64)
            if len(col)
            else _np.empty(0, dtype=_np.int64)
            for col in self._cols
        ]
        self._views = views
        return views

    def group(self, key_cols: tuple) -> Optional[GroupIndex]:
        """The (memoized) group index over ``key_cols``; None = unavailable.

        A cached index stays valid across appends and prefix drops: it
        covers the first ``built_n`` rows, :meth:`probe` scans the appended
        suffix separately and :meth:`GroupIndex.expand` masks the dropped
        prefix.  Once dead prefix plus unindexed suffix outgrow a quarter of
        the rows it was built over (min 64 rows) the index is rebuilt over
        all rows, so a sliding window pays one O(n log n) argsort per
        quarter window, not per document.  A swap-delete or a store rebuild
        discards it.
        """
        if _np is None:
            return None
        cached = self._groups.get(key_cols, False)
        if cached is not False:
            if cached is None:
                return None  # packed key overflowed at last build
            stale = cached.dropped + self._n - cached.built_n
            if stale <= max(64, (cached.built_n + cached.dropped) >> 2):
                return cached
        return self._build_group(key_cols)

    def _build_group(self, key_cols: tuple) -> Optional[GroupIndex]:
        cols = self.columns()
        gi = _build_group([cols[c] for c in key_cols])
        if gi is not None:
            gi.built_n = self._n
        self._groups[key_cols] = gi
        self.group_builds += 1
        return gi

    def probe(self, key_cols: tuple, probe_cols):
        """Batch-probe rows keyed on ``key_cols``; ``None`` = unavailable.

        Combines the memoized :class:`GroupIndex` probe over the indexed
        prefix with a vectorized equality scan of the appended suffix, and
        restores the row-path match order (probe-major, store rows in
        original position order) with one stable sort.
        """
        gi = self.group(key_cols)
        if gi is None:
            return None
        built = gi.built_n
        suffix = self._n - built
        if suffix and len(probe_cols[0]) * suffix > (1 << 23):
            # A huge probe batch against a stale index: rebuild instead of
            # materializing a probes × suffix comparison matrix.
            gi = self._build_group(key_cols)
            if gi is None:
                return None
            built, suffix = self._n, 0
        probe_idx, row_pos = gi.probe(probe_cols)
        if suffix:
            cols = self.columns()
            mask = None
            for c, pc in zip(key_cols, probe_cols):
                m = pc[:, None] == cols[c][built:][None, :]
                mask = m if mask is None else (mask & m)
            extra_probe, extra_pos = _np.nonzero(mask)
            if len(extra_probe):
                probe_idx = _np.concatenate([probe_idx, extra_probe])
                row_pos = _np.concatenate([row_pos, extra_pos + built])
                order = _np.argsort(probe_idx, kind="stable")
                probe_idx = probe_idx[order]
                row_pos = row_pos[order]
        return probe_idx, row_pos


# --------------------------------------------------------------------------- #
# selection kernels (numpy-vectorized with pure-``array`` fallbacks)
# --------------------------------------------------------------------------- #
def domain_array(domain: frozenset):
    """A sorted int64 array of an id domain (numpy mode; callers memoize)."""
    if _np is None:
        return None
    out = _np.fromiter(domain, dtype=_np.int64, count=len(domain))
    out.sort()
    return out


def _isin(col, domain: frozenset, domain_arr=None):
    """Membership mask of ``col`` in an id domain (numpy mode)."""
    if len(domain) > _SMALL_DOMAIN:
        return _np.isin(col, domain_arr if domain_arr is not None else domain_array(domain))
    mask = _np.zeros(len(col), dtype=bool)
    for value in domain:
        mask |= col == value
    return mask


def select_positions(columns, num_rows: int, constraints, domain_arrays=None):
    """Positions of rows satisfying every ``(column, id-domain)`` constraint.

    ``columns`` are the store's id vectors; ``constraints`` pairs column
    indices with frozensets of admissible ids.  Returns a list of ints (the
    row-path order — ascending positions).  ``domain_arrays`` optionally
    maps ``id(domain)`` → presorted int64 array (a per-document memo).
    """
    if not constraints:
        return range(num_rows)
    if _np is not None:
        mask = None
        for col_index, domain in constraints:
            arr = domain_arrays.get(id(domain)) if domain_arrays else None
            m = _isin(columns[col_index], domain, arr)
            mask = m if mask is None else (mask & m)
        return _np.flatnonzero(mask)
    # pure-``array`` fallback: tight loop over machine ints
    checks = [(columns[c], domain) for c, domain in constraints]
    out = []
    for i in range(num_rows):
        for col, domain in checks:
            if col[i] not in domain:
                break
        else:
            out.append(i)
    return out


def distinct_ids(column, positions=None) -> frozenset:
    """The distinct ids of ``column`` (restricted to ``positions`` if given)."""
    if _np is not None and not isinstance(column, array):
        if positions is not None:
            column = column[positions]
        if len(column) <= 128:  # small columns: set-build beats np.unique
            return frozenset(column.tolist())
        return frozenset(_np.unique(column).tolist())
    if positions is None:
        return frozenset(column)
    return frozenset(column[i] for i in positions)
