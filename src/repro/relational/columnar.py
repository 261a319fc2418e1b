"""The join state's layout: interned value ids in packed column vectors.

A :class:`~repro.relational.relation.Relation` keeps its rows as
``list[tuple]`` for the row API; every relation bound into an evaluation
environment (:class:`~repro.relational.database.IndexedDatabase`) also
carries a :class:`ColumnStore`, and the compiled-plan executor and the
delta-reduction pass touch state only through it:

* :class:`ValueDictionary` interns (hashable) values to dense integer ids
  shared by every relation of one evaluation environment, so a value join
  becomes an integer comparison and cross-relation joins stay in one id
  space.
* :class:`ColumnStore` mirrors a relation's rows as per-column
  ``array('q')`` id buffers, exposed as zero-copy numpy ``int64`` views.  It
  is validated *lazily* against the relation's mutation stamp
  ``(version, len(rows), deletes)`` and follows the three mutations the
  engine performs in steady state at a cost proportional to the rows that
  changed: appends (the new suffix is encoded on the next sync), window
  pruning (a dropped row prefix is sliced off) and ``swap_delete_at`` (the
  last id moves into the hole).  Every other mutation — predicate deletes,
  clears, wholesale row replacement, a drop that is not a row prefix —
  moves the delete counter without telling the store, and the next sync
  re-encodes every row.  A value that cannot be interned (unhashable) is a
  :class:`TypeError`.
* :class:`GroupIndex` groups a store's rows by a packed multi-column key
  (stable order) for batch hash-probe joins: probing N keys is one
  ``searchsorted`` instead of N dict lookups, and the matched row positions
  expand via ``repeat``/``cumsum`` arithmetic (none when every key is
  unique).  An index outlives appends and prefix drops (an unindexed
  suffix is scanned, a dead prefix masked) until the two together outgrow
  a quarter of it.
* :meth:`ColumnStore.scan` answers the same probe by one broadcast
  equality per key column over every row, with no index to build: what a
  relation that lives for one document costs when its probe is small
  (:data:`SCAN_LIMIT`).
* :meth:`ColumnStore.positions_of` serves the probes of a handful of keys
  (the delta reduction's, the Section 5 views') as dict hits: a group
  index memoizes a dict from each group's raw key to its run of row
  positions (:meth:`GroupIndex.lookup`), built once per index build.
"""

from __future__ import annotations

import math
from array import array
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "ValueDictionary",
    "ColumnStore",
    "GroupIndex",
    "SCAN_LIMIT",
    "select_positions",
    "distinct_ids",
    "domain_array",
]

#: Packed multi-column keys must stay well inside int64.
_PACK_LIMIT = 1 << 62

#: Largest probe rows × store rows that :meth:`ColumnStore.scan` answers
#: by broadcast comparison; a larger probe of a per-document relation
#: builds a group index instead.  ``benchmarks/scan_guard.py`` (2 CPUs,
#: Python 3.11) puts a scan level with a fresh index build plus probe at
#: 16 K cells on one key column, 8–16 K on two, 4–8 K on four and about
#: 4 K on eight (one broadcast per key column): this limit is at or under
#: break-even on every width the plans probe (one to eight).  Replaying
#: the per-document probes of 300 ``topic_fanout`` publishes under a limit
#: of 4 K, 16 K, or 16 K cells × key columns costs the same within 3%.
SCAN_LIMIT = 4096

#: Up to this many ids, a domain is matched by one equality pass per id:
#: ``np.isin``'s fixed overhead costs more than a few of those.
_SMALL_DOMAIN = 8


def _empty():
    return np.empty(0, dtype=np.int64)


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
        """The id of ``value`` if already interned, else ``None``.

        An unhashable query constant is never interned, so it is ``None``
        too: it equals no stored (hence hashable) value.
        """
        try:
            return self._ids.get(value)
        except TypeError:
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


def _pack(cols, bases):
    """Mixed-radix packing of equal-length code columns into one int64 key."""
    packed = cols[0]
    for col, base in zip(cols[1:], bases[1:]):
        packed = packed * base + col
    return packed


class GroupIndex:
    """Rows of a :class:`ColumnStore` grouped by a packed key.

    ``positions`` lists row positions sorted by key with the *original row
    order preserved within each key* (stable sort), so batch probes yield
    rows probe-major and in store order.

    A row's key packs its id columns into one int64 code, the first of three
    ways that stays inside ``_PACK_LIMIT``:

    * the ids themselves, in mixed radix over ``max id + 1`` per column;
    * each id's rank among its column's distinct ids (``ranks`` holds the
      sorted distinct ids per column);
    * the rank of the whole key among the distinct keys (``tuples`` holds
      them, sorted).

    A probe key is coded the same way; one the build side never saw is
    masked invalid.
    """

    __slots__ = (
        "bases",
        "ranks",
        "tuples",
        "unique_keys",
        "starts",
        "counts",
        "positions",
        "built_n",
        "dropped",
        "unique",
        "_lookup",
    )

    def __init__(self, bases, unique_keys, starts, counts, positions, ranks=None, tuples=None):
        self.bases = bases
        self.ranks = ranks
        self.tuples = tuples
        self.unique_keys = unique_keys
        self.starts = starts
        self.counts = counts
        self.positions = positions
        #: Every key names one row: group ``k`` is ``positions[k]``, and a
        #: probe needs no run expansion.
        self.unique = len(unique_keys) == len(positions)
        #: Number of leading store rows this index covers; rows appended
        #: since the build are probed separately (:meth:`ColumnStore.probe`).
        self.built_n = 0
        #: Rows dropped from the front of the store since the build.
        #: ``positions`` stay in build-time coordinates: :meth:`expand`
        #: shifts them down by this much and masks what falls below zero.
        self.dropped = 0
        self._lookup = None

    def pack_probe(self, probe_cols):
        """Code probe-side id columns like the build side: ``(packed, valid)``.

        Probe values the build side cannot hold are masked invalid and
        coded as 0, keeping the packing inside the build-side range however
        the dictionary grew since the build.
        """
        if self.tuples is not None:
            known = len(self.tuples)
            both, inverse = np.unique(
                np.concatenate([self.tuples, np.stack(probe_cols, 1)]),
                axis=0,
                return_inverse=True,
            )
            inverse = inverse.reshape(-1)
            code_of = np.full(len(both), -1, dtype=np.int64)
            code_of[inverse[:known]] = np.arange(known)
            codes = code_of[inverse[known:]]
            valid = codes >= 0
            return np.where(valid, codes, 0), valid
        coded = []
        valid = None
        for c, col in enumerate(probe_cols):
            if self.ranks is not None:
                distinct = self.ranks[c]
                rank = np.minimum(np.searchsorted(distinct, col), len(distinct) - 1)
                inside = distinct[rank] == col
                col = rank
            else:
                inside = col < self.bases[c]
            coded.append(np.where(inside, col, 0))
            valid = inside if valid is None else (valid & inside)
        return _pack(coded, self.bases), valid

    def probe(self, probe_cols):
        """Batch hash-probe: one key per probe row.

        Returns ``(probe_idx, row_pos)`` — parallel arrays pairing each
        probing row index with each matched store row position, probe-major
        with store rows in original order.  With :attr:`unique` keys the
        hits are the pairs: nothing to expand.
        """
        uniques = self.unique_keys
        if len(uniques) == 0 or len(probe_cols[0]) == 0:
            return _empty(), _empty()
        packed, valid = self.pack_probe(probe_cols)
        slot = np.searchsorted(uniques, packed)
        slot[slot == len(uniques)] = 0
        hit = valid & (uniques[slot] == packed)
        if self.unique:
            probe_idx = np.flatnonzero(hit)
            return self._shift(probe_idx, self.positions[slot[probe_idx]])
        counts = np.where(hit, self.counts[slot], 0)
        starts = np.where(hit, self.starts[slot], 0)
        return self.expand(starts, counts)

    def lookup(self):
        """``(slots, positions)`` for dict probes of the index.

        ``slots`` maps each group's raw key — its id on one column, its
        tuple of ids on several, never its packed code (which may hold
        ranks) — to its ``(start, end)`` run in ``positions``, a list form
        of :attr:`positions`.  Built on first use, once per index.
        """
        if self._lookup is None:
            codes = self.unique_keys
            if self.tuples is not None:
                cols = [self.tuples[codes, c] for c in range(self.tuples.shape[1])]
            else:
                cols = []
                for c in range(len(self.bases) - 1, 0, -1):  # undo _pack, last column first
                    codes, digit = np.divmod(codes, self.bases[c])
                    cols.append(digit)
                cols.append(codes)
                cols.reverse()
                if self.ranks is not None:
                    cols = [distinct[col] for distinct, col in zip(self.ranks, cols)]
            keys = cols[0].tolist() if len(cols) == 1 else list(zip(*(col.tolist() for col in cols)))
            starts = self.starts.tolist()
            ends = (self.starts + self.counts).tolist()
            self._lookup = (dict(zip(keys, zip(starts, ends))), self.positions.tolist())
        return self._lookup

    def expand(self, starts, counts):
        """Expand per-probe ``(start, count)`` runs into match pairs."""
        total = int(counts.sum())
        if total == 0:
            return _empty(), _empty()
        probe_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        intra = np.arange(total, dtype=np.int64) - offsets
        row_pos = self.positions[np.repeat(starts, counts) + intra]
        return self._shift(probe_idx, row_pos)

    def _shift(self, probe_idx, row_pos):
        """Build-time row positions to current ones, the dropped prefix masked."""
        if self.dropped:
            row_pos -= self.dropped
            live = row_pos >= 0
            return probe_idx[live], row_pos[live]
        return probe_idx, row_pos


def _build_group(cols) -> GroupIndex:
    """Group row positions by the packed key over ``cols`` (id arrays)."""
    bases = [int(col.max()) + 1 if len(col) else 1 for col in cols]
    ranks = tuples = None
    if math.prod(bases) <= _PACK_LIMIT:
        packed = _pack(cols, bases)
    else:
        ranks, codes = zip(*(np.unique(col, return_inverse=True) for col in cols))
        bases = [len(distinct) for distinct in ranks]
        if math.prod(bases) <= _PACK_LIMIT:
            packed = _pack(codes, bases)
        else:
            ranks = None
            tuples, packed = np.unique(np.stack(cols, 1), axis=0, return_inverse=True)
            packed = packed.reshape(-1)
    order = np.argsort(packed, kind="stable")
    sorted_keys = packed[order]
    n = len(sorted_keys)
    if n == 0:
        return GroupIndex(bases, _empty(), _empty(), _empty(), _empty())
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    counts = np.diff(np.append(starts, n))
    return GroupIndex(bases, sorted_keys[starts], starts, counts, order, ranks, tuples)


class ColumnStore:
    """The id columns of one relation over a shared :class:`ValueDictionary`.

    The relation's ``rows`` list stays canonical for the row API; the store
    mirrors it as ``array('q')`` buffers, valid while its ``stamp`` equals
    the relation's ``(version, len(rows), deletes)``.  It keeps up with the
    relation in time proportional to the rows that changed for exactly
    three mutations:

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
    re-encodes every row — also what happens when a mirrored mutation
    finds the store already out of sync.  The counters ``rebuilds`` /
    ``rows_encoded`` / ``prefix_drops`` / ``swap_deletes`` /
    ``group_builds`` say which of these happened; the brokers report them
    summed as ``stats()["columnar"]``.
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
        "_cols",
        "_n",
        "_views",
        "_groups",
    ) + COUNTERS

    def __init__(self, num_columns: int, dictionary: ValueDictionary):
        self.dictionary = dictionary
        self.stamp = None
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
        store._cols = None  # frozen: no backing buffers until its relation mutates
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

    def sync(self, rows: Sequence[tuple], stamp) -> None:
        """Bring the id columns up to date with ``rows``.

        ``stamp`` is the relation's ``(version, num_rows, deletes)``: a
        grown row count with the delete counter unchanged is an append-only
        delta (encode the suffix).  Anything else is a mutation nobody
        mirrored into the store, and rebuilds from scratch.  An unhashable
        value raises :class:`TypeError` and leaves the columns as they were.
        """
        if stamp == self.stamp:
            return
        if self._cols is None:  # a frozen store whose relation mutated after all
            self._cols = [array("q") for _ in self._views]
            self.stamp = None
        # Drop our own numpy views first: they alias the ``array`` buffers
        # and would otherwise pin them against the mutations below.  Group
        # indexes survive append-only growth (they are built over a row
        # prefix and probe the suffix separately) but not a rebuild.
        self._views = None
        n = len(rows)
        appended = self._only_appended(n, stamp)
        new_rows = rows[self._n:] if appended else rows
        id_of = self.dictionary.id_of
        encoded = [[id_of(row[c]) for row in new_rows] for c in range(len(self._cols))]
        if not appended:
            if self.stamp is not None:
                self.rebuilds += 1
            self._groups.clear()
            for c, col in enumerate(self._cols):
                try:
                    del col[:]
                except BufferError:  # a caller retained a view: new buffer
                    self._cols[c] = array("q")
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

    def catch_up(self, rows: Sequence[tuple], stamp) -> bool:
        """Encode pending appends ahead of a mirrored delete; False = cannot.

        The relation calls this with its *pre-delete* rows and stamp.  True
        means the columns now equal ``rows`` and :meth:`drop_prefix` /
        :meth:`swap_delete` may follow.  False — never synced (nothing to
        keep current; stay lazy), frozen, or already behind an unmirrored
        delete — leaves the store untouched for the next :meth:`sync` to
        rebuild.
        """
        if stamp == self.stamp:
            return True
        if self._cols is None or not self._only_appended(len(rows), stamp):
            return False
        self.sync(rows, stamp)
        return True

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
        """Per-column id vectors as numpy ``int64`` arrays.

        The arrays alias the backing ``array('q')`` buffers (zero-copy) and
        are invalidated by the next sync — use within one evaluation, never
        retain across documents.
        """
        views = self._views
        if views is None:
            views = self._views = [
                np.frombuffer(col, dtype=np.int64) if len(col) else _empty()
                for col in self._cols
            ]
        return views

    def group(self, key_cols: tuple) -> GroupIndex:
        """The (memoized) group index over ``key_cols``.

        A cached index stays valid across appends and prefix drops: it
        covers the first ``built_n`` rows, :meth:`probe` scans the appended
        suffix separately and :meth:`GroupIndex.expand` masks the dropped
        prefix.  Once dead prefix plus unindexed suffix outgrow a quarter of
        the rows it was built over (min 64 rows) the index is rebuilt over
        all rows, so a sliding window pays one O(n log n) argsort per
        quarter window, not per document.  A swap-delete or a store rebuild
        discards it.
        """
        cached = self._groups.get(key_cols)
        if cached is not None:
            stale = cached.dropped + self._n - cached.built_n
            if stale <= max(64, (cached.built_n + cached.dropped) >> 2):
                return cached
        return self._build_group(key_cols)

    def _build_group(self, key_cols: tuple) -> GroupIndex:
        cols = self.columns()
        gi = _build_group([cols[c] for c in key_cols])
        gi.built_n = self._n
        self._groups[key_cols] = gi
        self.group_builds += 1
        return gi

    def positions_of(self, columns, keys) -> list:
        """Ascending positions of the rows whose key on ``columns`` is in ``keys``.

        ``columns`` is one column index, and ``keys`` a set of its ids, or a
        tuple of column indices, and ``keys`` a set of id tuples.  The probe
        of a handful of keys (the delta reduction's, the Section 5 views'):
        one dict hit per key on the memoized :meth:`GroupIndex.lookup` of
        the columns' group index, shifted past the dropped prefix, plus a
        scan of the unindexed suffix — no numpy call per key.
        """
        key_cols = (columns,) if isinstance(columns, int) else tuple(columns)
        gi = self.group(key_cols)
        slots, positions = gi.lookup()
        out: list = []
        for key in keys:
            run = slots.get(key)
            if run is not None:
                out.extend(positions[run[0]:run[1]])
        dropped = gi.dropped
        if dropped:
            out = [p - dropped for p in out if p >= dropped]
        built = gi.built_n
        if built < self._n:
            # the backing buffers, sliced without a numpy call (a frozen
            # store has only its arrays)
            cols = self._cols if self._cols is not None else self.columns()
            cols = [cols[c][built:].tolist() for c in key_cols]
            suffix = cols[0] if len(cols) == 1 else zip(*cols)
            out += [p for p, key in enumerate(suffix, built) if key in keys]
        out.sort()
        return out

    def probe(self, key_cols: tuple, probe_cols):
        """Batch-probe rows keyed on ``key_cols``: ``(probe_idx, row_pos)``.

        Combines the memoized :class:`GroupIndex` probe over the indexed
        prefix with a vectorized equality scan of the appended suffix, and
        keeps the match order probe-major with store rows in position order
        (one stable sort).
        """
        gi = self.group(key_cols)
        built = gi.built_n
        suffix = self._n - built
        if suffix and len(probe_cols[0]) * suffix > (1 << 23):
            # A huge probe batch against a stale index: rebuild instead of
            # materializing a probes × suffix comparison matrix.
            gi = self._build_group(key_cols)
            built, suffix = self._n, 0
        probe_idx, row_pos = gi.probe(probe_cols)
        if suffix:
            extra_probe, extra_pos = self._compare(key_cols, probe_cols, built)
            if len(extra_probe):
                probe_idx = np.concatenate([probe_idx, extra_probe])
                row_pos = np.concatenate([row_pos, extra_pos])
                order = np.argsort(probe_idx, kind="stable")
                probe_idx = probe_idx[order]
                row_pos = row_pos[order]
        return probe_idx, row_pos

    def scan(self, key_cols: tuple, probe_cols):
        """:meth:`probe` without an index: the same pairs, in the same order.

        One broadcast equality per key column over every row, so the cost
        is probe rows × store rows and nothing is built or memoized — the
        probe of a relation that dies with its document (a witness
        relation, a delta-reduced copy), kept under :data:`SCAN_LIMIT`
        cells by the caller.
        """
        if not self._n or not len(probe_cols[0]):
            return _empty(), _empty()
        return self._compare(key_cols, probe_cols, 0)

    def _compare(self, key_cols: tuple, probe_cols, start: int):
        """Pairs of probe rows and rows ``start:`` equal on every key column."""
        cols = self.columns()
        mask = None
        for c, pc in zip(key_cols, probe_cols):
            m = pc[:, None] == cols[c][start:][None, :]
            mask = m if mask is None else np.logical_and(mask, m, out=mask)
        probe_idx, row_pos = np.nonzero(mask)
        if start:
            row_pos += start
        return probe_idx, row_pos


# --------------------------------------------------------------------------- #
# selection kernels
# --------------------------------------------------------------------------- #
def domain_array(domain: frozenset):
    """A sorted int64 array of an id domain (callers memoize)."""
    out = np.fromiter(domain, dtype=np.int64, count=len(domain))
    out.sort()
    return out


def _isin(col, domain: frozenset, domain_arr=None):
    """Membership mask of ``col`` in an id domain."""
    if len(domain) > _SMALL_DOMAIN:
        return np.isin(col, domain_arr if domain_arr is not None else domain_array(domain))
    mask = np.zeros(len(col), dtype=bool)
    for value in domain:
        mask |= col == value
    return mask


def select_positions(columns, num_rows: int, constraints, domain_arrays=None):
    """Positions of rows satisfying every ``(column, id-domain)`` constraint.

    ``columns`` are the store's id vectors; ``constraints`` pairs column
    indices with frozensets of admissible ids.  Returns the ascending row
    positions as an int64 array.  ``domain_arrays`` optionally maps
    ``id(domain)`` → presorted int64 array (a per-document memo).
    """
    if not constraints:
        return np.arange(num_rows, dtype=np.int64)
    mask = None
    for col_index, domain in constraints:
        arr = domain_arrays.get(id(domain)) if domain_arrays else None
        m = _isin(columns[col_index], domain, arr)
        mask = m if mask is None else (mask & m)
    return np.flatnonzero(mask)


def distinct_ids(column, positions=None) -> frozenset:
    """The distinct ids of ``column`` (restricted to ``positions`` if given)."""
    if positions is not None:
        column = column[positions]
    if len(column) <= 128:  # small columns: set-build beats np.unique
        return frozenset(column.tolist())
    return frozenset(np.unique(column).tolist())
