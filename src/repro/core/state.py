"""The join state: witnesses of previously processed documents.

The state consists of the relations ``Rbin``, ``Rdoc``, ``Rvar`` and
``RdocTS`` (Section 3.1); Algorithm 2 of the paper maintains them by merging
in the current document's witnesses after it has been processed.  The state
additionally supports window-based pruning: documents older than the largest
registered window can never contribute to a future match and may be dropped.

The state relations are :class:`~repro.relational.relation.PartitionedRelation`
instances partitioned on ``docid``, so :meth:`JoinState.prune` drops whole
documents in one dictionary pop per document instead of rewriting every row
list.  Every probe of the state — the compiled plans, the delta reduction
and the Section 5 views — goes through the id columns and group indexes of
the relations' column stores (:mod:`repro.relational.columnar`), which the
processor's evaluation environment attaches.
"""

from __future__ import annotations

from repro.core.witnesses import WitnessRelations
from repro.relational.relation import PartitionedRelation, Relation
from repro.templates.cqt import RELATION_SCHEMAS


class JoinState:
    """Witness relations of all previously processed documents."""

    def __init__(self) -> None:
        def _relation(name: str) -> PartitionedRelation:
            return PartitionedRelation(
                RELATION_SCHEMAS[name], name=name, partition_attribute="docid"
            )

        self.rbin = _relation("Rbin")
        self.rdoc = _relation("Rdoc")
        self.rvar = _relation("Rvar")
        self.rdocts = _relation("RdocTS")
        self._timestamps: dict[str, float] = {}

    # ------------------------------------------------------------------ #
    # Algorithm 2: maintain the join state
    # ------------------------------------------------------------------ #
    def merge(self, witnesses: WitnessRelations) -> None:
        """Merge the current document's witnesses into the state (Algorithm 2)."""
        docid = witnesses.docid
        for var1, var2, node1, node2 in witnesses.rbinw.rows:
            self.rbin.insert((docid, var1, var2, node1, node2))
        for node, value in witnesses.rdocw.rows:
            self.rdoc.insert((docid, node, value))
        for var, node in witnesses.rvarw.rows:
            self.rvar.insert((docid, var, node))
        for row in witnesses.rdoctsw.rows:
            self.rdocts.insert(row)
            self._timestamps[row[0]] = row[1]

    def insert_document_rows(
        self,
        docid: str,
        timestamp: float,
        rbin_rows: list[tuple],
        rdoc_rows: list[tuple],
        rvar_rows: list[tuple] | None = None,
    ) -> None:
        """Load one previous document's witnesses directly (technical benchmark path).

        Row tuples exclude the ``docid`` column; it is added here.
        """
        for row in rbin_rows:
            self.rbin.insert((docid,) + tuple(row))
        for row in rdoc_rows:
            self.rdoc.insert((docid,) + tuple(row))
        for row in rvar_rows or []:
            self.rvar.insert((docid,) + tuple(row))
        self.rdocts.insert((docid, timestamp))
        self._timestamps[docid] = timestamp

    def restore_rows(self, relation_name: str, rows: list[tuple]) -> None:
        """Load persisted full-schema rows of one state relation (recovery path).

        Rows carry the relation's complete schema, ``docid`` column
        included (unlike :meth:`insert_document_rows`, which prepends it).
        ``RdocTS`` rows additionally rebuild the timestamp map that drives
        window pruning.
        """
        relation = self.relations()[relation_name]
        for row in rows:
            relation.insert(tuple(row))
        if relation_name == "RdocTS":
            for docid, timestamp in rows:
                self._timestamps[docid] = timestamp

    # ------------------------------------------------------------------ #
    # pruning
    # ------------------------------------------------------------------ #
    def prune(self, min_timestamp: float) -> int:
        """Drop every document with ``timestamp < min_timestamp``.

        Returns the number of documents removed.  With a finite maximum
        window ``W`` the engine calls this with ``current_ts - W``.  Each
        state relation drops the stale documents' partitions wholesale, so
        the cost scales with the rows removed, not the rows retained.
        """
        return self.drop_documents(self.stale_docids(min_timestamp))

    def stale_docids(self, min_timestamp: float) -> set[str]:
        """Documents with ``timestamp < min_timestamp`` (what :meth:`prune` drops).

        Public accessor so the processors can learn which documents a prune
        is about to remove without reaching into the state relations' rows;
        pair with :meth:`drop_documents` to avoid computing the set twice.
        """
        return {d for d, ts in self._timestamps.items() if ts < min_timestamp}

    def drop_variables(self, variables: set[str]) -> int:
        """Drop every witness row bound to one of ``variables``; returns rows removed.

        The retraction path: when the last query using a canonical variable
        is deregistered, its historical ``Rbin``/``Rvar`` rows can never
        contribute to a future match (no surviving query's ``RT`` tuple
        names the variable) and are reclaimed here.  ``Rdoc`` rows are
        node-keyed and may be shared across variables, so they are only
        reclaimed when their whole document is pruned or the state is
        cleared.
        """
        if not variables:
            return 0
        dead = set(variables)
        removed = self.rbin.delete_rows(lambda row: row[1] in dead or row[2] in dead)
        removed += self.rvar.delete_rows(lambda row: row[1] in dead)
        return removed

    def drop_documents(self, docids: set[str]) -> int:
        """Drop the given documents' partitions; returns documents removed."""
        if not docids:
            return 0
        for relation in (self.rbin, self.rdoc, self.rvar, self.rdocts):
            relation.drop_partitions(docids)
        for docid in docids:
            self._timestamps.pop(docid, None)
        return len(docids)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def timestamp_of(self, docid: str) -> float:
        """Timestamp of a previously processed document."""
        return self._timestamps[docid]

    def document_ids(self) -> set[str]:
        """Ids of all documents currently held in the state."""
        return set(self._timestamps)

    @property
    def num_documents(self) -> int:
        """Number of documents currently held in the state."""
        return len(self._timestamps)

    def relations(self) -> dict[str, Relation]:
        """The state relations keyed by their canonical names."""
        return {
            "Rbin": self.rbin,
            "Rdoc": self.rdoc,
            "Rvar": self.rvar,
            "RdocTS": self.rdocts,
        }

    def clear(self) -> None:
        """Remove all state (used between benchmark runs)."""
        self.rbin.clear()
        self.rdoc.clear()
        self.rvar.clear()
        self.rdocts.clear()
        self._timestamps.clear()

    def __repr__(self) -> str:
        return (
            f"<JoinState docs={self.num_documents} |Rbin|={len(self.rbin)} "
            f"|Rdoc|={len(self.rdoc)} |Rvar|={len(self.rvar)}>"
        )
