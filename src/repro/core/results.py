"""Query results: match records and output document construction (Algorithm 3).

A :class:`Match` records which query fired, which pair of documents produced
it and the node bindings of its variables.  Stage 2 builds one per output
row that passes the window check, through :meth:`Match.from_row`: the match
keeps the row and its query's :class:`MatchLayout` (resolved once, when the
query registered) and builds its binding dicts only if they are read, so a
delivery that never looks at the bindings costs no dict.

When the engine keeps the original documents around,
:func:`build_output_document` constructs the query's output XML document
following the paper's default SELECT semantics: a new root whose two
children are the root element nodes matched by the two query blocks.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Mapping, NamedTuple, Optional

from repro.xmlmodel.document import XmlDocument
from repro.xmlmodel.node import XmlNode


class MatchLayout(NamedTuple):
    """How one query's output rows read: resolved once, at registration.

    ``lhs`` / ``rhs`` pair each head position of the query's unit with the
    key of the node it holds, per block (shared by every query of the
    unit); ``names`` maps those keys to this query's variable names.
    ``strict`` says whether the window is FOLLOWED BY's ``0 < Δ ≤ w`` (else
    JOIN's ``0 ≤ Δ ≤ w``).  A row-backed :class:`Match` builds its
    bindings from its layout.
    """

    strict: bool
    lhs: tuple  # (row position, node key) of every left-block node
    rhs: tuple  # ... and of every right-block (current-document) node
    names: Mapping

    def lhs_bindings(self, row: tuple) -> dict:
        names = self.names
        return {names[key]: row[position] for position, key in self.lhs}

    def rhs_bindings(self, row: tuple) -> dict:
        names = self.names
        return {names[key]: row[position] for position, key in self.rhs}

    def swapped(self) -> "MatchLayout":
        """The same rows read with the two blocks exchanged (an un-swapped JOIN mirror)."""
        return self._replace(lhs=self.rhs, rhs=self.lhs)


class Match:
    """One query match (an output event of an inter-document query).

    Immutable: every attribute is read-only.  A match is built either from
    keyword (or positional) values, or — on Stage 2's output path — by
    :meth:`from_row`, which keeps the plan's head row and the query's
    :class:`MatchLayout` and builds the two binding dicts on first read.

    Attributes
    ----------
    qid:
        Id of the matching query.
    lhs_docid / rhs_docid:
        The previous document (left block) and the current document (right
        block) forming the match.
    lhs_timestamp / rhs_timestamp:
        Their timestamps (the window constraint has already been checked).
    lhs_bindings / rhs_bindings:
        Variable → node-id bindings for the variables retained by the
        query's template.
    window:
        The query's window length.
    publish_stamp:
        Observability metadata (``RuntimeConfig(metrics=True)`` only): the
        ``time.perf_counter()`` reading taken when the triggering document
        entered the broker, carried through the processing pipeline — and
        across the process-runtime wire format — so delivery lag can be
        measured at the sink.  Excluded from equality, hashing and
        :meth:`key`, so match sets are identical with metrics on or off.

    Equality and hashing cover the query id, both docids, both timestamps
    and the window — not the bindings, whose identity :meth:`key` adds.
    """

    __slots__ = (
        "_qid", "_lhs_docid", "_rhs_docid", "_lhs_timestamp", "_rhs_timestamp",
        "_window", "_publish_stamp", "_lhs", "_rhs", "_row", "_layout",
    )
    __match_args__ = (
        "qid", "lhs_docid", "rhs_docid", "lhs_timestamp", "rhs_timestamp",
        "lhs_bindings", "rhs_bindings", "window", "publish_stamp",
    )

    def __init__(
        self,
        qid: str,
        lhs_docid: str,
        rhs_docid: str,
        lhs_timestamp: float,
        rhs_timestamp: float,
        lhs_bindings: Optional[dict[str, int]] = None,
        rhs_bindings: Optional[dict[str, int]] = None,
        window: float = float("inf"),
        publish_stamp: Optional[float] = None,
    ):
        self._qid = qid
        self._lhs_docid = lhs_docid
        self._rhs_docid = rhs_docid
        self._lhs_timestamp = lhs_timestamp
        self._rhs_timestamp = rhs_timestamp
        self._window = window
        self._publish_stamp = publish_stamp
        self._lhs = {} if lhs_bindings is None else lhs_bindings
        self._rhs = {} if rhs_bindings is None else rhs_bindings
        self._row = self._layout = None

    @classmethod
    def from_row(
        cls,
        qid: str,
        lhs_docid: str,
        rhs_docid: str,
        lhs_timestamp: float,
        rhs_timestamp: float,
        window: float,
        row: tuple,
        layout,
        publish_stamp: Optional[float] = None,
    ) -> "Match":
        """A match whose bindings ``layout`` builds from ``row`` when first read.

        ``layout`` is anything with ``lhs_bindings(row)`` and
        ``rhs_bindings(row)`` — a :class:`MatchLayout` on Stage 2's output
        path and on the process pipe; the two dicts are built once, then
        kept.
        """
        match = _new(cls)
        match._qid = qid
        match._lhs_docid = lhs_docid
        match._rhs_docid = rhs_docid
        match._lhs_timestamp = lhs_timestamp
        match._rhs_timestamp = rhs_timestamp
        match._window = window
        match._publish_stamp = publish_stamp
        match._lhs = match._rhs = None
        match._row = row
        match._layout = layout
        return match

    qid = property(attrgetter("_qid"))
    lhs_docid = property(attrgetter("_lhs_docid"))
    rhs_docid = property(attrgetter("_rhs_docid"))
    lhs_timestamp = property(attrgetter("_lhs_timestamp"))
    rhs_timestamp = property(attrgetter("_rhs_timestamp"))
    window = property(attrgetter("_window"))
    publish_stamp = property(attrgetter("_publish_stamp"))
    #: The plan's head row and the layout that reads it (both ``None`` for a
    #: match built from binding dicts).
    row = property(attrgetter("_row"))
    layout = property(attrgetter("_layout"))

    @property
    def lhs_bindings(self) -> dict[str, int]:
        bindings = self._lhs
        if bindings is None:
            bindings = self._lhs = self._layout.lhs_bindings(self._row)
        return bindings

    @property
    def rhs_bindings(self) -> dict[str, int]:
        bindings = self._rhs
        if bindings is None:
            bindings = self._rhs = self._layout.rhs_bindings(self._row)
        return bindings

    def _identity(self) -> tuple:
        return (
            self._qid, self._lhs_docid, self._rhs_docid,
            self._lhs_timestamp, self._rhs_timestamp, self._window,
        )

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __reduce__(self):
        # Pickles as a plain match: the bindings are built, the row dropped.
        return (
            Match,
            (
                self._qid, self._lhs_docid, self._rhs_docid,
                self._lhs_timestamp, self._rhs_timestamp,
                self.lhs_bindings, self.rhs_bindings,
                self._window, self._publish_stamp,
            ),
        )

    def key(self) -> tuple:
        """A hashable identity used for de-duplicating matches."""
        return (
            self._qid,
            self._lhs_docid,
            self._rhs_docid,
            tuple(sorted(self.lhs_bindings.items())),
            tuple(sorted(self.rhs_bindings.items())),
        )

    def __repr__(self) -> str:
        return (
            f"<Match {self._qid}: {self._lhs_docid}@{self._lhs_timestamp} -> "
            f"{self._rhs_docid}@{self._rhs_timestamp}>"
        )


_new = object.__new__


def copy_subtree(node: XmlNode) -> XmlNode:
    """Deep-copy an element subtree (ids are reassigned by the new document)."""
    clone = XmlNode(node.tag, text=node.text, attributes=dict(node.attributes))
    for child in node.children:
        clone.append(copy_subtree(child))
    return clone


def build_output_document(
    match: Match,
    lhs_document: XmlDocument,
    rhs_document: XmlDocument,
    lhs_root_variable: Optional[str] = None,
    rhs_root_variable: Optional[str] = None,
    root_tag: str = "result",
) -> XmlDocument:
    """Construct the default-SELECT output document for ``match``.

    The output has a new root element with two subtrees: the subtree rooted
    at the node matched by the left block and the one matched by the right
    block.  When a block's root variable was spliced out of the query
    template (so its binding is unknown), the corresponding document root is
    used instead.
    """
    def block_root(document: XmlDocument, bindings: dict[str, int], var: Optional[str]) -> XmlNode:
        if var is not None and var in bindings:
            return document.node(bindings[var])
        return document.root

    lhs_node = block_root(lhs_document, match.lhs_bindings, lhs_root_variable)
    rhs_node = block_root(rhs_document, match.rhs_bindings, rhs_root_variable)

    root = XmlNode(root_tag, attributes={"qid": match.qid})
    root.append(copy_subtree(lhs_node))
    root.append(copy_subtree(rhs_node))
    return XmlDocument(
        root,
        docid=f"out:{match.qid}:{match.lhs_docid}:{match.rhs_docid}",
        timestamp=match.rhs_timestamp,
        stream="output",
    )
