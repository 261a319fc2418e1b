"""XML documents: a rooted node tree with pre-order node ids and a timestamp."""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from repro.xmlmodel.node import XmlNode

_doc_counter = itertools.count()


def _next_docid() -> str:
    return f"doc{next(_doc_counter)}"


def advance_docid_counter(floor: int) -> None:
    """Ensure future auto docids are ``doc<floor>`` or later.

    Crash recovery calls this with one past the highest persisted
    auto-generated docid: a restarted process would otherwise restart the
    counter at ``doc0`` and silently collide with (and replace) the
    recovered documents' state partitions.  The counter only moves forward.
    """
    global _doc_counter
    current = next(_doc_counter)  # sacrifices one id; gaps are harmless
    _doc_counter = itertools.count(max(current, floor))


class XmlDocument:
    """An XML document (a *stream event* in paper terminology).

    Parameters
    ----------
    root:
        The root element node.
    docid:
        Document id; autogenerated (``doc0``, ``doc1``, ...) when omitted.
    timestamp:
        Event timestamp.  Publishers or the broker assign this; the
        FOLLOWED BY window constraint is evaluated against it.
    stream:
        The logical stream the document arrived on (default ``"S"``).
    """

    __slots__ = ("root", "docid", "timestamp", "stream", "_nodes_by_id")

    def __init__(
        self,
        root: XmlNode,
        docid: Optional[str] = None,
        timestamp: float = 0.0,
        stream: str = "S",
    ):
        self.root = root
        self.docid = docid if docid is not None else _next_docid()
        self.timestamp = float(timestamp)
        self.stream = stream
        self._nodes_by_id: list[XmlNode] = []
        self._assign_ids()

    @classmethod
    def from_indexed(
        cls,
        root: XmlNode,
        nodes_by_id: list[XmlNode],
        docid: Optional[str] = None,
        timestamp: float = 0.0,
        stream: str = "S",
    ) -> "XmlDocument":
        """Wrap an already-indexed tree without re-walking it.

        The caller guarantees that ``nodes_by_id`` lists the tree's nodes in
        pre-order and that every node already carries consistent
        ``node_id``/``post_id``/``depth``/``parent`` values (the streaming
        parser assigns them while building the tree).
        """
        document = cls.__new__(cls)
        document.root = root
        document.docid = docid if docid is not None else _next_docid()
        document.timestamp = float(timestamp)
        document.stream = stream
        document._nodes_by_id = nodes_by_id
        return document

    # ------------------------------------------------------------------ #
    # id assignment
    # ------------------------------------------------------------------ #
    def _assign_ids(self) -> None:
        """Assign pre-order node ids, post-order ids and depths."""
        self._nodes_by_id = []
        pre = 0
        post = 0

        def visit(node: XmlNode, depth: int) -> None:
            nonlocal pre, post
            node.node_id = pre
            node.depth = depth
            self._nodes_by_id.append(node)
            pre += 1
            for child in node.children:
                child.parent = node
                visit(child, depth + 1)
            node.post_id = post
            post += 1

        visit(self.root, 0)

    def reindex(self) -> None:
        """Re-assign node ids after structural modification of the tree."""
        self._assign_ids()

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def node(self, node_id: int) -> XmlNode:
        """Return the node with the given pre-order id."""
        return self._nodes_by_id[node_id]

    def __len__(self) -> int:
        return len(self._nodes_by_id)

    def nodes(self) -> Iterator[XmlNode]:
        """Iterate all nodes in document (pre-) order."""
        return iter(self._nodes_by_id)

    def leaves(self) -> list[XmlNode]:
        """All leaf nodes in document order."""
        return [n for n in self._nodes_by_id if n.is_leaf]

    def find(self, tag: str) -> list[XmlNode]:
        """All nodes (including the root) with the given tag."""
        if tag == "*":
            return list(self._nodes_by_id)
        return [n for n in self._nodes_by_id if n.tag == tag]

    def string_value(self, node_id: int) -> str:
        """The XPath string value of the node with the given id."""
        return self.node(node_id).string_value()

    def __repr__(self) -> str:
        return (
            f"<XmlDocument {self.docid} root={self.root.tag!r} "
            f"nodes={len(self)} ts={self.timestamp}>"
        )
