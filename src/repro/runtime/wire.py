"""Encode-once document transport for the process runtime.

The naive process fan-out pickles each published document once *per
routed shard*: the dominant cost of a wide topology is N identical
serializations of the same tree.  This module provides the columnar wire
format and the reusable buffer behind the broker's encode-once
path:

* :func:`encode_document_batch` flattens a batch of
  :class:`~repro.xmlmodel.document.XmlDocument` trees into a shared value
  table plus per-document column tuples (parent links, tag ids, text ids,
  post-order ids, sparse attribute triples) — the same interning idiom as
  :func:`repro.runtime.process.encode_match_batch` on the return path.
  Tags, texts and attribute keys recur heavily across a batch, so the
  table pays for itself quickly.
* :func:`decode_document_batch` rebuilds the trees in one pre-order pass,
  assigning ``node_id``/``post_id``/``depth``/``parent`` directly (no
  ``_assign_ids`` re-walk) via :meth:`XmlDocument.from_indexed`.
* :class:`WireBuffer` turns the encoded batch into pickled bytes inside
  one reusable buffer, handing out a :class:`memoryview` so the broker
  can write the *same* bytes to every routed shard's pipe without
  re-serializing — one encode per published batch, O(1) in the shard
  count.
"""

from __future__ import annotations

import io
import pickle
from typing import Optional, Sequence

from repro.xmlmodel.document import XmlDocument
from repro.xmlmodel.node import XmlNode

__all__ = ["WireBuffer", "encode_document_batch", "decode_document_batch"]


def _intern(value, table: list, index: dict) -> int:
    """Index of ``value`` in the batch value table (appending if new)."""
    key = (value.__class__, value)
    slot = index.get(key)
    if slot is None:
        slot = index[key] = len(table)
        table.append(value)
    return slot


def encode_document_batch(documents: Sequence[XmlDocument]) -> tuple:
    """Columnar wire form of a document batch: ``(value table, doc entries)``.

    Each entry is ``(docid, timestamp, stream, publish_stamp, parents,
    tags, texts, posts, attr_items)`` with nodes in pre-order: ``parents``
    holds each node's parent pre-id (-1 for the root), ``tags``/``texts``
    hold value-table ids (-1 for a ``None`` text), and ``attr_items`` is a
    sparse tuple of ``(node pre-id, key id, value id)`` triples.
    """
    table: list = []
    index: dict = {}
    entries = []
    for document in documents:
        nodes = document._nodes_by_id
        parents = []
        tags = []
        texts = []
        posts = []
        attr_items = []
        for node in nodes:
            parent = node.parent
            parents.append(parent.node_id if parent is not None else -1)
            tags.append(_intern(node.tag, table, index))
            text = node.text
            texts.append(_intern(text, table, index) if text is not None else -1)
            posts.append(node.post_id)
            if node.attributes:
                node_id = node.node_id
                for key, value in node.attributes.items():
                    attr_items.append(
                        (node_id, _intern(key, table, index), _intern(value, table, index))
                    )
        entries.append(
            (
                document.docid,
                document.timestamp,
                document.stream,
                document.publish_stamp,
                tuple(parents),
                tuple(tags),
                tuple(texts),
                tuple(posts),
                tuple(attr_items),
            )
        )
    return (table, entries)


def _decode_document(entry: tuple, table: list) -> XmlDocument:
    docid, timestamp, stream, publish_stamp, parents, tags, texts, posts, attr_items = entry
    nodes: list[XmlNode] = []
    for i in range(len(tags)):
        node = XmlNode(table[tags[i]])
        text_id = texts[i]
        if text_id >= 0:
            node.text = table[text_id]
        node.node_id = i
        node.post_id = posts[i]
        parent_id = parents[i]
        if parent_id >= 0:
            parent = nodes[parent_id]
            node.parent = parent
            node.depth = parent.depth + 1
            parent.children.append(node)
        nodes.append(node)
    for node_id, key_id, value_id in attr_items:
        nodes[node_id].attributes[table[key_id]] = table[value_id]
    document = XmlDocument.from_indexed(
        nodes[0], nodes, docid=docid, timestamp=timestamp, stream=stream
    )
    document.publish_stamp = publish_stamp
    return document


def decode_document_batch(
    payload: tuple, indices: Optional[Sequence[int]] = None
) -> list[XmlDocument]:
    """Re-materialize documents from their wire form (all, or a selection)."""
    table, entries = payload
    if indices is not None:
        return [_decode_document(entries[i], table) for i in indices]
    return [_decode_document(entry, table) for entry in entries]


class WireBuffer:
    """A reusable pickle buffer handing out zero-copy views of its contents.

    :meth:`pack` overwrites the previous payload in place, so the broker
    serializes every batch into the same allocation; the returned
    :class:`memoryview` must be released before the next :meth:`pack`
    (the caller does, right after the fan-out) — a still-exported view
    falls back to a fresh buffer rather than failing.
    """

    __slots__ = ("_buffer",)

    def __init__(self):
        self._buffer = io.BytesIO()

    def pack(self, obj) -> memoryview:
        """Pickle ``obj`` into the buffer and return a view of the bytes."""
        buffer = self._buffer
        try:
            buffer.seek(0)
            buffer.truncate()
        except BufferError:  # a previous view was never released
            buffer = self._buffer = io.BytesIO()
        pickle.dump(obj, buffer, protocol=pickle.HIGHEST_PROTOCOL)
        return buffer.getbuffer()[: buffer.tell()]
