"""Encode-once document transport for the process runtime.

A published document crosses to the worker processes as its text, never
as a tree: each worker engine scans it for its own Stage 1.  This module
frames a batch and provides the reusable buffer behind the broker's
encode-once path:

* :func:`encode_document_batch` frames a batch of ``(text, docid,
  timestamp, stream)`` records as ``(docid, timestamp, stream,
  publish_stamp, text)`` entries.
* :func:`decode_document_batch` gives the records (all, or a selection)
  back, with interned docids, plus the publish stamps.
* :class:`WireBuffer` turns the encoded batch into pickled bytes inside
  one reusable buffer, handing out a :class:`memoryview` so the broker
  can write the *same* bytes to every routed shard's pipe without
  re-serializing — one encode per published batch, O(1) in the shard
  count.
"""

from __future__ import annotations

import io
import pickle
import sys
from typing import Optional, Sequence

__all__ = ["WireBuffer", "encode_document_batch", "decode_document_batch"]


def encode_document_batch(
    records: Sequence[tuple], publish_stamps: Optional[Sequence[Optional[float]]] = None
) -> list[tuple]:
    """Wire form of a record batch, one entry per record.

    An entry is ``(docid, timestamp, stream, publish_stamp, text)``.
    ``publish_stamps`` holds one broker-side publish stamp per record (each
    ``None`` outside metrics mode); without it every entry carries ``None``.
    """
    if publish_stamps is None:
        publish_stamps = (None,) * len(records)
    return [
        (docid, timestamp, stream, stamp, text)
        for (text, docid, timestamp, stream), stamp in zip(records, publish_stamps)
    ]


def decode_document_batch(
    payload: Sequence[tuple], indices: Optional[Sequence[int]] = None
) -> tuple[list[tuple], Optional[list[Optional[float]]]]:
    """The records of a wire batch (all, or a selection) and their publish stamps.

    Stamps are ``None`` when the broker set none.  Docids are interned, as
    the engines expect of the records they scan.
    """
    entries = payload if indices is None else [payload[i] for i in indices]
    records = [
        (text, sys.intern(docid), timestamp, stream)
        for docid, timestamp, stream, _, text in entries
    ]
    stamps = [entry[3] for entry in entries]
    return records, (stamps if any(s is not None for s in stamps) else None)


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
