"""Named event streams and the stream registry.

Publishers publish into a named stream (``"S"`` by default — the paper's
single-stream exposition).  A :class:`Stream` keeps light statistics and an
optional bounded history of recent documents, held as the broker's
``(text, docid, timestamp, stream)`` records and parsed when read; the
broker uses the :class:`StreamRegistry` to route incoming documents and to
validate that subscriptions reference known streams (unknown streams are
created lazily, as new publishers may appear at any time).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterable, Optional

from repro.xmlmodel.document import XmlDocument
from repro.xmlmodel.parser import parse_document


@dataclass
class Stream:
    """One named event stream."""

    name: str
    history_size: int = 0
    num_documents: int = 0
    last_timestamp: Optional[float] = None
    _history: Deque[tuple] = field(default_factory=deque, repr=False)

    def record(self, record: tuple) -> None:
        """Record one published ``(text, docid, timestamp, stream)`` record.

        Updates the stats and, with ``history_size > 0``, the bounded history.
        """
        self.num_documents += 1
        self.last_timestamp = record[2]
        if self.history_size > 0:
            self._history.append(record)
            while len(self._history) > self.history_size:
                self._history.popleft()

    def history(self) -> list[XmlDocument]:
        """The most recent documents (up to ``history_size``), parsed on read."""
        return [parse_document(*record) for record in self._history]


class StreamRegistry:
    """All streams known to a broker."""

    def __init__(self, history_size: int = 0):
        self._streams: dict[str, Stream] = {}
        self._history_size = history_size

    def get_or_create(self, name: str) -> Stream:
        """Return the stream called ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = Stream(name=name, history_size=self._history_size)
            self._streams[name] = stream
        return stream

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __iter__(self) -> Iterable[str]:
        return iter(self._streams)

    def names(self) -> list[str]:
        """All stream names seen so far."""
        return list(self._streams)

    def stats(self) -> dict[str, int]:
        """Documents published per stream."""
        return {name: stream.num_documents for name, stream in self._streams.items()}
