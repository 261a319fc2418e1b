"""A reference-counted memo of what registering a subscription text derives.

Parsing, canonicalising and reducing a subscription are pure functions of
its text (the variable catalog only grows and templates are retired in
place), so the 2nd…nth live subscriber of one text can reuse what the first
one derived.  :class:`TextMemo` keeps one value per key for as long as a
live registration holds it: every successful registration calls
:meth:`~TextMemo.hold`, every retraction :meth:`~TextMemo.release`, and the
entry is dropped with its last holder — so memory is bounded by the live
distinct texts, however many fresh texts churn through.

The broker keeps one (text → parsed query and its persisted rendering) and
every engine keeps one (text → canonical form, template shapes and Stage 1
registrations, which depend on that engine's variable catalog).
"""

from __future__ import annotations

from typing import Generic, Hashable, Optional, TypeVar

V = TypeVar("V")

__all__ = ["TextMemo"]


class TextMemo(Generic[V]):
    """Values derived from a key, kept while at least one holder is live."""

    def __init__(self) -> None:
        self._entries: dict[Hashable, list] = {}  # key -> [value, holders]

    def get(self, key: Hashable) -> Optional[V]:
        """The value held under ``key`` (``None`` when nobody holds one)."""
        entry = self._entries.get(key)
        return None if entry is None else entry[0]

    def hold(self, key: Hashable, value: V) -> None:
        """Count one more holder of ``key``; ``value`` is stored by the first."""
        entry = self._entries.get(key)
        if entry is None:
            self._entries[key] = [value, 1]
        else:
            entry[1] += 1

    def release(self, key: Hashable) -> None:
        """Count one holder of ``key`` gone; the last one drops the entry."""
        entry = self._entries[key]
        entry[1] -= 1
        if not entry[1]:
            del self._entries[key]

    def __len__(self) -> int:
        return len(self._entries)
