"""What the program must deliver, by nested loops over the join window.

The oracle never sees XSCL or XML: it works on the facts ``perf.inputs``
records beside each string (:class:`~perf.inputs.Sub`, :class:`~perf.inputs.Doc`),
so it shares no code with the program.  A subscription live when document B
is published gets one delivery per earlier document A within the window and
per value A and B share, keyed ``(subscription id, A's ordinal, B's ordinal)``
- the ordinals being the auto-assigned timestamps 1, 2, 3, ...

That rule is the program's semantics only while every path a subscription
binds was already bound when A arrived (Stage 1 computes witnesses on
arrival).  Static populations satisfy it trivially; the churn workload keeps
one never-cancelled tracker per venue so that it always holds.
"""

from __future__ import annotations

import hashlib
from collections import Counter, deque

from perf.inputs import Doc, Sub


class Oracle:
    def __init__(self, window: int):
        self._window = window
        self._recent: deque = deque()  # (ordinal, Doc), oldest first
        self._clock = 0
        self._subs: dict = {}  # sid -> Sub
        # (kind, group_a, group_b) -> {sid: None}, insertion-ordered
        self._groups: dict = {}

    def subscribe(self, sid: str, sub: Sub) -> None:
        self._subs[sid] = sub
        self._groups.setdefault(sub[1:], {})[sid] = None

    def cancel(self, sid: str) -> None:
        sub = self._subs.pop(sid)
        del self._groups[sub[1:]][sid]

    def publish(self, doc: Doc) -> Counter:
        """Expected deliveries of one published document, as a key multiset."""
        self._clock += 1
        now = self._clock
        recent = self._recent
        while recent and now - recent[0][0] > self._window:
            recent.popleft()
        expected: Counter = Counter()
        groups = self._groups
        for then, earlier in recent:
            same_title = earlier.title == doc.title
            if earlier.group == doc.group:
                shared = len(earlier.values & doc.values)
                if shared:
                    for sid in groups.get(("co", doc.group, doc.group), ()):
                        expected[(sid, then, now)] += shared
                    if same_title:
                        for sid in groups.get(("tracker", doc.group, doc.group), ()):
                            expected[(sid, then, now)] += shared
            if same_title:
                for sid in groups.get(("echo", earlier.group, doc.group), ()):
                    expected[(sid, then, now)] += 1
        recent.append((now, doc))
        return expected


def digest(keys: Counter) -> str:
    """Order-independent digest of a key multiset."""
    total = 0
    for key, count in keys.items():
        total += count * int.from_bytes(
            hashlib.blake2b(repr(key).encode(), digest_size=8).digest(), "big"
        )
    return f"{total % (1 << 64):016x}"
