"""Relevance-pruned dispatch: from bound Stage-1 variables to the work to do.

The paper's central scaling claim is that per-document work must grow with
the queries *relevant* to the event, not with the total registry.  Stage 1
already tells us exactly which (canonical) variables the current document
bound; every conjunctive query whose right-hand-side (current-document)
variables are not all among them is guaranteed to evaluate to the empty
relation, because each RHS variable's name is constrained by an ``RbinW`` /
``RvarW`` (or ``RR`` / ``RRvar``) atom that can have no matching witness
row.

:class:`RelevanceIndex` is the inverted index the processors consult per
document: *members* (one per registered query, keyed by a caller-chosen
*member key* — the query id — and grouped under a caller-chosen *group* —
the template id for MMQJP, the query id for the Sequential baseline) are
posted under each of their required RHS variables, and
:meth:`RelevanceIndex.relevant` returns the groups with at least one member
whose required variables are all bound.  The per-document cost is
proportional to the postings of the *bound* variables (≈ the relevant
queries), never to the total registry.

Members are individually removable (:meth:`RelevanceIndex.remove`): when a
subscription is cancelled its postings disappear, so the index shrinks with
the registry instead of accumulating dead queries forever.

The sharded runtime reuses the same structure one level up:
:class:`~repro.runtime.router.ShardRouter` posts each join subscription's
block variables under its owning *shard*, turning the broker's document
fan-out into a relevance query — only the shards hosting templates the
document can bind are dispatched to.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Optional

__all__ = ["RelevanceIndex"]


class RelevanceIndex:
    """Inverted index from required (RHS) variables to dispatch groups."""

    def __init__(self) -> None:
        # member key -> (group, required variable set); excludes always-on members
        self._members: dict[Hashable, tuple[Hashable, frozenset]] = {}
        # variable -> member keys of the members requiring it
        self._postings: dict[str, set[Hashable]] = {}
        # member key -> group, for members requiring nothing (always dispatched)
        self._always: dict[Hashable, Hashable] = {}
        self._anon = itertools.count()

    def add(
        self,
        group: Hashable,
        required_vars: Iterable[str],
        member: Optional[Hashable] = None,
    ) -> Hashable:
        """Register one member of ``group`` requiring ``required_vars``.

        ``member`` is the key under which the posting can later be removed
        (the processors pass the query id); an anonymous key is minted when
        omitted.  A member with no required variables makes its group
        unconditionally relevant (defensive: canonical join queries always
        bind at least one RHS variable).  Returns the member key.
        """
        if member is None:
            member = ("anon", next(self._anon))
        if member in self._members or member in self._always:
            raise ValueError(f"relevance member {member!r} is already registered")
        required = frozenset(required_vars)
        if not required:
            self._always[member] = group
            return member
        self._members[member] = (group, required)
        for variable in required:
            self._postings.setdefault(variable, set()).add(member)
        return member

    def remove(self, member: Hashable) -> bool:
        """Remove one member's postings (subscription retraction path).

        Returns ``True`` when the member was present.
        """
        if member in self._always:
            del self._always[member]
            return True
        entry = self._members.pop(member, None)
        if entry is None:
            return False
        for variable in entry[1]:
            postings = self._postings.get(variable)
            if postings is not None:
                postings.discard(member)
                if not postings:
                    del self._postings[variable]
        return True

    def has_member(self, member: Hashable) -> bool:
        """Whether ``member`` currently has postings in the index."""
        return member in self._members or member in self._always

    def relevant(self, bound_variables: set[str]) -> set[Hashable]:
        """Groups with at least one member whose requirements are all bound."""
        relevant = set(self._always.values())
        if not self._members or not bound_variables:
            return relevant
        candidates: set[Hashable] = set()
        postings = self._postings
        for variable in bound_variables:
            members = postings.get(variable)
            if members:
                candidates.update(members)
        members_map = self._members
        for member in candidates:
            group, required = members_map[member]
            if group not in relevant and required <= bound_variables:
                relevant.add(group)
        return relevant

    @property
    def num_members(self) -> int:
        """Number of registered members (queries)."""
        return len(self._members) + len(self._always)

    @property
    def num_variables(self) -> int:
        """Number of variables with at least one posting (index width)."""
        return len(self._postings)

    @property
    def num_groups(self) -> int:
        """Number of distinct dispatch groups."""
        return len(
            {group for group, _ in self._members.values()} | set(self._always.values())
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RelevanceIndex members={self.num_members} "
            f"vars={len(self._postings)}>"
        )
