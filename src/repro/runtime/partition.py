"""Template-cohesive placement of join subscriptions on engine shards.

A :class:`Partitioner` decides which engine shard owns a newly registered
join subscription.  The one invariant it upholds is *template cohesion*:
queries that canonicalize to the same CQT (the same query template,
Section 4 of the paper) land on the same shard — otherwise the massive
sharing that makes MMQJP fast is destroyed by the sharding that was meant
to scale it.  Placement is therefore keyed on the :func:`template key
<repro.templates.template.reduced_graph_signature>` of the query's reduced
join graph, and the first placement of every key is remembered.

Cohesion needs only that the key is *invariant*: isomorphic reduced graphs
(one template) always have equal keys.  Two different templates may share
a key — the degree signature does not separate every pair — and then they
simply share a shard, which costs balance, never correctness.

A new key goes to the shard with the fewest subscriptions so far (the
lowest shard id on a tie), so templates of equal population spread evenly.
"""

from __future__ import annotations

from typing import Optional

from repro.templates.join_graph import JoinGraph
from repro.templates.minor import reduce_join_graph
from repro.templates.template import reduced_graph_signature
from repro.xscl.ast import XsclQuery


def template_key(query: XsclQuery) -> tuple:
    """The partitioning key of a join query: its reduced-graph signature.

    The signature is invariant under variable renaming, so canonicalization
    (which only renames variables) cannot change it — computing it on the raw
    query is equivalent to computing it on the canonical form the engines use.
    """
    return reduced_graph_signature(reduce_join_graph(JoinGraph.from_query(query)))


class Partitioner:
    """Template-cohesive placement: a new template goes to the least-loaded shard."""

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        self.num_shards = num_shards
        #: Subscriptions placed per shard (updated on every assignment).
        self.loads = [0] * num_shards
        self._assigned: dict[tuple, int] = {}

    def shard_for(self, query: XsclQuery, key: Optional[tuple] = None) -> int:
        """The shard that must own ``query`` (stable per template key).

        ``key`` is the query's :func:`template_key`, when the caller already
        derived it.
        """
        if key is None:
            key = template_key(query)
        shard = self._assigned.get(key)
        if shard is None:
            shard = min(range(self.num_shards), key=self.loads.__getitem__)
            self._assigned[key] = shard
        self.loads[shard] += 1
        return shard

    def release(self, shard: int) -> None:
        """Account for one retracted subscription that lived on ``shard``.

        Decrements that shard's load so later placements see the true
        population under subscribe/cancel churn.  Takes the shard, which
        the broker already remembers per subscription, rather than the
        query: re-deriving the template key would reduce the join graph
        again on every cancel.  The template → shard assignment itself is
        kept: template cohesion must hold across a cancel → resubscribe
        cycle, and a revived template returns to its original shard.
        """
        if self.loads[shard] > 0:
            self.loads[shard] -= 1

    def restore_assignment(
        self, query: XsclQuery, shard: int, key: Optional[tuple] = None
    ) -> None:
        """Force ``query``'s template onto ``shard`` (crash-recovery replay).

        Recovery must reproduce the crashed session's recorded placements —
        per-shard join state is placement-dependent, and replaying only the
        surviving subscriptions could place a template differently.
        Updates the load accounting like a normal :meth:`shard_for` call,
        so post-recovery placements balance against the true population.
        ``key`` is as in :meth:`shard_for`.
        """
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"recorded shard {shard} is out of range for {self.num_shards} shards"
            )
        self._assigned[template_key(query) if key is None else key] = shard
        self.loads[shard] += 1

    @property
    def num_template_keys(self) -> int:
        """Distinct template keys seen so far."""
        return len(self._assigned)

    def stats(self) -> dict:
        """Placement statistics for broker dashboards."""
        return {"loads": list(self.loads), "num_template_keys": self.num_template_keys}
