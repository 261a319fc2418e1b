"""Subscription partitioning strategies for the sharded runtime.

A :class:`Partitioner` decides which engine shard owns a newly registered
join subscription.  The one invariant every strategy must uphold is
*template cohesion*: queries that canonicalize to the same CQT (the same
query template, Section 4 of the paper) must land on the same shard —
otherwise the massive sharing that makes MMQJP fast is destroyed by the
sharding that was meant to scale it.  Both built-in strategies therefore
key their decisions on the :func:`template key
<repro.templates.template.reduced_graph_signature>` of the query's reduced
join graph, and remember the first placement of every key.

Cohesion needs only that the key is *invariant*: isomorphic reduced graphs
(one template) always have equal keys.  Two different templates may share
a key — the degree signature does not separate every pair — and then they
simply share a shard, which costs balance, never correctness.

* :class:`HashTemplatePartitioner` — a deterministic digest of the template
  key modulo the shard count.  Stateless placement: two brokers with the
  same shard count agree on every assignment.
* :class:`LeastLoadedPartitioner` — a new template goes to the shard with
  the fewest subscriptions so far; balances skewed template populations
  (Zipf workloads concentrate most queries in few templates).
"""

from __future__ import annotations

import hashlib
from typing import Optional, Union

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
    """Base class: template-cohesive placement of subscriptions on shards."""

    #: Keyword under which the strategy is selectable (``partitioner=...``).
    name = "base"

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
            shard = self._place(key)
            self._assigned[key] = shard
        self.loads[shard] += 1
        return shard

    def release(self, shard: int) -> None:
        """Account for one retracted subscription that lived on ``shard``.

        Decrements that shard's load so load-balancing strategies see the
        true population under subscribe/cancel churn.  Takes the shard, which
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
        per-shard join state is placement-dependent, and a load-sensitive
        strategy replaying only the surviving subscriptions could place a
        template differently.  Updates the load accounting like a normal
        :meth:`shard_for` call, so post-recovery placements balance against
        the true population.  ``key`` is as in :meth:`shard_for`.
        """
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"recorded shard {shard} is out of range for {self.num_shards} shards"
            )
        self._assigned[template_key(query) if key is None else key] = shard
        self.loads[shard] += 1

    def _place(self, key: tuple) -> int:
        raise NotImplementedError

    @property
    def num_template_keys(self) -> int:
        """Distinct template keys seen so far."""
        return len(self._assigned)

    def stats(self) -> dict:
        """Placement statistics for broker dashboards."""
        return {
            "partitioner": self.name,
            "loads": list(self.loads),
            "num_template_keys": self.num_template_keys,
        }


class HashTemplatePartitioner(Partitioner):
    """Deterministic hash of the template key modulo the shard count."""

    name = "hash"

    def _place(self, key: tuple) -> int:
        digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.num_shards


class LeastLoadedPartitioner(Partitioner):
    """New templates go to the currently least-subscribed shard."""

    name = "least-loaded"

    def _place(self, key: tuple) -> int:
        return min(range(self.num_shards), key=lambda s: self.loads[s])


#: Keyword -> strategy class.
PARTITIONERS = {
    HashTemplatePartitioner.name: HashTemplatePartitioner,
    LeastLoadedPartitioner.name: LeastLoadedPartitioner,
}


def make_partitioner(spec: Union[str, Partitioner], num_shards: int) -> Partitioner:
    """Resolve a partitioner keyword (or pass through an instance)."""
    if isinstance(spec, Partitioner):
        if spec.num_shards != num_shards:
            raise ValueError(
                f"partitioner is configured for {spec.num_shards} shards, "
                f"the broker has {num_shards}"
            )
        return spec
    cls = PARTITIONERS.get(spec)
    if cls is None:
        raise ValueError(
            f"unknown partitioner {spec!r}; choose one of {sorted(PARTITIONERS)}"
        )
    return cls(num_shards)
