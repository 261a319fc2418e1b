"""The parallel runtime: what :class:`repro.pubsub.Broker` drives its shards with.

The paper's engine is a single shared pipeline; this package holds the
pieces that take it from one core to many.  The broker partitions join
subscriptions across N independent :class:`~repro.runtime.shard.EngineShard`
instances (template-cohesively, so the CQT sharing of Section 4 survives
inside every shard), fans each published document out to the shards that
can bind it, and merges matches, statistics and cost breakdowns back into
one broker-level view.  Shards run in one of two topologies: in the
broker's process, called in a loop, or one per worker process.

* :mod:`~repro.runtime.shard` — one engine shard: the seam between the
  broker and an engine, in process or (same surface) in a worker.
* :mod:`~repro.runtime.partition` — template-cohesive placement: a new
  template goes to the least-loaded shard.
* :mod:`~repro.runtime.executor` — pipelined dispatch to process shards:
  every worker's request is written before any reply is read.
* :mod:`~repro.runtime.process` — the process runtime: one engine per
  long-lived worker process, behind a pipe-command shard handle.
* :mod:`~repro.runtime.router` — relevance-aware fan-out routing: documents
  are dispatched only to the shards hosting templates they can bind.
* ``ShardedBroker`` — import-compatible second name of the one broker
  (:mod:`~repro.runtime.sharded_broker`).
"""

from repro.runtime.executor import ProcessExecutor
from repro.runtime.process import ProcessShardHandle, ShardWorkerError
from repro.runtime.router import ShardRouter
from repro.runtime.partition import Partitioner, template_key
from repro.runtime.shard import EngineShard

__all__ = [
    "ShardedBroker",
    "EngineShard",
    "Partitioner",
    "template_key",
    "ProcessExecutor",
    "ProcessShardHandle",
    "ShardWorkerError",
    "ShardRouter",
]


def __getattr__(name: str):
    # ShardedBroker subclasses repro.pubsub.Broker, which imports this
    # package's modules: resolving the name on first access (PEP 562), not
    # at import, keeps that dependency one-way.
    if name == "ShardedBroker":
        from repro.runtime.sharded_broker import ShardedBroker

        return ShardedBroker
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
