"""The parallel runtime: what :class:`repro.pubsub.Broker` drives its shards with.

The paper's engine is a single shared pipeline; this package holds the
pieces that take it from one core to many.  The broker partitions join
subscriptions across N independent :class:`~repro.runtime.shard.EngineShard`
instances (template-cohesively, so the CQT sharing of Section 4 survives
inside every shard), fans each published document out to the shards that
can bind it through a pluggable executor, and merges matches, statistics
and cost breakdowns back into one broker-level view.

* :mod:`~repro.runtime.shard` — one engine shard: the seam between the
  broker and an engine, in process or (same surface) in a worker.
* :mod:`~repro.runtime.partition` — hash-by-template and least-loaded
  placement strategies.
* :mod:`~repro.runtime.executor` — serial (deterministic), thread-pool and
  process-pipelined execution of the per-shard tasks.
* :mod:`~repro.runtime.process` — the process runtime: engines living in
  long-lived worker processes behind pipe-command shard handles.
* :mod:`~repro.runtime.router` — relevance-aware fan-out routing: documents
  are dispatched only to the shards hosting templates they can bind.
* ``ShardedBroker`` — import-compatible second name of the one broker
  (:mod:`~repro.runtime.sharded_broker`).
"""

from repro.runtime.executor import (
    EXECUTORS,
    ProcessExecutor,
    SerialExecutor,
    ShardExecutor,
    ThreadedExecutor,
    make_executor,
)
from repro.runtime.process import ProcessShardHandle, ShardWorkerError, ShardWorkerGroup
from repro.runtime.router import ShardRouter
from repro.runtime.partition import (
    PARTITIONERS,
    HashTemplatePartitioner,
    LeastLoadedPartitioner,
    Partitioner,
    make_partitioner,
    template_key,
)
from repro.runtime.shard import EngineShard

__all__ = [
    "ShardedBroker",
    "EngineShard",
    "Partitioner",
    "HashTemplatePartitioner",
    "LeastLoadedPartitioner",
    "PARTITIONERS",
    "make_partitioner",
    "template_key",
    "ShardExecutor",
    "SerialExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "EXECUTORS",
    "make_executor",
    "ProcessShardHandle",
    "ShardWorkerGroup",
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
