"""repro — Massively Multi-Query Join Processing for XML publish/subscribe.

A from-scratch reproduction of *"Massively Multi-Query Join Processing in
Publish/Subscribe Systems"* (Hong, Demers, Gehrke, Koch, Riedewald, White;
SIGMOD 2007).

The package is organised around the paper's two-stage architecture:

* Stage 1 — the **XPath Evaluator** (:mod:`repro.xpath`): shared evaluation
  of the tree-pattern components of all registered queries, producing
  relational *witnesses*.
* Stage 2 — the **Join Processor** (:mod:`repro.core`): queries are
  partitioned into *query templates* (:mod:`repro.templates`) and all
  queries of a template are evaluated at once by a single relational
  conjunctive query over the witness relations
  (:mod:`repro.relational`), optionally accelerated by the Section 5 view
  materialization.

User-facing entry points:

* :func:`repro.open_broker` + :class:`repro.RuntimeConfig` — the session
  API: one config object for every knob, one factory.
* :class:`repro.pubsub.Broker` — the one broker behind the façade, driving
  one engine shard or many, in process or in worker processes (also
  constructible directly from a config; ``ShardedBroker`` is its
  import-compatible second name).
* Delivery sinks (:mod:`repro.pubsub.sinks`) — pluggable destinations for
  subscription results: callbacks, bounded collections, queues, batches.
* :class:`repro.core.MMQJPEngine` / :class:`repro.core.SequentialEngine` —
  the two engines compared throughout the paper's evaluation.
* :mod:`repro.workloads` — the synthetic benchmark workloads of Section 6
  and a simulated RSS feed stream; ``benchmarks/paper.py``, outside the
  package, runs the evaluation section on them.
* :mod:`repro.metrics` — the observability layer behind
  ``RuntimeConfig(metrics=True)``: counters, latency histograms with
  p50/p95/p99 tails, per-stage timers and per-subscription delivery lag.
"""

from repro.config import ENGINES, RuntimeConfig
from repro.core import MMQJPEngine, SequentialEngine, Match
from repro.metrics import MetricsRegistry
from repro.pubsub import (
    BatchingSink,
    Broker,
    CallbackSink,
    CollectingSink,
    DeliverySink,
    QueueSink,
    Subscription,
    SubscriptionResult,
)
from repro.runtime import ShardedBroker
from repro.session import open_broker
from repro.storage import MemoryStore, SQLiteStore, StateStore
from repro.storage.recovery import RecoveryError
from repro.xmlmodel import XmlDocument, element, parse_document, to_xml
from repro.xscl import parse_query, XsclQuery

__version__ = "1.4.0"

__all__ = [
    # session API
    "RuntimeConfig",
    "open_broker",
    "ENGINES",
    # the broker and subscriptions
    "Broker",
    "ShardedBroker",
    "Subscription",
    "SubscriptionResult",
    # delivery sinks
    "DeliverySink",
    "CallbackSink",
    "CollectingSink",
    "QueueSink",
    "BatchingSink",
    # durable storage
    "StateStore",
    "MemoryStore",
    "SQLiteStore",
    "RecoveryError",
    # observability
    "MetricsRegistry",
    # engines and matches
    "MMQJPEngine",
    "SequentialEngine",
    "Match",
    # documents and queries
    "XmlDocument",
    "element",
    "parse_document",
    "to_xml",
    "parse_query",
    "XsclQuery",
    "__version__",
]
