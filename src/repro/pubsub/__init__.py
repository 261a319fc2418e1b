"""The publish/subscribe layer: streams, subscriptions, and the broker.

This is the user-facing face of the system: publishers push XML documents
into named streams, subscribers register XSCL queries (simple single-block
filters or inter-document join queries) and receive matches through
callbacks and sinks.  Internally the broker delegates join queries to one or
more shards of a Stage 2 engine (:class:`~repro.core.engine.MMQJPEngine` by
default), as ``RuntimeConfig(shards=N, executor=...)`` says.
"""

from repro.pubsub.subscription import DEFAULT_RESULT_LIMIT, Subscription, SubscriptionResult
from repro.pubsub.sinks import (
    BatchingSink,
    CallbackSink,
    CollectingSink,
    DeliverySink,
    QueueSink,
)
from repro.pubsub.stream import Stream, StreamRegistry
from repro.pubsub.filters import FilterFrontEnd
from repro.pubsub.broker import Broker

__all__ = [
    "Subscription",
    "SubscriptionResult",
    "DEFAULT_RESULT_LIMIT",
    "DeliverySink",
    "CallbackSink",
    "CollectingSink",
    "QueueSink",
    "BatchingSink",
    "Stream",
    "StreamRegistry",
    "FilterFrontEnd",
    "Broker",
]
