"""The session façade: one entry point, whatever the runtime topology.

:func:`open_broker` is the blessed way to start a publish/subscribe
session.  It takes a :class:`~repro.config.RuntimeConfig` (or field
overrides, or nothing) and returns a context-managed
:class:`~repro.pubsub.Broker` — the same class for every ``shards`` /
``executor``; the topology is the broker's business, not the caller's:

.. code-block:: python

    import repro

    config = repro.RuntimeConfig(shards=8, executor="processes", construct_outputs=False)
    with repro.open_broker(config) as broker:
        sub = broker.subscribe("...", sink=repro.QueueSink())
        broker.publish_many(documents)
        sub.cancel()          # true retraction: engine state shrinks
"""

from __future__ import annotations

from typing import Optional, Union

from repro.config import RuntimeConfig, as_config
from repro.pubsub.broker import Broker

__all__ = ["open_broker"]


def open_broker(
    config: Union[RuntimeConfig, str, None] = None,
    resume_from: Optional[str] = None,
    **overrides,
) -> Broker:
    """Open a publish/subscribe session for ``config``.

    ``config`` may be a :class:`~repro.config.RuntimeConfig`, an engine
    name string (shorthand for ``RuntimeConfig(engine=...)``), or ``None``
    for the defaults.  Keyword ``overrides`` are applied on top via
    :meth:`RuntimeConfig.replace` — ``open_broker(shards=4)`` is the
    concise spelling of ``open_broker(RuntimeConfig(shards=4))``.

    ``resume_from`` recovers a crashed/closed session from the SQLite
    stores under the given directory (a previous session's
    ``storage_path``): the subscription registry is replayed, join state,
    documents, variable catalog and counters are restored, and the
    returned broker is match-equivalent on future documents to one that
    never restarted (see :mod:`repro.storage.recovery`).  With ``config``
    ``None`` the crashed session's persisted config is reused; delivery
    callbacks and sinks are process-local and must be re-attached via
    ``broker.subscription(sid)``.

    Returns a :class:`repro.pubsub.Broker`, which supports the
    context-manager protocol (``close()`` flushes every subscription's
    delivery sinks, closes the state stores, and shuts down any
    worker processes).
    """
    if resume_from is not None:
        from repro.storage.recovery import resume_broker

        return resume_broker(config, resume_from, overrides)
    config = as_config(config, "open_broker")
    if overrides:
        config = config.replace(**overrides)
    return Broker(config)
