"""Import-compatible home of the ``ShardedBroker`` name.

There is one broker, :class:`repro.pubsub.Broker`; it drives one shard or
many (see its module docstring).  ``ShardedBroker`` is kept so existing
imports keep working, as a subclass with no behaviour of its own — a
subclass rather than an alias so that tools patching both
``Broker.<method>`` and ``ShardedBroker.<method>`` wrap each class once.
:func:`repro.open_broker` always returns a plain :class:`Broker`.
"""

from repro.pubsub.broker import Broker

__all__ = ["ShardedBroker"]


class ShardedBroker(Broker):
    """:class:`repro.pubsub.Broker` under its historical second name."""
