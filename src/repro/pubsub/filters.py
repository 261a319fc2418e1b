"""The broker's front end for single-block filter subscriptions.

:class:`repro.pubsub.Broker` evaluates simple (non-join) subscriptions
once, centrally, against a shared Stage 1 evaluator — only join
subscriptions go to the engine shards.  Matching scans the published text;
a delivery carries the document as a tree — the published one, or the text
parsed once, and only when some filter subscription matched.  This
module owns that front end, including *retraction*: a cancelled filter
subscription's pattern variables are reference-counted and withdrawn from
the evaluator when their last subscription is gone, mirroring the engines'
``deregister_query`` path.
"""

from __future__ import annotations

from typing import Optional

from repro.pubsub.subscription import Subscription, SubscriptionResult
from repro.xmlmodel.document import XmlDocument
from repro.xmlmodel.parser import parse_document
from repro.xpath.evaluator import Stage1Registrations, XPathEvaluator

__all__ = ["FilterFrontEnd", "deliver_filter_matches"]


def deliver_filter_matches(
    evaluator: XPathEvaluator,
    filter_subscriptions: dict[str, Subscription],
    record: tuple,
    document: Optional[XmlDocument] = None,
) -> list[SubscriptionResult]:
    """Evaluate all single-block filter subscriptions against one document.

    ``record`` is the document's ``(text, docid, timestamp, stream)`` form,
    which is what is matched; ``document`` is its tree when one was
    published, else the text is parsed at the first match.  Deliveries go
    through :meth:`Subscription.deliver`, i.e. through the subscription's
    sinks — the filter path and the join path are symmetric.
    """
    if not filter_subscriptions:
        return []
    witnesses = evaluator.evaluate_text(*record)
    deliveries: list[SubscriptionResult] = []
    for sid, subscription in filter_subscriptions.items():
        if not subscription.active:
            continue
        root_var = subscription.query.left.root_variable
        block_vars = subscription.query.left.variables()
        matched_var = root_var if root_var is not None else (block_vars[0] if block_vars else None)
        if matched_var is not None and witnesses.var_nodes.get(matched_var):
            if document is None:
                document = parse_document(*record)
            result = SubscriptionResult(subscription_id=sid, document=document)
            subscription.deliver(result)
            deliveries.append(result)
    return deliveries


class FilterFrontEnd:
    """Registration, evaluation and retraction of filter subscriptions."""

    def __init__(self) -> None:
        self.evaluator = XPathEvaluator()
        self.subscriptions: dict[str, Subscription] = {}
        self._stage1 = Stage1Registrations()

    def register(self, sid: str, subscription: Subscription) -> None:
        """Register one filter subscription's pattern with the shared evaluator."""
        pattern = subscription.query.left.pattern
        variables = tuple(pattern.variables())
        edges: list[tuple[str, str]] = []
        for var in variables:
            parent = pattern.parent_of(var)
            if parent is not None:
                edges.append((parent, var))
        self.evaluator.register_pattern(pattern)
        self.subscriptions[sid] = subscription
        self._stage1.record(sid, variables, edges)

    def cancel(self, sid: str) -> bool:
        """Retract one filter subscription; returns whether it was registered.

        Pattern variables and edges shared with other filter subscriptions
        (identical names must have identical definitions, enforced at
        registration) survive until their last subscription is cancelled.
        """
        if self.subscriptions.pop(sid, None) is None:
            return False
        dead_vars, dead_edges = self._stage1.withdraw(sid)
        if dead_vars or dead_edges:
            self.evaluator.deregister(variables=dead_vars, edges=dead_edges)
        return True

    def __contains__(self, sid: str) -> bool:
        return sid in self.subscriptions

    def deliver(
        self, record: tuple, document: Optional[XmlDocument] = None
    ) -> list[SubscriptionResult]:
        """Deliver one document to every active filter subscription."""
        return deliver_filter_matches(self.evaluator, self.subscriptions, record, document)

    @property
    def num_subscriptions(self) -> int:
        """Currently registered (non-cancelled) filter subscriptions."""
        return len(self.subscriptions)
