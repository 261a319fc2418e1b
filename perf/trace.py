"""Per-layer timing from outside the program.

:func:`install` replaces each dotted target in :data:`TARGETS` with a wrapper
that records a span (name, start, end, parent) in memory.  A layer's self
time is its span's duration minus the part its child spans cover, so the self
times under one root span add up to that root's duration, and whatever the
targets do not reach is left as the root's own self time
(``pubsub.publish_self_ms``).  Per-row functions are never wrapped.

A target that no longer resolves (a later PR renamed or deleted it and may not
edit this directory) is skipped and listed in :data:`missing`; the layer
metrics that depend on it then read :data:`UNMEASURED`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from array import array
from time import perf_counter

#: Value of a layer metric whose wrap target is gone, or whose source (an
#: engine attribute) is not reachable from the benchmark's process.
UNMEASURED = -1.0

#: (span name, dotted target).  Spans that share a name are summed.
TARGETS = (
    ("publish", "repro.pubsub.broker.Broker.publish"),
    ("publish", "repro.pubsub.broker.Broker.publish_many"),
    ("publish", "repro.runtime.sharded_broker.ShardedBroker.publish"),
    ("publish", "repro.runtime.sharded_broker.ShardedBroker.publish_many"),
    ("subscribe", "repro.pubsub.broker.Broker.subscribe"),
    ("subscribe", "repro.runtime.sharded_broker.ShardedBroker.subscribe"),
    ("cancel", "repro.pubsub.broker.Broker.cancel"),
    ("cancel", "repro.runtime.sharded_broker.ShardedBroker.cancel"),
    ("resume", "repro.storage.recovery.resume_broker"),
    ("xscl.parse_query", "repro.xscl.parser.parse_query"),
    ("templates.add_query", "repro.templates.registry.TemplateRegistry.add_query"),
    ("templates.remove_query", "repro.templates.registry.TemplateRegistry.remove_query"),
    ("xmlmodel.scan", "repro.xmlmodel.stream.scan_text"),
    ("xmlmodel.validate", "repro.xmlmodel.stream.validate_text"),
    ("xmlmodel.parse", "repro.xmlmodel.parser.parse_document"),
    ("xpath.stage1", "repro.xpath.evaluator.XPathEvaluator.evaluate_text"),
    ("xpath.stage1", "repro.xpath.evaluator.XPathEvaluator.evaluate"),
    ("core.witness_build", "repro.core.witnesses.WitnessRelations.from_witnesses"),
    ("core.relevance", "repro.core.relevance.RelevanceIndex.relevant"),
    ("core.process", "repro.core.processor.MMQJPJoinProcessor.process"),
    ("core.engine", "repro.core.engine.MMQJPEngine.process_text"),
    ("core.engine", "repro.core.engine.MMQJPEngine.process_document"),
    ("core.engine", "repro.core.engine.MMQJPEngine.process_batch"),
    ("core.register_query", "repro.core.engine.MMQJPEngine.register_query"),
    ("core.deregister_query", "repro.core.engine.MMQJPEngine.deregister_query"),
    ("core.maintain_state", "repro.core.processor.MMQJPJoinProcessor.maintain_state"),
    ("core.prune", "repro.core.engine.MMQJPEngine.prune"),
    ("relational.delta_reduce", "repro.relational.plan.CompiledPlan.reduced_step_relations"),
    ("relational.columnar_sync", "repro.relational.columnar.ColumnStore.sync"),
    ("relational.plan_execute", "repro.relational.plan.CompiledPlan.execute"),
    ("relational.plan_cache", "repro.relational.plan.PlanCache.evaluate"),
    ("pubsub.deliver", "repro.pubsub.subscription.Subscription.deliver"),
    ("runtime.route", "repro.runtime.router.ShardRouter.route"),
    ("runtime.wire_encode", "repro.runtime.wire.encode_document_batch"),
    ("runtime.wire_encode", "repro.runtime.wire.WireBuffer.pack"),
    ("runtime.dispatch_wait", "repro.runtime.executor.ProcessExecutor.invoke"),
    ("runtime.match_decode", "repro.runtime.process.decode_match_batch"),
    ("storage.commit_epoch", "repro.storage.sqlite.SQLiteStore.commit_epoch"),
    ("storage.write", "repro.storage.sqlite.SQLiteStore.begin_epoch"),
    ("storage.write", "repro.storage.sqlite.SQLiteStore.upsert_rows"),
    ("storage.write", "repro.storage.sqlite.SQLiteStore.delete_documents"),
    ("storage.write", "repro.storage.sqlite.SQLiteStore.set_meta"),
    ("storage.save_subscription", "repro.storage.sqlite.SQLiteStore.save_subscription"),
    ("storage.remove_subscription", "repro.storage.sqlite.SQLiteStore.remove_subscription"),
    ("storage.recover_catalog", "repro.storage.recovery.recover_engine_catalog"),
    ("storage.restore_state", "repro.storage.recovery.restore_engine_state"),
)


def _witness_rows(relations) -> int:
    return len(relations.rbinw.rows) + len(relations.rdocw.rows) + len(relations.rvarw.rows)


#: Spans whose result is also counted, at the boundary where it is produced.
MEASURES = {"core.witness_build": _witness_rows}

names: list = []  # span name of each name id
# One span per index, children after their parent.  Flat arrays, not a list of
# tuples: a million tracked tuples on a large heap make the collector's full
# passes, and so the traced run, measurably slower.
span_name = array("l")
span_parent = array("l")  # index of the enclosing span, -1 for a root
span_start = array("d")
span_end = array("d")
counts: dict = {}  # name id -> sum of MEASURES over its spans
missing: list = []  # dotted targets that did not resolve
recording = False  # wrappers pass straight through while this is off
_stack: list = []


def _stop_in_child() -> None:
    # Forked shard workers inherit the wrappers; their spans would be lost
    # with the worker, so workers pay only the flag check.
    global recording
    recording = False


def _wrapper(fn, name_id: int, measure):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        nonlocal measure
        if not recording:
            return fn(*args, **kwargs)
        index = len(span_name)
        span_name.append(name_id)
        span_parent.append(_stack[-1] if _stack else -1)
        span_end.append(0.0)
        _stack.append(index)
        span_start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            span_end[index] = perf_counter()
            _stack.pop()
        if measure is not None:
            try:
                counts[name_id] = counts.get(name_id, 0) + measure(result)
            except AttributeError:
                counts[name_id] = None  # the result's shape changed: unmeasured
                measure = None
        return result

    return traced


def _resolve(dotted: str):
    """``(owner, attribute name)`` of a dotted target, importing its module."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part)
        getattr(owner, parts[-1])
        return owner, parts[-1]
    raise AttributeError(dotted)


def install() -> None:
    """Wrap every target that resolves; call once, before a broker exists."""
    os.register_at_fork(after_in_child=_stop_in_child)
    for name, dotted in TARGETS:
        try:
            owner, attr = _resolve(dotted)
        except AttributeError:
            missing.append(dotted)
            continue
        if name not in names:
            names.append(name)
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        traced = _wrapper(original, names.index(name), MEASURES.get(name))
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        if inspect.ismodule(owner):
            # ``from module import function`` copied the reference into other
            # modules' globals before we got here; repoint those as well.
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, traced)


class Summary:
    """Self times and call counts by span name: whole session, and timed section."""

    def __init__(self, start: float, end: float):
        """Aggregate the recorded spans; ``start``..``end`` is the timed section."""
        spans = list(zip(span_name, span_start, span_end, span_parent))
        self_time = [0.0] * len(spans)
        root_of = [0] * len(spans)
        for index, (name_id, begin, finish, parent) in enumerate(spans):
            self_time[index] += finish - begin
            if parent < 0:
                root_of[index] = index
            else:
                self_time[parent] -= finish - begin
                root_of[index] = root_of[parent]
        self.calls: dict = {}  # name -> calls in the whole session
        self.self_s: dict = {}  # name -> self seconds in the whole session
        self.duration_s: dict = {}  # name -> summed durations in the whole session
        self.timed_calls: dict = {}  # calls under the timed section's publish roots
        self.timed_self_s: dict = {}  # self seconds under those
        self.timed_publish_s = 0.0  # summed durations of those roots
        self.section_self_s: dict = {}  # self seconds under any root of the timed section
        self.section_spans = 0  # spans recorded under those roots
        publish = names.index("publish") if "publish" in names else -1
        for index, (name_id, begin, finish, parent) in enumerate(spans):
            name = names[name_id]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + self_time[index]
            self.duration_s[name] = self.duration_s.get(name, 0.0) + finish - begin
            root = spans[root_of[index]]
            if not (start <= root[1] and root[2] <= end):
                continue
            self.section_self_s[name] = self.section_self_s.get(name, 0.0) + self_time[index]
            self.section_spans += 1
            if root[0] == publish:
                self.timed_calls[name] = self.timed_calls.get(name, 0) + 1
                self.timed_self_s[name] = (
                    self.timed_self_s.get(name, 0.0) + self_time[index]
                )
                if parent < 0:
                    self.timed_publish_s += finish - begin

    def shares(self) -> dict:
        """Each span name's share of the timed section's traced time, largest first."""
        total = sum(self.section_self_s.values())
        ranked = sorted(self.section_self_s.items(), key=lambda item: -item[1])
        return {name: seconds / total for name, seconds in ranked} if total else {}

    def measured(self, *span_names: str) -> bool:
        """Whether every target feeding these span names resolved."""
        wanted = {dotted for name, dotted in TARGETS if name in span_names}
        return not wanted.intersection(missing)

    def ms_per(self, documents: int, *span_names: str) -> float:
        """Mean self milliseconds per timed document, under publish roots."""
        if not self.measured(*span_names):
            return UNMEASURED
        total = sum(self.timed_self_s.get(name, 0.0) for name in span_names)
        return total * 1e3 / documents

    def us_per_call(self, span_name: str) -> float:
        """Mean self microseconds per call, over the whole session."""
        if not self.measured(span_name):
            return UNMEASURED
        calls = self.calls.get(span_name, 0)
        return self.self_s.get(span_name, 0.0) * 1e6 / calls if calls else 0.0


def span_cost(calls: int = 50000) -> float:
    """Seconds one recorded span adds to the traced run, measured on a no-op.

    ``trace.overhead_share`` is this times the spans of the timed section over
    its length.  Comparing a traced with an untraced run instead would need
    many pairs: on this machine two identical runs differ by several percent.
    """
    global recording

    def noop():
        pass

    traced = _wrapper(noop, 0, None)
    kept = len(span_name)
    was, recording = recording, True
    start = perf_counter()
    for _ in range(calls):
        traced()
    middle = perf_counter()
    for _ in range(calls):
        noop()
    end = perf_counter()
    recording = was
    for column in (span_name, span_parent, span_start, span_end):
        del column[kept:]
    return max((middle - start) - (end - middle), 0.0) / calls


def span_records() -> list:
    """The recorded spans as dictionaries, for ``trace-<workload>.json``.

    ``op`` numbers the root spans: every span of one publish, subscribe or
    cancel call shares it.
    """
    records = []
    op_of: list = []
    op = -1
    for name_id, begin, finish, parent in zip(span_name, span_start, span_end, span_parent):
        if parent < 0:
            op += 1
            op_of.append(op)
        else:
            op_of.append(op_of[parent])
        records.append(
            {"name": names[name_id], "start": begin, "end": finish, "parent": parent,
             "op": op_of[-1]}
        )
    return records
