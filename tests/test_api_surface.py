"""API-surface snapshot: the curated public symbol inventory.

Guards the session-API redesign's contract: additions to the public surface
are deliberate (update the snapshot in the same PR), removals and renames
never happen by accident.  Every symbol in ``__all__`` must also resolve.
"""

from __future__ import annotations

import importlib
import os
import tomllib
from pathlib import Path

import pytest

import repro
import repro.config
import repro.core
import repro.pubsub
import repro.runtime
import repro.storage

REPRO_ALL = {
    # session API
    "RuntimeConfig",
    "open_broker",
    "ENGINES",
    # brokers and subscriptions
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
    # observability and stress
    "MetricsRegistry",
    "StressConfig",
    "run_stress",
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
}

PUBSUB_ALL = {
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
}

RUNTIME_ALL = {
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
}

#: The config names no environment variable: no resolver helpers.
CONFIG_ALL = {
    "ENGINES",
    "PARTITIONERS",
    "EXECUTORS",
    "STORAGE_BACKENDS",
    "DURABILITY_MODES",
    "RuntimeConfig",
    "as_config",
}

STORAGE_ALL = {
    "STORAGE_BACKENDS",
    "DURABILITY_MODES",
    "STABLE_RELATIONS",
    "StateStore",
    "MemoryStore",
    "SQLiteStore",
    "StoredDocument",
    "SubscriptionRecord",
    "resolve_storage",
    "open_member_store",
}

CORE_ALL = {
    "CostBreakdown",
    "ENGINES",
    "EngineStats",
    "make_engine",
    "merge_engine_stats",
    "JoinState",
    "WitnessRelations",
    "Match",
    "ViewCache",
    "MaterializedViews",
    "compute_materialized_views",
    "MMQJPJoinProcessor",
    "SequentialJoinProcessor",
    "RelevanceIndex",
    "MMQJPEngine",
    "SequentialEngine",
}


@pytest.mark.parametrize(
    "module, expected",
    [
        (repro, REPRO_ALL),
        (repro.pubsub, PUBSUB_ALL),
        (repro.runtime, RUNTIME_ALL),
        (repro.core, set(CORE_ALL)),
        (repro.config, CONFIG_ALL),
        (repro.storage, STORAGE_ALL),
    ],
    ids=["repro", "repro.pubsub", "repro.runtime", "repro.core", "repro.config", "repro.storage"],
)
def test_public_symbol_inventory(module, expected):
    actual = set(module.__all__)
    missing = expected - actual
    unexpected = actual - expected
    assert not missing and not unexpected, (
        f"{module.__name__}.__all__ drifted: missing={sorted(missing)} "
        f"unexpected={sorted(unexpected)} — if intentional, update this snapshot"
    )


@pytest.mark.parametrize(
    "module",
    [repro, repro.pubsub, repro.runtime, repro.core, repro.config, repro.storage],
    ids=["repro", "repro.pubsub", "repro.runtime", "repro.core", "repro.config", "repro.storage"],
)
def test_every_public_symbol_resolves(module):
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.{name} does not resolve"


def test_py_typed_marker_ships():
    marker = os.path.join(os.path.dirname(repro.__file__), "py.typed")
    assert os.path.exists(marker), "the py.typed marker must ship with the package"


def test_pyproject_agrees_with_the_package_version():
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        pyproject = tomllib.load(f)
    project = pyproject["project"]
    # The version is written once, in the package, and read from there.
    assert "version" not in project and "version" in project["dynamic"]
    module, _, name = pyproject["tool"]["setuptools"]["dynamic"]["version"]["attr"].rpartition(".")
    assert getattr(importlib.import_module(module), name) == repro.__version__
    # numpy is required: Stage 2 has no kernel without it.
    assert any(dep.startswith("numpy") for dep in project["dependencies"])
    assert "fast" not in project["optional-dependencies"]


def test_subscription_lifecycle_surface():
    """The Subscription handle exposes the full lifecycle contract."""
    for method in ("pause", "resume", "cancel", "deliver", "attach_sink", "flush"):
        assert callable(getattr(repro.Subscription, method, None)), method
