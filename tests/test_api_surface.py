"""API-surface snapshot: the curated public symbol inventory.

Guards the session-API redesign's contract: additions to the public surface
are deliberate (update the snapshot in the same PR), removals and renames
never happen by accident.  Every symbol in ``__all__`` must also resolve.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
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
    "template_key",
    "ProcessExecutor",
    "ProcessShardHandle",
    "ShardWorkerError",
    "ShardRouter",
}

#: The config names no environment variable: no resolver helpers.
CONFIG_ALL = {
    "ENGINES",
    "EXECUTORS",
    "STORAGE_BACKENDS",
    "RuntimeConfig",
    "as_config",
}

STORAGE_ALL = {
    "STORAGE_BACKENDS",
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
    assert "fast" not in project["optional-dependencies"]


def test_numpy_is_the_only_runtime_dependency():
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    # numpy is required: Stage 2 has no kernel without it.  networkx serves
    # only the matcher's reference test.
    assert project["dependencies"] == ["numpy>=1.24"]
    assert "networkx>=3.0" in project["optional-dependencies"]["dev"]


_WITHOUT_NETWORKX = """
import sys
sys.modules["networkx"] = None  # importing it now raises ImportError
from repro import RuntimeConfig, open_broker
from repro.xmlmodel.parser import parse_document
from tests.conftest import (
    PAPER_Q1, PAPER_Q2, PAPER_Q3, PAPER_WINDOWS, make_blog_article, make_book_announcement,
)
from tests.oracle import Oracle

left, right = [5, 2, 7, 0, 3, 6, 1, 4], [1, 6, 0, 4, 7, 2, 5, 3]
block = lambda order: "S//t7_root->r" + "".join(f"[.//t7_leaf{i}->v{i}]" for i in order)
joins = " AND ".join(f"v{l}=v{r}" for l, r in zip(left, right))
TOPIC7 = f"{block(left)} FOLLOWED BY{{{joins}, 100}} {block(right)}"
topic = lambda docid, ts, value: parse_document(
    "<t7_root>" + "".join(f"<t7_leaf{i}>{value}</t7_leaf{i}>" for i in range(8)) + "</t7_root>",
    docid=docid, timestamp=ts,
)
documents = lambda: [
    make_book_announcement("bk0", 1.0), make_blog_article("bl0", 2.0),
    make_blog_article("bl1", 3.0), topic("td0", 4.0, "x"), topic("td1", 5.0, "x"),
    topic("td2", 6.0, "y"),
]
for shards in (1, 2):
    broker = open_broker(RuntimeConfig(shards=shards, executor="serial", auto_timestamp=False))
    oracle = Oracle()
    for sid, text in (("q1", PAPER_Q1), ("q2", PAPER_Q2), ("q3", PAPER_Q3), ("t7", TOPIC7)):
        for target in (broker, oracle):
            target.subscribe(text, subscription_id=sid, window_symbols=PAPER_WINDOWS)
    delivered = set()
    for document, twin in zip(documents(), documents()):
        got = {
            (d.subscription_id, d.match.lhs_docid, d.match.rhs_docid)
            for d in broker.publish(document)
        }
        assert got == oracle.publish(twin), (shards, document.docid, got)
        delivered |= got
    broker.close()
    assert {sid for sid, _, _ in delivered} == {"q1", "q2", "q3", "t7"}, delivered
assert not [name for name in sys.modules if name.startswith("networkx.")]
print("ok")
"""


def test_a_session_runs_without_networkx():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    run = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NETWORKX],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"


def test_subscription_lifecycle_surface():
    """The Subscription handle exposes the full lifecycle contract."""
    for method in ("pause", "resume", "cancel", "deliver", "attach_sink", "flush"):
        assert callable(getattr(repro.Subscription, method, None)), method
