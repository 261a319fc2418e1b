"""A config means what it says: the package reads no environment.

A suite reruns under another configuration through the test-side
``--replay FIELD=VALUE`` option (:func:`tests.conftest.replay_defaults`),
which replaces ``RuntimeConfig``'s defaults and nothing else.
"""

from __future__ import annotations

import pathlib
import re

import pytest

import repro
from repro import RuntimeConfig, open_broker
from tests.conftest import replay_defaults

SRC = pathlib.Path(repro.__file__).parent


def test_the_package_reads_no_environment():
    pattern = re.compile(r"os\.environ|getenv|REPRO_")
    offenders = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert offenders == []


@pytest.fixture
def restore_defaults():
    saved = RuntimeConfig.__init__.__defaults__
    yield
    RuntimeConfig.__init__.__defaults__ = saved


@pytest.mark.parametrize(
    "spec",
    [
        "ingest=tree", "metrics", "shards=0", "executor=fibers", "columnar=maybe", "storage=etcd",
        "executor=threads", "max_workers=2",
    ],
)
def test_a_bad_replay_is_a_usage_error(spec, restore_defaults):
    before = RuntimeConfig()
    with pytest.raises(pytest.UsageError):
        replay_defaults(["metrics=True", spec])
    assert RuntimeConfig() == before  # nothing was half-applied


def test_explicit_values_beat_replayed_defaults(restore_defaults):
    replay_defaults(["metrics=True", "route_dispatch=False", "stream_history=2", "executor=processes"])
    config = RuntimeConfig()
    assert (config.metrics, config.route_dispatch, config.stream_history) == (True, False, 2)
    assert config.executor == "processes"
    explicit = RuntimeConfig(metrics=False, route_dispatch=True, executor="serial")
    assert (explicit.metrics, explicit.route_dispatch, explicit.executor) == (False, True, "serial")
    assert explicit.replace(shards=2).executor == "serial"
    with open_broker(RuntimeConfig(construct_outputs=False)) as broker:
        assert broker.metrics is not None and broker.stats()["executor"] == "processes"


def test_presets_apply_their_own_values_over_a_replay(restore_defaults):
    replay_defaults(["metrics=True", "storage=sqlite", "engine=mmqjp-vm"])
    ablation = RuntimeConfig.ablation(engine="sequential")
    assert ablation.engine == "sequential"
    assert not ablation.route_dispatch
    assert ablation.metrics and ablation.storage == "sqlite"  # what it leaves alone
    assert RuntimeConfig.ablation(shards=4).storage == "sqlite"
