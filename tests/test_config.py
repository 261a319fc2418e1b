"""RuntimeConfig: validation, presets, and what the constructors accept."""

from __future__ import annotations

import dataclasses

import pytest

from repro import Broker, MMQJPEngine, RuntimeConfig, SequentialEngine, open_broker
from repro.config import (
    ENGINES,
    EXECUTORS,
    as_config,
)
from repro.core.engine import make_engine


# --------------------------------------------------------------------------- #
# validation: the single point for every knob
# --------------------------------------------------------------------------- #
def test_config_defaults_are_valid():
    config = RuntimeConfig()
    assert config.engine == "mmqjp"
    assert not config.is_sharded
    assert config.resolve_store_documents() is True


@pytest.mark.parametrize(
    "kwargs",
    [
        {"engine": "turbo"},
        {"shards": 0},
        {"stream_history": -1},
        {"result_limit": 0},
        # integer fields take an int, not a float, a string or a bool
        {"shards": 2.5},
        {"shards": True},
        {"shards": "2"},
        {"stream_history": "2"},
        {"stream_history": False},
        {"stream_history": 1.5},
        {"result_limit": "16"},
        {"result_limit": True},
        {"result_limit": 2.0},
        {"executor": "threads"},
        {"executor": "fibers"},
        {"route_dispatch": 1},
        # every switch is type-checked, store_documents included
        {"construct_outputs": "no"},
        {"auto_prune": 0},
        {"auto_timestamp": None},
        {"storage": "etcd"},
        # a store path without the SQLite backend would be silently ignored
        {"storage_path": "broker.sqlite3"},
        {"metrics": 1},
        {"store_documents": "no"},
        {"store_documents": 1},
    ],
)
def test_config_validation_rejects_bad_values(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        RuntimeConfig(**kwargs)


def test_stage_two_has_no_switch_for_how_it_evaluates():
    assert len(dataclasses.fields(RuntimeConfig)) == 13
    for removed in (
        "plan_cache", "prune_dispatch", "delta_join", "columnar", "max_workers", "view_cache_size",
        "durability", "partitioner",
    ):
        with pytest.raises(TypeError):
            RuntimeConfig(**{removed: False})
    engine = make_engine(RuntimeConfig())
    assert not hasattr(engine, "columnar") and engine.processor.env.dictionary is not None


def test_config_keyword_tuples_match_canonical_definitions():
    from repro.core.engine import ENGINES as ENGINE_NAMES

    assert tuple(ENGINES) == tuple(ENGINE_NAMES)
    assert EXECUTORS == ("serial", "processes")


def test_store_documents_resolution_rule():
    # one rule for every consumer: unset follows construct_outputs
    assert RuntimeConfig(construct_outputs=False).resolve_store_documents() is False
    explicit = RuntimeConfig(construct_outputs=False, store_documents=True)
    assert explicit.resolve_store_documents() is True
    with pytest.raises(ValueError):
        RuntimeConfig(store_documents=False).validate_outputs()


def test_presets():
    assert not hasattr(RuntimeConfig, "throughput")
    assert RuntimeConfig.ablation() == RuntimeConfig(route_dispatch=False)
    # overrides re-validate
    assert RuntimeConfig.ablation(shards=8).shards == 8
    with pytest.raises(ValueError):
        RuntimeConfig.ablation(executor="fibers")


def test_replace_revalidates():
    config = RuntimeConfig()
    assert config.replace(shards=4).shards == 4
    with pytest.raises(ValueError):
        config.replace(engine="turbo")


# --------------------------------------------------------------------------- #
# as_config: what every constructor accepts
# --------------------------------------------------------------------------- #
def test_as_config_accepts_config_engine_name_or_nothing():
    config = RuntimeConfig(route_dispatch=False)
    assert as_config(config, "Broker") is config
    assert as_config("mmqjp-vm", "Broker").engine == "mmqjp-vm"
    assert as_config(None, "Broker") == RuntimeConfig()
    with pytest.raises(TypeError, match="Broker expects a RuntimeConfig"):
        as_config(42, "Broker")


@pytest.mark.parametrize("constructor", [Broker, MMQJPEngine, SequentialEngine, make_engine])
def test_constructors_take_no_per_knob_keywords(constructor):
    with pytest.raises(TypeError):
        constructor(route_dispatch=False)


def test_make_engine_accepts_config_and_selection_keyword():
    config = RuntimeConfig(engine="sequential", route_dispatch=False)
    engine = make_engine(config)
    assert engine.config == config and engine.config.route_dispatch is False
    assert make_engine("sequential", RuntimeConfig(route_dispatch=False)).registry is None
    # the selection keyword overrides the config's engine field
    assert make_engine("mmqjp-vm", RuntimeConfig()).processor.use_view_materialization
    # the config's engine field alone decides whether MMQJP runs over the views
    assert MMQJPEngine(RuntimeConfig(engine="mmqjp-vm")).processor.use_view_materialization
    assert not MMQJPEngine().processor.use_view_materialization
    with pytest.raises(TypeError):
        MMQJPEngine(RuntimeConfig(), use_view_materialization=True)


def test_engines_carry_their_config():
    config = RuntimeConfig(metrics=True, construct_outputs=False, executor="serial")
    with open_broker(config) as broker:
        assert broker.engine.config.metrics is True
        assert broker.engine.metrics is not None
