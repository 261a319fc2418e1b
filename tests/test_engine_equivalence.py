"""Cross-engine equivalence: MMQJP (all variants) must agree with Sequential.

This is the central correctness property of the paper — evaluating all
queries of a template at once through the shared conjunctive query must
produce exactly the same results as evaluating every query separately —
and both must deliver what ``tests/oracle.py`` says.  We check it on
randomly generated workloads and document streams.
"""

from __future__ import annotations

import pytest

from repro import RuntimeConfig
from repro.workloads.querygen import QueryWorkloadConfig
from repro.workloads.rss import RssStreamConfig
from repro.xmlmodel.schema import three_level_schema, two_level_schema
from tests import oracle
from tests.test_oracle_agreement import deliveries, generated_script, rss_script, run_script


def _assert_all_agree(script, *configs: RuntimeConfig) -> None:
    expected = run_script(oracle.Oracle(), script)
    assert any(expected)  # the workload is dense enough that something matches
    for config in configs:
        assert deliveries(config.replace(construct_outputs=False), script) == expected, config


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_equivalence_on_flat_schema_stream(seed):
    schema = two_level_schema(4)
    workload = QueryWorkloadConfig(schema=schema, num_queries=40, window=3.0, seed=seed)
    script = generated_script(schema, workload, num_docs=8, pool=3)
    _assert_all_agree(script, RuntimeConfig(), RuntimeConfig(engine="sequential"))


@pytest.mark.parametrize("seed", [4, 5])
def test_equivalence_on_complex_schema_stream(seed):
    schema = three_level_schema(branching=3)
    workload = QueryWorkloadConfig(
        schema=schema, num_queries=30, max_value_joins=3, window=5.0, seed=seed
    )
    script = generated_script(schema, workload, num_docs=6, pool=2)
    _assert_all_agree(script, RuntimeConfig(), RuntimeConfig(engine="sequential"))


def test_equivalence_of_view_materialization_variants():
    schema = two_level_schema(5)
    workload = QueryWorkloadConfig(
        schema=schema, num_queries=30, zipf_theta=0.4, window=4.0, seed=9
    )
    _assert_all_agree(
        generated_script(schema, workload, num_docs=8, pool=3),
        RuntimeConfig(),
        RuntimeConfig(engine="mmqjp-vm"),
    )


def test_equivalence_on_rss_stream():
    script = rss_script(25, RssStreamConfig(num_items=25, num_channels=4, seed=2))
    _assert_all_agree(
        script,
        RuntimeConfig(auto_timestamp=False),
        RuntimeConfig(engine="mmqjp-vm", auto_timestamp=False),
        RuntimeConfig(engine="sequential", auto_timestamp=False),
    )
