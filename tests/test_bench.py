"""Tests for the benchmark harness and experiment functions (tiny scales)."""

import pytest

from repro.bench import (
    format_table,
    rows_to_csv,
    run_rss_throughput,
    run_technical_benchmark,
)
from repro.bench import experiments
from repro.bench.harness import APPROACH_MMQJP, APPROACH_MMQJP_VM, APPROACH_SEQUENTIAL
from repro.core.costs import CostBreakdown
from repro.workloads.querygen import QueryWorkloadConfig, generate_queries
from repro.workloads.rss import RssStreamConfig, generate_rss_queries, generate_rss_stream
from repro.xmlmodel.schema import two_level_schema


@pytest.fixture(scope="module")
def small_workload():
    schema = two_level_schema(4)
    queries = generate_queries(QueryWorkloadConfig(schema=schema, num_queries=60, seed=21))
    return schema, queries


def test_run_technical_benchmark_all_approaches(small_workload):
    schema, queries = small_workload
    results = run_technical_benchmark(
        schema, queries, approaches=(APPROACH_MMQJP, APPROACH_MMQJP_VM, APPROACH_SEQUENTIAL)
    )
    assert [r.approach for r in results] == [
        APPROACH_MMQJP,
        APPROACH_MMQJP_VM,
        APPROACH_SEQUENTIAL,
    ]
    match_counts = {r.num_matches for r in results}
    assert len(match_counts) == 1  # every approach finds the same matches
    assert all(r.elapsed_ms > 0 for r in results)
    assert results[0].num_templates is not None
    row = results[0].as_row()
    assert row["approach"] == APPROACH_MMQJP
    assert "elapsed_ms" in row


def test_run_technical_benchmark_unknown_approach(small_workload):
    schema, queries = small_workload
    with pytest.raises(ValueError):
        run_technical_benchmark(schema, queries, approaches=("quantum",))


def test_run_rss_throughput_reports_events_per_second():
    queries = generate_rss_queries(10, seed=2)
    documents = list(generate_rss_stream(RssStreamConfig(num_items=15, num_channels=3)))
    result = run_rss_throughput(queries, documents, APPROACH_MMQJP)
    assert result.extra["num_events"] == 15
    assert result.extra["events_per_second"] > 0
    assert result.num_templates is not None


def test_cost_breakdown_merge_and_reset():
    a = CostBreakdown()
    with a.measure("phase1"):
        pass
    b = CostBreakdown()
    b.add("phase2", 0.5)
    a.merge(b)
    assert set(a.seconds) == {"phase1", "phase2"}
    assert a.total >= 0.5
    assert a.as_milliseconds()["phase2"] == 500.0
    a.reset()
    assert a.total == 0.0


def test_experiment_table3_small():
    rows = experiments.table3(max_value_joins=2)
    assert rows == [
        {"value_joins": 1, "templates_flat": 1, "templates_complex": 1},
        {"value_joins": 2, "templates_flat": 3, "templates_complex": 3},
    ]


def test_experiment_fig08_tiny():
    rows = experiments.fig08(num_queries_list=(5, 20), num_leaves=4)
    assert len(rows) == 4  # two sizes x two approaches
    assert {row["approach"] for row in rows} == {"mmqjp", "sequential"}
    assert all(row["figure"] == "fig08" for row in rows)


def test_experiment_fig12_tiny():
    rows = experiments.fig12(max_value_joins_list=(2, 3), num_queries=20)
    assert {row["max_value_joins"] for row in rows} == {2, 3}


def test_experiment_fig14_tiny():
    rows = experiments.fig14(num_queries=50)
    approaches = {row["approach"] for row in rows}
    assert approaches == {"mmqjp", "mmqjp-vm"}
    vm_row = next(row for row in rows if row["approach"] == "mmqjp-vm")
    assert {"rvj_ms", "rl_ms", "rr_ms", "conjunctive_query_ms"} <= set(vm_row)


def test_experiment_fig16_tiny():
    rows = experiments.fig16(num_queries_list=(5,), num_items=12)
    assert {row["approach"] for row in rows} == {"mmqjp", "mmqjp-vm", "sequential"}
    assert all(row["events_per_second"] > 0 for row in rows)


def test_experiment_ablation_graph_minor_tiny():
    rows = experiments.ablation_graph_minor(num_queries=40)
    by_flag = {row["graph_minor"]: row for row in rows}
    assert by_flag[True]["num_templates"] <= by_flag[False]["num_templates"]
    assert by_flag[True]["num_matches"] == by_flag[False]["num_matches"]


def test_experiment_ablation_witness_tiny():
    rows = experiments.ablation_witness_representation(num_queries_list=(10, 50))
    assert rows[0]["shared_rows"] == rows[1]["shared_rows"]
    assert rows[1]["flat_rows"] > rows[0]["flat_rows"]


def test_experiment_ablation_view_cache_tiny():
    rows = experiments.ablation_view_cache(cache_sizes=(None, 8), num_queries=10, num_items=10)
    assert len(rows) == 2
    assert {row["cache_size"] for row in rows} == {0, 8}


def test_run_all_selected_subset():
    out = experiments.run_all(["table3"])
    assert set(out) == {"table3"}


def test_reporting_format_table_and_csv(tmp_path):
    rows = [{"a": 1, "b": "x"}, {"a": 22, "c": 3.5}]
    text = format_table(rows, title="demo")
    assert text.splitlines()[0] == "demo"
    assert "a" in text and "b" in text and "c" in text
    assert format_table([], title="t").endswith("(no rows)")

    path = tmp_path / "rows.csv"
    csv_text = rows_to_csv(rows, str(path))
    assert path.read_text() == csv_text
    assert csv_text.splitlines()[0] == "a,b,c"
