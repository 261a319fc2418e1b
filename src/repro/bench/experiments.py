"""One function per paper table/figure, plus the ablation studies.

Every function returns a list of row dictionaries ready for
:func:`repro.bench.reporting.format_table`.  The default parameter values
are scaled so that the whole suite completes in minutes on a laptop with the
pure-Python engine; pass larger values (e.g. ``num_queries_list`` up to
100000) to approach the paper's original scale.  The *shapes* the paper
reports — who wins, by roughly what factor, where curves flatten — are
meant to hold at the default scale; each function's docstring states its
shape.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.bench.harness import (
    APPROACH_MMQJP,
    APPROACH_MMQJP_VM,
    APPROACH_SEQUENTIAL,
    run_rss_throughput,
    run_technical_benchmark,
)
from repro.core.processor import MMQJPJoinProcessor
from repro.templates.enumerate import template_count_table
from repro.templates.join_graph import JoinGraph
from repro.templates.registry import TemplateRegistry
from repro.workloads.querygen import QueryWorkloadConfig, generate_queries
from repro.workloads.rss import RssStreamConfig, generate_rss_queries, generate_rss_stream
from repro.workloads.synthetic import build_technical_benchmark_data
from repro.xmlmodel.schema import three_level_schema, two_level_schema

# Default parameter values of Table 5.
DEFAULT_NUM_QUERIES = 1000
DEFAULT_NUM_LEAVES = 6
DEFAULT_ZIPF = 0.8


# --------------------------------------------------------------------------- #
# Table 3
# --------------------------------------------------------------------------- #
def table3(max_value_joins: int = 4) -> list[dict]:
    """Table 3: number of query templates vs. number of value joins."""
    return template_count_table(max_value_joins)


# --------------------------------------------------------------------------- #
# Figures 8-10: simple (two-level) document schema
# --------------------------------------------------------------------------- #
def _simple_workload(num_queries: int, num_leaves: int, zipf: float, seed: int = 7):
    schema = two_level_schema(num_leaves)
    queries = generate_queries(
        QueryWorkloadConfig(
            schema=schema, num_queries=num_queries, zipf_theta=zipf, seed=seed
        )
    )
    return schema, queries


def fig08(
    num_queries_list: Sequence[int] = (10, 100, 1000, 5000),
    num_leaves: int = DEFAULT_NUM_LEAVES,
    zipf: float = DEFAULT_ZIPF,
) -> list[dict]:
    """Figure 8: simple schema, total conjunctive-query time vs. number of queries."""
    rows = []
    for num_queries in num_queries_list:
        schema, queries = _simple_workload(num_queries, num_leaves, zipf)
        for result in run_technical_benchmark(schema, queries):
            row = result.as_row()
            row["figure"] = "fig08"
            rows.append(row)
    return rows


def fig09(
    num_leaves_list: Sequence[int] = (4, 6, 8, 10, 12),
    num_queries: int = DEFAULT_NUM_QUERIES,
    zipf: float = DEFAULT_ZIPF,
) -> list[dict]:
    """Figure 9: simple schema, time vs. number of leaf nodes in the schema."""
    rows = []
    for num_leaves in num_leaves_list:
        schema, queries = _simple_workload(num_queries, num_leaves, zipf)
        for result in run_technical_benchmark(schema, queries):
            row = result.as_row()
            row["figure"] = "fig09"
            row["num_leaves"] = num_leaves
            rows.append(row)
    return rows


def fig10(
    zipf_list: Sequence[float] = (0.0, 0.4, 0.8, 1.2, 1.6),
    num_queries: int = DEFAULT_NUM_QUERIES,
    num_leaves: int = DEFAULT_NUM_LEAVES,
) -> list[dict]:
    """Figure 10: simple schema, time vs. the Zipf parameter."""
    rows = []
    for zipf in zipf_list:
        schema, queries = _simple_workload(num_queries, num_leaves, zipf)
        for result in run_technical_benchmark(schema, queries):
            row = result.as_row()
            row["figure"] = "fig10"
            row["zipf"] = zipf
            rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Figures 11-13: complex (three-level) document schema
# --------------------------------------------------------------------------- #
def _complex_workload(num_queries: int, max_value_joins: int, zipf: float, seed: int = 7):
    schema = three_level_schema(branching=4)
    queries = generate_queries(
        QueryWorkloadConfig(
            schema=schema,
            num_queries=num_queries,
            zipf_theta=zipf,
            max_value_joins=max_value_joins,
            seed=seed,
        )
    )
    return schema, queries


def fig11(
    num_queries_list: Sequence[int] = (10, 100, 1000, 5000),
    max_value_joins: int = 4,
    zipf: float = DEFAULT_ZIPF,
) -> list[dict]:
    """Figure 11: complex schema, time vs. number of queries."""
    rows = []
    for num_queries in num_queries_list:
        schema, queries = _complex_workload(num_queries, max_value_joins, zipf)
        for result in run_technical_benchmark(schema, queries):
            row = result.as_row()
            row["figure"] = "fig11"
            rows.append(row)
    return rows


def fig12(
    max_value_joins_list: Sequence[int] = (2, 3, 4, 5),
    num_queries: int = DEFAULT_NUM_QUERIES,
    zipf: float = DEFAULT_ZIPF,
) -> list[dict]:
    """Figure 12: complex schema, time vs. the maximum number of value joins per query."""
    rows = []
    for max_value_joins in max_value_joins_list:
        schema, queries = _complex_workload(num_queries, max_value_joins, zipf)
        for result in run_technical_benchmark(schema, queries):
            row = result.as_row()
            row["figure"] = "fig12"
            row["max_value_joins"] = max_value_joins
            rows.append(row)
    return rows


def fig13(
    zipf_list: Sequence[float] = (0.0, 0.4, 0.8, 1.2, 1.6),
    num_queries: int = DEFAULT_NUM_QUERIES,
    max_value_joins: int = 4,
) -> list[dict]:
    """Figure 13: complex schema, time vs. the Zipf parameter."""
    rows = []
    for zipf in zipf_list:
        schema, queries = _complex_workload(num_queries, max_value_joins, zipf)
        for result in run_technical_benchmark(schema, queries):
            row = result.as_row()
            row["figure"] = "fig13"
            row["zipf"] = zipf
            rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Figures 14-15: view materialization cost breakdown
# --------------------------------------------------------------------------- #
def _viewmat_rows(figure: str, schema, queries) -> list[dict]:
    rows = []
    results = run_technical_benchmark(
        schema, queries, approaches=(APPROACH_MMQJP, APPROACH_MMQJP_VM)
    )
    for result in results:
        row = {
            "figure": figure,
            "approach": result.approach,
            "num_queries": result.num_queries,
            "num_templates": result.num_templates,
            "total_ms": round(result.elapsed_ms, 3),
            "conjunctive_query_ms": round(result.breakdown_ms.get("conjunctive_query", 0.0), 3),
            "rvj_ms": round(result.breakdown_ms.get("rvj", 0.0), 3),
            "rl_ms": round(result.breakdown_ms.get("rl", 0.0), 3),
            "rr_ms": round(result.breakdown_ms.get("rr", 0.0), 3),
            "num_matches": result.num_matches,
        }
        rows.append(row)
    return rows


def fig14(num_queries: int = 20000, num_leaves: int = DEFAULT_NUM_LEAVES, zipf: float = DEFAULT_ZIPF) -> list[dict]:
    """Figure 14: view materialization cost breakdown on the simple schema."""
    schema, queries = _simple_workload(num_queries, num_leaves, zipf)
    return _viewmat_rows("fig14", schema, queries)


def fig15(num_queries: int = 20000, max_value_joins: int = 4, zipf: float = DEFAULT_ZIPF) -> list[dict]:
    """Figure 15: view materialization cost breakdown on the complex schema."""
    schema, queries = _complex_workload(num_queries, max_value_joins, zipf)
    return _viewmat_rows("fig15", schema, queries)


# --------------------------------------------------------------------------- #
# Figure 16: RSS stream throughput
# --------------------------------------------------------------------------- #
def fig16(
    num_queries_list: Sequence[int] = (10, 100, 1000, 5000),
    num_items: int = 300,
    zipf: float = DEFAULT_ZIPF,
    approaches: Sequence[str] = (APPROACH_MMQJP_VM, APPROACH_MMQJP, APPROACH_SEQUENTIAL),
    max_sequential_queries: Optional[int] = 1000,
) -> list[dict]:
    """Figure 16: join-processing throughput (events/second) on the simulated RSS stream.

    ``max_sequential_queries`` caps the query counts at which the Sequential
    baseline is run (it becomes prohibitively slow far earlier than MMQJP,
    which is precisely the point of the figure).
    """
    stream_config = RssStreamConfig(num_items=num_items)
    documents = list(generate_rss_stream(stream_config))
    rows = []
    for num_queries in num_queries_list:
        queries = generate_rss_queries(num_queries, zipf_theta=zipf)
        for approach in approaches:
            if (
                approach == APPROACH_SEQUENTIAL
                and max_sequential_queries is not None
                and num_queries > max_sequential_queries
            ):
                continue
            result = run_rss_throughput(queries, documents, approach)
            row = result.as_row()
            row["figure"] = "fig16"
            rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Ablation studies (what each paper mechanism buys; see each docstring)
# --------------------------------------------------------------------------- #
def ablation_graph_minor(
    num_queries: int = 2000, max_value_joins: int = 4, zipf: float = DEFAULT_ZIPF
) -> list[dict]:
    """Template sharing with vs. without the graph-minor reduction.

    Without the reduction, templates are isomorphism classes of the full
    join graphs, so far fewer queries share one — more conjunctive queries
    must be evaluated per document.
    """
    schema, queries = _complex_workload(num_queries, max_value_joins, zipf)
    data = build_technical_benchmark_data(schema)
    rows = []
    for use_minor in (True, False):
        registry = TemplateRegistry(use_graph_minor=use_minor)
        for i, query in enumerate(queries):
            registry.add_query(f"q{i}", query)
        processor = MMQJPJoinProcessor(registry, state=data.fresh_state())
        start = time.perf_counter()
        matches = processor.process(data.witness)
        elapsed = (time.perf_counter() - start) * 1000.0
        rows.append(
            {
                "ablation": "graph_minor",
                "graph_minor": use_minor,
                "num_queries": num_queries,
                "num_templates": registry.num_templates,
                "elapsed_ms": round(elapsed, 3),
                "num_matches": len(matches),
            }
        )
    return rows


def ablation_view_cache(
    cache_sizes: Sequence[Optional[int]] = (None, 16, 64, 256, 1024),
    num_queries: int = 500,
    num_items: int = 200,
) -> list[dict]:
    """View-cache size sweep on the RSS stream (``None`` = no caching)."""
    documents = list(generate_rss_stream(RssStreamConfig(num_items=num_items)))
    queries = generate_rss_queries(num_queries)
    rows = []
    for cache_size in cache_sizes:
        result = run_rss_throughput(
            queries, documents, APPROACH_MMQJP_VM, view_cache_size=cache_size
        )
        row = result.as_row()
        row["ablation"] = "view_cache"
        row["cache_size"] = cache_size if cache_size is not None else 0
        rows.append(row)
    return rows


def ablation_witness_representation(
    num_queries_list: Sequence[int] = (10, 100, 1000, 5000),
    num_leaves: int = DEFAULT_NUM_LEAVES,
    zipf: float = DEFAULT_ZIPF,
) -> list[dict]:
    """Witness storage: shared binary edges vs. per-query flat tuples.

    The shared representation stores one row per (variable pair, node pair)
    of the *document*; the flat alternative would store one row per query
    per combination of its variable bindings.  The ratio quantifies why the
    paper's shredded representation is what makes massive sharing possible.
    """
    schema = two_level_schema(num_leaves)
    data = build_technical_benchmark_data(schema)
    shared_rows = len(data.rbin_rows) + len(data.rvar_rows)
    rows = []
    for num_queries in num_queries_list:
        queries = generate_queries(
            QueryWorkloadConfig(schema=schema, num_queries=num_queries, zipf_theta=zipf)
        )
        flat_rows = 0
        for query in queries:
            graph = JoinGraph.from_query(query)
            # One flat tuple per document per query: every bound variable has
            # exactly one binding in the benchmark documents.
            flat_rows += len(graph.nodes)
        rows.append(
            {
                "ablation": "witness_representation",
                "num_queries": num_queries,
                "shared_rows": shared_rows,
                "flat_rows": flat_rows,
                "ratio": round(flat_rows / shared_rows, 2) if shared_rows else 0.0,
            }
        )
    return rows


def ablation_window(
    windows: Sequence[float] = (5.0, 20.0, 80.0, float("inf")),
    num_queries: int = 500,
    num_items: int = 200,
) -> list[dict]:
    """Window length sweep: how state growth affects throughput.

    With finite windows the engine prunes old documents from the join state;
    the infinite window of the paper's Section 6.3 keeps everything.
    """
    documents = list(generate_rss_stream(RssStreamConfig(num_items=num_items)))
    rows = []
    for window in windows:
        queries = generate_rss_queries(num_queries, window=window)
        result = run_rss_throughput(queries, documents, APPROACH_MMQJP)
        row = result.as_row()
        row["ablation"] = "window"
        row["window"] = window
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# run everything
# --------------------------------------------------------------------------- #
ALL_EXPERIMENTS = {
    "table3": table3,
    "fig08": fig08,
    "fig09": fig09,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "ablation_graph_minor": ablation_graph_minor,
    "ablation_view_cache": ablation_view_cache,
    "ablation_witness_representation": ablation_witness_representation,
    "ablation_window": ablation_window,
}


def run_all(names: Optional[Sequence[str]] = None) -> dict[str, list[dict]]:
    """Run the requested experiments (all by default) and return their rows."""
    selected = names if names is not None else list(ALL_EXPERIMENTS)
    out: dict[str, list[dict]] = {}
    for name in selected:
        out[name] = ALL_EXPERIMENTS[name]()
    return out
