"""Workload generators for the paper's evaluation (Section 6).

* :mod:`~repro.workloads.zipf` — the Zipf sampler both query generators use.
* :mod:`~repro.workloads.synthetic` — the technical benchmark of Section 6.1:
  two-level and three-level document schemas, the two fixed documents with
  matching leaf values, and direct construction of the witness relations
  (bypassing the XPath Evaluator, exactly as the paper does).
* :mod:`~repro.workloads.querygen` — random XSCL query generation following
  Figure 17.
* :mod:`~repro.workloads.rss` — a simulated RSS/Atom feed stream standing in
  for the proprietary crawl used in Section 6.3.
* :mod:`~repro.workloads.dblp` — a DBLP-style bibliography stream (venues as
  streams, Zipf entity reuse) with a large subscription population.
"""

from repro.workloads.zipf import ZipfSampler
from repro.workloads.synthetic import (
    TechnicalBenchmarkData,
    build_document,
    build_technical_benchmark_data,
    leaf_variable,
    group_variable,
    root_variable,
    topic_schemas,
)
from repro.workloads.querygen import (
    QueryWorkloadConfig,
    generate_queries,
    generate_topic_queries,
)
from repro.workloads.rss import RssStreamConfig, generate_rss_stream, generate_rss_queries
from repro.workloads.dblp import (
    DblpWorkloadConfig,
    generate_dblp_stream,
    generate_dblp_subscriptions,
)

__all__ = [
    "ZipfSampler",
    "TechnicalBenchmarkData",
    "build_document",
    "build_technical_benchmark_data",
    "leaf_variable",
    "group_variable",
    "root_variable",
    "topic_schemas",
    "QueryWorkloadConfig",
    "generate_queries",
    "generate_topic_queries",
    "RssStreamConfig",
    "generate_rss_stream",
    "generate_rss_queries",
    "DblpWorkloadConfig",
    "generate_dblp_stream",
    "generate_dblp_subscriptions",
]
