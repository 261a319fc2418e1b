"""Experiment harness reproducing every table and figure of the paper's evaluation.

* :mod:`~repro.bench.harness` — low-level runners: register a query workload
  with each approach (MMQJP, MMQJP + view materialization, Sequential) and
  time its join processing.
* :mod:`~repro.bench.experiments` — one function per paper table/figure
  (``table3``, ``fig08`` ... ``fig16``) plus the ablation studies, each
  documented in its docstring (the README's *Benchmarks* section lists
  them).  Each returns a list of row dictionaries.
* :mod:`~repro.bench.reporting` — plain-text/CSV rendering of those rows.

``python -m repro.bench`` runs the full suite at a laptop-friendly scale and
prints every table.
"""

from repro.bench.harness import (
    ApproachResult,
    run_technical_benchmark,
    run_rss_throughput,
    register_mmqjp,
    register_sequential,
)
from repro.bench import experiments
from repro.bench.reporting import format_table, rows_to_csv

__all__ = [
    "ApproachResult",
    "run_technical_benchmark",
    "run_rss_throughput",
    "register_mmqjp",
    "register_sequential",
    "experiments",
    "format_table",
    "rows_to_csv",
]
