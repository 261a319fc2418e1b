"""Shared fixtures and helpers for the paper-reproduction benchmarks.

Every ``bench_*`` file regenerates one table or figure of the paper's
evaluation section: the experiment index is the README's *Benchmarks*
section, and each experiment's docstring in :mod:`repro.bench.experiments`
says what it measures.  The benchmarks
run at a laptop-friendly scale by default; set the environment variable
``REPRO_BENCH_SCALE=paper`` to use query counts closer to the paper's
(substantially slower under the pure-Python engine).
"""

from __future__ import annotations

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: Query-count sweep used by the "vary number of queries" figures.
SMALL_QUERY_SWEEP = (10, 100, 1000, 5000)
PAPER_QUERY_SWEEP = (10, 100, 1000, 10000, 100000)


def query_sweep() -> tuple[int, ...]:
    """The query-count sweep for the current scale."""
    if os.environ.get("REPRO_BENCH_SCALE", "small") == "paper":
        return PAPER_QUERY_SWEEP
    return SMALL_QUERY_SWEEP


def breakdown_queries() -> int:
    """Query count for the view-materialization breakdown figures (14/15)."""
    return 100000 if os.environ.get("REPRO_BENCH_SCALE") == "paper" else 10000


@pytest.fixture(scope="session")
def bench_scale() -> str:
    """The active benchmark scale (``small`` or ``paper``)."""
    return os.environ.get("REPRO_BENCH_SCALE", "small")
