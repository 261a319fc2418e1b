"""Low-level benchmark runners.

The technical benchmark (Section 6.1) measures only Stage 2: the witness
relations of the two fixed documents are constructed directly and the
timed quantity is the evaluation of the conjunctive queries — per template
for MMQJP, per query for Sequential.  The RSS benchmark (Section 6.3)
streams documents through the full two-stage engines and reports
throughput.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.config import RuntimeConfig
from repro.core.engine import make_engine
from repro.core.materialize import ViewCache
from repro.core.processor import MMQJPJoinProcessor, SequentialJoinProcessor
from repro.templates.registry import TemplateRegistry
from repro.workloads.synthetic import TechnicalBenchmarkData, build_technical_benchmark_data
from repro.xmlmodel.document import XmlDocument
from repro.xmlmodel.schema import DocumentSchema
from repro.xscl.ast import XsclQuery

#: Approach identifiers used throughout the harness and the benchmarks.
APPROACH_MMQJP = "mmqjp"
APPROACH_MMQJP_VM = "mmqjp-vm"
APPROACH_SEQUENTIAL = "sequential"
ALL_APPROACHES = (APPROACH_MMQJP, APPROACH_MMQJP_VM, APPROACH_SEQUENTIAL)


@dataclass
class ApproachResult:
    """Timing result of one approach on one workload configuration."""

    approach: str
    num_queries: int
    elapsed_ms: float
    num_matches: int
    num_templates: Optional[int] = None
    breakdown_ms: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)

    def as_row(self) -> dict:
        """Flatten to a reporting row."""
        row = {
            "approach": self.approach,
            "num_queries": self.num_queries,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "num_matches": self.num_matches,
        }
        if self.num_templates is not None:
            row["num_templates"] = self.num_templates
        for phase, ms in self.breakdown_ms.items():
            row[f"{phase}_ms"] = round(ms, 3)
        row.update(self.extra)
        return row


# --------------------------------------------------------------------------- #
# registration helpers
# --------------------------------------------------------------------------- #
def register_mmqjp(queries: Sequence[XsclQuery]) -> TemplateRegistry:
    """Register a (canonically named) query workload with a fresh template registry."""
    registry = TemplateRegistry()
    for i, query in enumerate(queries):
        registry.add_query(f"q{i}", query)
    return registry


def register_sequential(queries: Sequence[XsclQuery], state=None) -> SequentialJoinProcessor:
    """Register a query workload with a fresh sequential processor."""
    processor = SequentialJoinProcessor(state=state)
    for i, query in enumerate(queries):
        processor.add_query(f"q{i}", query)
    return processor


# --------------------------------------------------------------------------- #
# the technical benchmark (Section 6.1 / 6.2)
# --------------------------------------------------------------------------- #
def run_technical_benchmark(
    schema: DocumentSchema,
    queries: Sequence[XsclQuery],
    approaches: Sequence[str] = (APPROACH_MMQJP, APPROACH_SEQUENTIAL),
    view_cache_size: Optional[int] = None,
    data: Optional[TechnicalBenchmarkData] = None,
) -> list[ApproachResult]:
    """Join the two fixed benchmark documents under every requested approach.

    Only the join processing (``process`` call) is timed; registration and
    witness construction are excluded, matching the paper's measurement.
    """
    data = data if data is not None else build_technical_benchmark_data(schema)
    results: list[ApproachResult] = []

    for approach in approaches:
        if approach == APPROACH_SEQUENTIAL:
            processor = register_sequential(queries, state=data.fresh_state())
            start = time.perf_counter()
            matches = processor.process(data.witness)
            elapsed = (time.perf_counter() - start) * 1000.0
            results.append(
                ApproachResult(
                    approach=approach,
                    num_queries=len(queries),
                    elapsed_ms=elapsed,
                    num_matches=len(matches),
                    breakdown_ms=processor.costs.as_milliseconds(),
                )
            )
        elif approach in (APPROACH_MMQJP, APPROACH_MMQJP_VM):
            registry = register_mmqjp(queries)
            view_cache = None
            if approach == APPROACH_MMQJP_VM and view_cache_size is not None:
                view_cache = ViewCache(max_entries=view_cache_size)
            processor = MMQJPJoinProcessor(
                registry,
                state=data.fresh_state(),
                use_view_materialization=(approach == APPROACH_MMQJP_VM),
                view_cache=view_cache,
            )
            start = time.perf_counter()
            matches = processor.process(data.witness)
            elapsed = (time.perf_counter() - start) * 1000.0
            results.append(
                ApproachResult(
                    approach=approach,
                    num_queries=len(queries),
                    elapsed_ms=elapsed,
                    num_matches=len(matches),
                    num_templates=registry.num_templates,
                    breakdown_ms=processor.costs.as_milliseconds(),
                )
            )
        else:
            raise ValueError(f"unknown approach {approach!r}")
    return results


# --------------------------------------------------------------------------- #
# the RSS stream benchmark (Section 6.3)
# --------------------------------------------------------------------------- #
def run_rss_throughput(
    queries: Sequence[XsclQuery],
    documents: Iterable[XmlDocument],
    approach: str,
    view_cache_size: Optional[int] = 4096,
) -> ApproachResult:
    """Stream feed items through a full two-stage engine and report throughput.

    The registration phase is excluded from the timing; the streaming phase
    (Stage 1 + Stage 2 + state maintenance for every item) is included.
    Throughput in events/second is reported in ``extra["events_per_second"]``.
    """
    documents = list(documents)
    engine = make_engine(
        config=RuntimeConfig(
            engine=approach,
            view_cache_size=view_cache_size,
            store_documents=False,
            auto_timestamp=False,
        )
    )
    for i, query in enumerate(queries):
        engine.register_query(query, qid=f"q{i}")

    start = time.perf_counter()
    total_matches = 0
    for document in documents:
        total_matches += len(engine.process_document(document))
    elapsed = time.perf_counter() - start

    throughput = len(documents) / elapsed if elapsed > 0 else float("inf")
    return ApproachResult(
        approach=approach,
        num_queries=len(queries),
        elapsed_ms=elapsed * 1000.0,
        num_matches=total_matches,
        num_templates=engine.num_templates,
        breakdown_ms=engine.costs.as_milliseconds(),
        extra={"events_per_second": round(throughput, 2), "num_events": len(documents)},
    )
