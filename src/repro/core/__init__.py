"""The MMQJP core: the Join Processor (Stage 2) and the two-stage engines.

* :class:`~repro.core.state.JoinState` — the join state relations
  ``Rbin`` / ``Rdoc`` / ``Rvar`` / ``RdocTS`` (Algorithm 2 maintains them).
* :class:`~repro.core.witnesses.WitnessRelations` — relational encoding of
  the current document's Stage 1 output (``RbinW`` / ``RdocW`` / ``RvarW`` /
  ``RdocTSW``).
* :class:`~repro.core.processor.MMQJPJoinProcessor` — Algorithm 1 (and, with
  view materialization enabled, Algorithm 4): per-template conjunctive-query
  evaluation over the witness relations.
* :class:`~repro.core.processor.SequentialJoinProcessor` — the paper's
  baseline: the FOLLOWED BY of every query evaluated separately.
* :class:`~repro.core.engine.MMQJPEngine` / :class:`~repro.core.engine.SequentialEngine`
  — complete two-stage pipelines over XML documents.
"""

from repro.core.costs import CostBreakdown
from repro.core.state import JoinState
from repro.core.witnesses import WitnessRelations
from repro.core.results import Match
from repro.core.materialize import MaterializedViews, compute_materialized_views
from repro.core.processor import MMQJPJoinProcessor, SequentialJoinProcessor
from repro.core.relevance import RelevanceIndex
from repro.core.engine import (
    ENGINES,
    EngineStats,
    MMQJPEngine,
    SequentialEngine,
    make_engine,
    merge_engine_stats,
)

__all__ = [
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
]
