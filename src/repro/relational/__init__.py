"""In-memory relational engine substrate.

The MMQJP Join Processor (paper Section 4) maps multi-query join processing
into a relational framework.  The original system used Microsoft SQL Server
2005 as the back end; this package provides a from-scratch, in-memory
replacement with exactly the pieces the paper needs:

* :class:`~repro.relational.schema.RelationSchema` and
  :class:`~repro.relational.relation.Relation` — named, typed-by-convention
  relations over Python tuples.
* :mod:`~repro.relational.columnar` — the interned id columns and group
  indexes every probe of a relation goes through: the compiled plans, the
  delta reduction and the Section 5 views.
* :class:`~repro.relational.relation.PartitionedRelation` — a relation
  whose rows are grouped by a partition attribute (``docid`` for the join
  state) so pruning drops whole documents at once.
* :class:`~repro.relational.database.Database` — a tiny catalog of named
  relations (the join state lives here) — and
  :class:`~repro.relational.database.IndexedDatabase`, the evaluation
  environment of the incremental join pipeline (one value dictionary).
* :mod:`~repro.relational.conjunctive` — Datalog-style conjunctive queries
  and their evaluator; the per-template queries ``CQT`` of Section 4.4 are
  instances of :class:`~repro.relational.conjunctive.ConjunctiveQuery`.
* :mod:`~repro.relational.plan` — compiled query plans: a
  :class:`~repro.relational.plan.CompiledPlan` freezes the greedy join
  order and all per-step join metadata so repeated evaluations (the MMQJP
  hot loop) are pure probe loops; :class:`~repro.relational.plan.PlanCache`
  re-optimizes a plan only when the stable relations' statistics drift.
* :mod:`~repro.relational.sql` — renders conjunctive queries as SQL text,
  mirroring the paper's "XSCL translator" that emitted SQL Server queries.
"""

from repro.relational.schema import RelationSchema, SchemaError
from repro.relational.relation import Relation, PartitionedRelation
from repro.relational.database import Database, IndexedDatabase
from repro.relational.terms import Var, Const, term
from repro.relational.conjunctive import Atom, ConjunctiveQuery, evaluate_conjunctive
from repro.relational.plan import CompiledPlan, PlanCache, compile_plan
from repro.relational.sql import render_sql

__all__ = [
    "RelationSchema",
    "SchemaError",
    "Relation",
    "PartitionedRelation",
    "Database",
    "IndexedDatabase",
    "Var",
    "Const",
    "term",
    "Atom",
    "ConjunctiveQuery",
    "evaluate_conjunctive",
    "CompiledPlan",
    "PlanCache",
    "compile_plan",
    "render_sql",
]
