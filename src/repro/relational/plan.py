"""Compiled query plans: plan a conjunctive query once, probe many times.

:func:`~repro.relational.conjunctive.evaluate_conjunctive` re-derives the
greedy join order and every atom's join metadata (constant checks, join-key
columns, fresh-variable projections) on *every* call.  That is fine for
ad-hoc queries, but the MMQJP hot loop evaluates the same per-template
conjunctive queries for every incoming document — with massively many
registered queries, the planning and term introspection dominate the actual
probing.

This module compiles a :class:`~repro.relational.conjunctive.ConjunctiveQuery`
into a :class:`CompiledPlan`:

* a **fixed join order** chosen once by the same greedy fan-out heuristic,
* fully precomputed per-step metadata (:class:`PlanStep`) — probe-key
  columns, constant keys, solution positions, fresh-column projections and
  within-atom equality checks, and
* precomputed **head projection** operations and the output schema object,

so that :meth:`CompiledPlan.execute` is a batch probe over interned id
columns with zero planning, schema lookup or term introspection per call.
A step's ``key_cols`` (join columns first, then constant columns) name the
memoized :class:`~repro.relational.columnar.GroupIndex` it probes, so every
plan joining a stable relation on the same columns shares one index.

A plan's join order is only a heuristic — the *result set* is identical for
any order — but it should track the statistics it was optimized against.
:class:`PlanCache` therefore keys each cached plan on the query's identity
plus a **stats epoch** over the stable (state/``RT``) relations the body
references: the epoch check is O(atoms) using the relations' existing
mutation counters (:attr:`~repro.relational.relation.Relation.version`) as a
fast path, and a plan is re-optimized only when a stable relation's
cardinality drifts across a power-of-two bucket — not on every insert, and
never because the per-document witness relations changed.
"""

from __future__ import annotations

from itertools import repeat
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.relational import columnar
from repro.relational.conjunctive import (
    EMPTY_DELTA,
    Atom,
    ConjunctiveQuery,
    DeltaContext,
    _analyze_atom,
    _atom_matches,
    _choose_order,
    _EmptyDelta,
    build_delta_program,
)
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema, SchemaError
from repro.relational.terms import Const


def _lookup_of(relations: Mapping[str, Relation]):
    return relations.get if hasattr(relations, "get") else relations.__getitem__


#: Default cap on intermediate-solution growth when executing a *cached*
#: plan.  A frozen join order is only a heuristic: a later document's
#: witness statistics can be skewed enough that the frozen order builds a
#: huge intermediate a fresh plan would avoid.  Exceeding the budget raises
#: :class:`PlanBudgetExceeded`, and the cache reacts by re-planning against
#: the *current* statistics and re-executing (classic reactive
#: re-optimization) — so the worst case is bounded near the plan-per-call
#: evaluator's cost instead of being exponential.
DEFAULT_GROWTH_LIMIT = 100_000


class PlanBudgetExceeded(Exception):
    """Raised when a budgeted execution grows past its solution limit."""


class PlanStep:
    """One precompiled join step: everything :meth:`CompiledPlan.execute` needs.

    Attributes
    ----------
    relation_name:
        Name of the atom's relation, resolved against the evaluation
        environment at execution time (witness relations are rebound per
        document).
    key_cols:
        The columns of the step's group index — join columns followed by
        constant columns.
    const_checks:
        ``(column, value)`` constant constraints.
    join_positions:
        The positions, in the partial solution, of the already-bound
        variables the join columns (the first ``key_cols``) are joined
        against.
    new_var_cols:
        Columns whose values extend the solution tuple (fresh variables).
    within_eq:
        Equal-column pairs for fresh variables repeated within the atom.
    stable:
        Whether the relation is a long-lived (state/``RT``) binding, probed
        through its memoized group index; a per-document relation is
        scanned (:meth:`ColumnStore.scan
        <repro.relational.columnar.ColumnStore.scan>`).
    """

    __slots__ = (
        "relation_name",
        "key_cols",
        "const_checks",
        "join_positions",
        "new_var_cols",
        "within_eq",
        "stable",
    )

    def __init__(self, atom: Atom, var_pos: dict[str, int], stable: bool):
        const_checks, join_cols, new_vars, within_eq = _analyze_atom(atom, var_pos)
        self.relation_name = atom.relation
        self.stable = stable
        self.const_checks = tuple(const_checks)
        self.join_positions = tuple(p for _, p in join_cols)
        self.new_var_cols = tuple(c for c, _ in new_vars)
        self.within_eq = tuple(within_eq)
        self.key_cols = tuple(c for c, _ in join_cols) + tuple(c for c, _ in const_checks)
        for _, name in new_vars:
            var_pos[name] = len(var_pos)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PlanStep {self.relation_name} key={self.key_cols} "
            f"new={self.new_var_cols}>"
        )


class CompiledPlan:
    """A conjunctive query compiled to a fixed join order with frozen metadata.

    Build plans with :func:`compile_plan` (or let a :class:`PlanCache` do
    it); :meth:`execute` evaluates the plan against an evaluation
    environment and returns the head relation — always the exact same
    result set as :func:`~repro.relational.conjunctive.evaluate_conjunctive`
    on the same environment, since the join order only affects cost.
    """

    #: Per-plan execution counters, summed by :class:`PlanCache` over the
    #: completed executions.
    COUNTERS = ("probe_rows", "indexed_probes", "scanned_probes", "one_to_one_steps")

    __slots__ = (
        "query",
        "steps",
        "head_name",
        "head_schema",
        "head_ops",
        "head_error",
        "const_row",
        "distinct",
        "_stable_stats",
        "delta_program",
        "_body_to_step",
    ) + COUNTERS

    def __init__(
        self,
        query: ConjunctiveQuery,
        steps: Sequence[PlanStep],
        head_ops: Optional[tuple],
        head_error: Optional[str],
        stable_stats: dict[str, list],
        delta_program=None,
        body_to_step: tuple = (),
    ):
        self.query = query
        self.steps = tuple(steps)
        self.head_name = query.head_name
        self.head_schema = RelationSchema(query.head_schema)
        self.head_ops = head_ops
        self.head_error = head_error
        self.distinct = query.distinct
        # Empty body: the head is a single constant row (matching the
        # per-call evaluator), or empty if any head term is a variable.
        self.const_row: Optional[tuple] = None
        if not self.steps and all(isinstance(t, Const) for t in query.head_terms):
            self.const_row = tuple(t.value for t in query.head_terms)
        # name -> [version, size bucket] of every stable body relation.
        self._stable_stats = stable_stats
        # The precompiled semi-join reduction program (delta-driven
        # evaluation) and the body-position -> step-index permutation that
        # maps its output onto this plan's frozen join order.
        self.delta_program = delta_program
        self._body_to_step = body_to_step
        #: Intermediate solutions the steps produced, over every execution.
        self.probe_rows = 0
        #: Join steps that probed a group index / scanned a per-document
        #: relation, and steps that matched every solution exactly once
        #: (the solution columns were extended, not re-gathered).
        self.indexed_probes = 0
        self.scanned_probes = 0
        self.one_to_one_steps = 0

    # ------------------------------------------------------------------ #
    # stats-epoch validity
    # ------------------------------------------------------------------ #
    def is_current(self, relations: Mapping[str, Relation]) -> bool:
        """Whether the plan's stats epoch still matches ``relations``.

        Unchanged mutation counters short-circuit to ``True``; a changed
        counter only invalidates the plan when the relation's cardinality
        crossed a power-of-two bucket since compilation (statistics drift
        worth re-optimizing for, per the precomputation-for-updates idea).
        """
        lookup = _lookup_of(relations)
        for name, stat in self._stable_stats.items():
            relation = lookup(name)
            if relation is None:
                return False
            version = relation.version
            if version == stat[0]:
                continue
            bucket = len(relation).bit_length()
            if bucket != stat[1]:
                return False
            stat[0] = version  # same magnitude: refresh the fast path
        return True

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def empty_head(self) -> Relation:
        """A fresh, empty head relation (what :meth:`execute` fills)."""
        return Relation(self.head_schema, name=self.head_name)

    def reduced_step_relations(
        self, relations: Mapping[str, Relation], delta: DeltaContext
    ) -> list[Optional[Relation]] | _EmptyDelta | None:
        """Per-step reduced relations from the semi-join pass, or ``None``.

        Runs the precompiled :class:`~repro.relational.conjunctive.DeltaProgram`
        against the current environment and remaps its body-ordered output
        onto this plan's frozen step order, ready to be passed to
        :meth:`execute` as ``step_relations``.  A pass that proved the
        result empty returns :data:`~repro.relational.conjunctive.EMPTY_DELTA`
        instead: there is nothing to execute.
        """
        if self.delta_program is None:
            return None
        reduced = self.delta_program.reduce(relations, delta)
        if reduced is None or reduced is EMPTY_DELTA:
            return reduced
        step_relations: list = [None] * len(self.steps)
        for position, relation in enumerate(reduced):
            if relation is not None:
                step_relations[self._body_to_step[position]] = relation
        return step_relations

    def execute(
        self,
        relations: Mapping[str, Relation],
        growth_limit: Optional[int] = None,
        step_relations: Optional[Sequence] = None,
    ) -> Relation:
        """Evaluate the plan against ``relations`` and return the head relation.

        ``relations`` is an environment with a value dictionary
        (:class:`~repro.relational.database.IndexedDatabase`); any other
        mapping is a :class:`TypeError`.  The partial-solution table is one
        int64 id array per bound variable.  A step over a stable relation
        batch-probes its memoized
        :class:`~repro.relational.columnar.GroupIndex`; a step over a
        relation that lives for this document only (a witness relation, a
        delta-reduced override) is scanned by broadcast comparison while
        probe rows × store rows stay within
        :data:`~repro.relational.columnar.SCAN_LIMIT`, and indexed past it.
        A step that matched every solution exactly once extends the
        solution columns instead of re-gathering them.  Only the head is
        decoded back to values.

        ``growth_limit`` (used by :class:`PlanCache` for cached plans)
        raises :class:`PlanBudgetExceeded` as soon as any step's
        intermediate solution set exceeds the limit, so a frozen order that
        turns pathological on the current statistics can be abandoned and
        re-planned instead of running to completion.

        ``step_relations`` (from :meth:`reduced_step_relations`) substitutes
        a delta-reduced relation for individual steps.
        """
        dictionary = getattr(relations, "dictionary", None)
        if dictionary is None:
            raise TypeError(
                "CompiledPlan.execute needs an IndexedDatabase environment, "
                f"got {type(relations).__name__}"
            )
        out = self.empty_head()
        if not self.steps:
            if self.const_row is not None:
                out.rows.append(self.const_row)
            return out

        lookup = _lookup_of(relations)
        stores = []  # (store, probed through its group index)
        for step_index, step in enumerate(self.steps):
            override = (
                step_relations[step_index] if step_relations is not None else None
            )
            relation = override if override is not None else lookup(step.relation_name)
            if relation is None:
                raise SchemaError(
                    f"unknown relation {step.relation_name!r} in compiled plan"
                )
            store = relation.column_store()
            if store is None or store.dictionary is not dictionary:
                raise ValueError(
                    f"relation {step.relation_name!r} is not bound in this environment"
                )
            # A delta-reduced override lives for this document only.
            stores.append((store, step.stable and override is None))

        limited = growth_limit is not None
        sols: list = []  # one int64 id array per bound variable
        num_sols = 1     # starts at the single empty solution
        for step, (store, indexed) in zip(self.steps, stores):
            cols = store.columns()
            const_ids: list[int] = []
            for _col, value in step.const_checks:
                cid = dictionary.get_id(value)
                if cid is None:
                    return out  # the constant occurs nowhere in this state
                const_ids.append(cid)
            eq = step.within_eq
            positions = step.join_positions
            if positions:
                probe_cols = [sols[p] for p in positions]
                probe_cols.extend(
                    np.full(num_sols, cid, dtype=np.int64) for cid in const_ids
                )
                if indexed or num_sols * len(store) > columnar.SCAN_LIMIT:
                    self.indexed_probes += 1
                    probe_idx, row_pos = store.probe(step.key_cols, probe_cols)
                else:
                    self.scanned_probes += 1
                    probe_idx, row_pos = store.scan(step.key_cols, probe_cols)
                if eq and len(row_pos):
                    mask = None
                    for a, b in eq:
                        m = cols[a][row_pos] == cols[b][row_pos]
                        mask = m if mask is None else (mask & m)
                    probe_idx, row_pos = probe_idx[mask], row_pos[mask]
                matched = len(row_pos)
                if limited and matched > growth_limit:
                    raise PlanBudgetExceeded(self._budget_message(step))
                # probe_idx ascends; n pairs without a repeat are 0..n-1:
                # every solution kept its row, so the columns stay as they are.
                if 0 < matched == num_sols and (
                    matched == 1 or not (probe_idx[1:] == probe_idx[:-1]).any()
                ):
                    self.one_to_one_steps += 1
                else:
                    sols = [col[probe_idx] for col in sols]
                sols.extend(cols[c][row_pos] for c in step.new_var_cols)
                num_sols = matched
            else:
                constraints = [
                    (col, frozenset((cid,)))
                    for (col, _v), cid in zip(step.const_checks, const_ids)
                ]
                matched = columnar.select_positions(cols, len(store), constraints)
                if eq and len(matched):
                    mask = None
                    for a, b in eq:
                        m = cols[a][matched] == cols[b][matched]
                        mask = m if mask is None else (mask & m)
                    matched = matched[mask]
                r = len(matched)
                if limited and num_sols * r > growth_limit:
                    raise PlanBudgetExceeded(self._budget_message(step))
                if r == 1:
                    self.one_to_one_steps += 1
                else:
                    sols = [np.repeat(col, r) for col in sols]
                sols.extend(
                    np.tile(cols[c][matched], num_sols) for c in step.new_var_cols
                )
                num_sols *= r
            self.probe_rows += num_sols
            if not num_sols:
                return out

        if self.head_ops is None:
            # Mirrors the per-call evaluator: the unbound-head error is only
            # raised when there are solutions to project.
            raise SchemaError(self.head_error)
        rows = out.rows
        if not self.head_ops:  # zero-arity head
            if self.distinct:
                rows.append(())
            else:
                rows.extend(() for _ in range(num_sols))
            return out
        values = dictionary.values
        columns = []
        for const, v in self.head_ops:
            if const:
                columns.append(repeat(v, num_sols))
            else:
                columns.append([values[i] for i in sols[v].tolist()])
        if self.distinct:
            seen: set[tuple] = set()
            for row in zip(*columns):
                if row not in seen:
                    seen.add(row)
                    rows.append(row)
        else:
            rows.extend(zip(*columns))
        return out

    def _budget_message(self, step: PlanStep) -> str:
        return (
            f"{self.head_name}: intermediate solutions exceeded the growth "
            f"limit while joining {step.relation_name}"
        )

    @property
    def join_order(self) -> tuple[str, ...]:
        """The relation names in compiled join order (introspection/tests)."""
        return tuple(step.relation_name for step in self.steps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledPlan {self.head_name} order={self.join_order}>"


def compile_plan(
    query: ConjunctiveQuery, relations: Mapping[str, Relation]
) -> CompiledPlan:
    """Compile ``query`` against the statistics of ``relations``.

    The greedy join order and all per-step metadata are fixed here; the
    returned plan can be executed against any later state of the same
    environment (the result set never depends on the order — only the cost
    does, which is what :meth:`CompiledPlan.is_current` tracks).
    """
    lookup = _lookup_of(relations)
    rel_map: dict[str, Relation] = {}
    for atom in query.body:
        relation = lookup(atom.relation)
        if relation is None:
            raise SchemaError(
                f"unknown relation {atom.relation!r} in conjunctive query"
            )
        _atom_matches(atom, relation)
        rel_map[atom.relation] = relation

    ordered = _choose_order(query.body, rel_map)
    is_stable = getattr(relations, "is_stable", None)
    var_pos: dict[str, int] = {}
    steps = [
        PlanStep(atom, var_pos, is_stable is None or is_stable(atom.relation))
        for atom in ordered
    ]

    head_ops: Optional[tuple] = None
    head_error: Optional[str] = None
    if ordered:
        ops = []
        for t in query.head_terms:
            if isinstance(t, Const):
                ops.append((True, t.value))
            elif t.name in var_pos:
                ops.append((False, var_pos[t.name]))
            else:
                head_error = f"head variable {t.name!r} is not bound by the body"
                break
        else:
            head_ops = tuple(ops)

    stable_stats: dict[str, list] = {}
    for name, relation in rel_map.items():
        if is_stable is not None and not is_stable(name):
            continue
        stable_stats[name] = [relation.version, len(relation).bit_length()]

    delta_program = build_delta_program(query.body, relations)
    step_index_of = {id(atom): index for index, atom in enumerate(ordered)}
    body_to_step = tuple(step_index_of[id(atom)] for atom in query.body)

    return CompiledPlan(
        query,
        steps,
        head_ops,
        head_error,
        stable_stats,
        delta_program=delta_program,
        body_to_step=body_to_step,
    )


class PlanCache:
    """A cache of compiled plans keyed on query identity and stats epoch.

    One cache per processor: plans are compiled against that processor's
    evaluation environment.  ``hits`` / ``misses`` / ``replans`` /
    ``aborts`` count, respectively, executions of a still-current plan,
    first-time compilations, re-optimizations forced by stats-epoch drift,
    and cached executions abandoned mid-flight because the frozen order
    blew past ``growth_limit`` on the current statistics (each abort also
    re-plans and re-executes, so results are never lost).  ``probe_rows`` /
    ``head_rows`` sum, over the completed executions, the intermediate
    solutions every join step produced and the head rows returned: their
    ratio is the plans' blow-up over their output.  ``indexed_probes`` /
    ``scanned_probes`` count the join steps that probed a group index or
    scanned a per-document relation, and ``one_to_one_steps`` those that
    matched every solution exactly once.
    """

    #: The keys of :meth:`stats` that sum across caches (``plans`` does not).
    COUNTERS = ("hits", "misses", "replans", "aborts", "head_rows") + CompiledPlan.COUNTERS

    def __init__(self, growth_limit: Optional[int] = DEFAULT_GROWTH_LIMIT) -> None:
        self._entries: dict[int, tuple[ConjunctiveQuery, CompiledPlan]] = {}
        self.growth_limit = growth_limit
        for counter in self.COUNTERS:
            setattr(self, counter, 0)

    def _current_plan(
        self, query: ConjunctiveQuery, relations: Mapping[str, Relation]
    ) -> tuple[CompiledPlan, bool]:
        """``(plan, cached)`` — ``cached`` when a still-current plan was reused.

        The cache keys on object identity (and keeps a strong reference, so
        a recycled ``id`` can never alias a dead query): the registry and
        the sequential processor hold one long-lived ``ConjunctiveQuery``
        per template/query, which is exactly the sharing this exploits.
        """
        key = id(query)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is query:
            plan = entry[1]
            if plan.is_current(relations):
                self.hits += 1
                return plan, True
            self.replans += 1
        else:
            self.misses += 1
        plan = compile_plan(query, relations)
        self._entries[key] = (query, plan)
        return plan, False

    def plan_for(
        self, query: ConjunctiveQuery, relations: Mapping[str, Relation]
    ) -> CompiledPlan:
        """The current plan for ``query``, compiling or re-planning as needed."""
        return self._current_plan(query, relations)[0]

    def evaluate(
        self,
        query: ConjunctiveQuery,
        relations: Mapping[str, Relation],
        delta: Optional[DeltaContext] = None,
    ) -> Relation:
        """Evaluate ``query`` through the cache (plan, probe, adapt).

        Cached plans run under the growth budget; on a budget breach the
        plan is re-optimized against the *current* statistics and
        re-executed — a fresh plan already carries the best order the
        optimizer can produce for the current statistics, so fresh plans
        (and the post-abort re-execution) run unbudgeted.

        With a :class:`~repro.relational.conjunctive.DeltaContext` the
        plan's precompiled semi-join reduction runs first and the join
        probes the reduced state relations (delta-driven evaluation) — or
        does not run at all when the reduction proved the result empty;
        the result set is identical either way.
        """
        plan, cached = self._current_plan(query, relations)
        step_relations = (
            plan.reduced_step_relations(relations, delta) if delta is not None else None
        )
        if step_relations is EMPTY_DELTA:
            delta.executions_skipped += 1
            return plan.empty_head()
        if cached:
            try:
                return self._execute(
                    plan,
                    relations,
                    growth_limit=self.growth_limit,
                    step_relations=step_relations,
                )
            except PlanBudgetExceeded:
                self.aborts += 1
                plan = compile_plan(query, relations)
                self._entries[id(query)] = (query, plan)
                step_relations = (
                    plan.reduced_step_relations(relations, delta)
                    if delta is not None
                    else None
                )
        return self._execute(plan, relations, step_relations=step_relations)

    def _execute(self, plan: CompiledPlan, relations, **kwargs) -> Relation:
        """``plan.execute``, its counters and ``head_rows`` added to the cache's."""
        before = [getattr(plan, counter) for counter in CompiledPlan.COUNTERS]
        out = plan.execute(relations, **kwargs)
        for counter, value in zip(CompiledPlan.COUNTERS, before):
            setattr(self, counter, getattr(self, counter) + getattr(plan, counter) - value)
        self.head_rows += len(out.rows)
        return out

    def invalidate(self, query: ConjunctiveQuery) -> bool:
        """Drop the cached plan of ``query`` (query retraction path).

        Returns ``True`` when an entry was removed.  The next evaluation of
        the same query object recompiles against the then-current
        statistics.
        """
        entry = self._entries.get(id(query))
        if entry is not None and entry[0] is query:
            del self._entries[id(query)]
            return True
        return False

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        """The number of cached plans and every counter of :attr:`COUNTERS`."""
        return {
            "plans": len(self._entries),
            **{counter: getattr(self, counter) for counter in self.COUNTERS},
        }
