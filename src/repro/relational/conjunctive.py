"""Conjunctive (Datalog-style) queries and their evaluator.

The paper expresses the per-template multi-query join ``CQT`` (Section 4.4)
as a Datalog rule over the witness relations and the template relation
``RT``.  This module provides:

* :class:`Atom` — a positional atom ``R(t1, ..., tn)`` whose terms are
  :class:`~repro.relational.terms.Var` or
  :class:`~repro.relational.terms.Const`.
* :class:`ConjunctiveQuery` — a head atom plus a body (a list of atoms).
* :func:`evaluate_conjunctive` — a hash-join based evaluator with a simple
  size-driven greedy join order (or the caller-provided order), planning
  on every call: the plain reference the compiled plans of
  :mod:`repro.relational.plan` are checked against.
* :class:`DeltaProgram` / :class:`DeltaContext` — the delta-driven
  (semi-join reduction) evaluation pass the compiled plans run
  (:meth:`~repro.relational.plan.PlanCache.evaluate` with ``delta=``):
  before the main join runs, every
  *stable* (state/``RT``) atom's relation is restricted to the rows
  reachable from the current document's witness relations via the query's
  join variables, so join cost is proportional to the delta-connected
  state rather than the total state — and the pass ends with
  :data:`EMPTY_DELTA` at the first empty relation or domain, which is how
  a query that cannot match the current document costs next to nothing.

The evaluator treats repeated variables within and across atoms as equality
constraints, exactly like Datalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.relational import columnar
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema, SchemaError
from repro.relational.terms import Const, Var, term


@dataclass(frozen=True)
class Atom:
    """A positional atom ``relation(term_1, ..., term_n)``.

    ``terms`` correspond positionally to the relation's schema attributes.
    """

    relation: str
    terms: tuple

    def __init__(self, relation: str, terms: Sequence):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "terms", tuple(term(t) for t in terms))

    @property
    def variables(self) -> list[Var]:
        """The variables occurring in this atom (with repetitions)."""
        return [t for t in self.terms if isinstance(t, Var)]

    def __repr__(self) -> str:
        inner = ", ".join(repr(t) for t in self.terms)
        return f"{self.relation}({inner})"


@dataclass
class ConjunctiveQuery:
    """A conjunctive query ``head :- body``.

    ``head_schema`` names the output attributes; ``head_terms`` say what to
    put in each output column (a body variable or a constant).
    """

    head_name: str
    head_schema: Sequence[str]
    head_terms: Sequence
    body: list[Atom] = field(default_factory=list)
    distinct: bool = True

    def __post_init__(self) -> None:
        self.head_schema = tuple(self.head_schema)
        self.head_terms = tuple(term(t) for t in self.head_terms)
        if len(self.head_schema) != len(self.head_terms):
            raise SchemaError("head schema and head terms must have the same arity")

    def add_atom(self, relation: str, terms: Sequence) -> Atom:
        """Append an atom to the body and return it."""
        atom = Atom(relation, terms)
        self.body.append(atom)
        return atom

    @property
    def variables(self) -> set[str]:
        """Names of all variables used in the body."""
        out: set[str] = set()
        for atom in self.body:
            out.update(v.name for v in atom.variables)
        return out

    def __repr__(self) -> str:
        head = f"{self.head_name}({', '.join(self.head_schema)})"
        body = ", ".join(repr(a) for a in self.body)
        return f"{head} :- {body}"


# --------------------------------------------------------------------------- #
# evaluation
# --------------------------------------------------------------------------- #
def _atom_matches(atom: Atom, relation: Relation) -> None:
    if len(atom.terms) != len(relation.schema):
        raise SchemaError(
            f"atom {atom!r} has arity {len(atom.terms)} but relation "
            f"{relation.name or atom.relation!r} has arity {len(relation.schema)}"
        )


def _estimate_fanout(atom: Atom, relation: Relation, bound: set[str]) -> float:
    """Estimate how many rows of ``relation`` match one partial solution.

    The estimate is ``|R| / prod(ndv(column))`` over the columns that are
    already constrained (by a constant or an already-bound variable) —  the
    textbook independence/uniformity assumption.  It only needs per-column
    distinct counts, so the join order can be chosen before any evaluation.
    """
    rows = len(relation)
    if rows == 0:
        return 0.0
    denominator = 1.0
    for column, term in enumerate(atom.terms):
        constrained = isinstance(term, Const) or (
            isinstance(term, Var) and term.name in bound
        )
        if constrained:
            denominator *= max(1, relation.distinct_count(column))
    return rows / denominator


def _choose_order(
    body: Sequence[Atom], relations: Mapping[str, Relation]
) -> list[Atom]:
    """Greedy join order by minimum estimated fan-out.

    At each step the atom expected to multiply the intermediate result the
    least is chosen (ties broken by relation size, then body position).
    This keeps the per-template conjunctive queries from exploding on
    workloads where the value join alone is unselective: the template
    relation ``RT`` is pulled in as soon as enough of its columns are bound
    to make it selective, which then constrains the remaining witness atoms.
    """
    remaining = list(body)
    if not remaining:
        return []
    ordered: list[Atom] = []
    bound: set[str] = set()

    while remaining:
        def cost(atom: Atom) -> tuple:
            relation = relations[atom.relation]
            return (
                _estimate_fanout(atom, relation, bound),
                len(relation),
                body.index(atom),
            )

        nxt = min(remaining, key=cost)
        ordered.append(nxt)
        remaining.remove(nxt)
        bound.update(v.name for v in nxt.variables)
    return ordered


def _analyze_atom(
    atom: Atom, var_pos: Mapping[str, int]
) -> tuple[
    list[tuple[int, object]],
    list[tuple[int, int]],
    list[tuple[int, str]],
    list[tuple[int, int]],
]:
    """Classify an atom's columns against the already-bound variables.

    Returns ``(const_checks, join_cols, new_vars, within_atom_eq)`` where
    ``const_checks`` pairs a column with its required constant, ``join_cols``
    pairs a column with the solution position of its (bound) variable,
    ``new_vars`` pairs a column with the fresh variable it binds, and
    ``within_atom_eq`` records equal-column constraints for repeated fresh
    variables.  Shared by the per-call evaluator below and the plan compiler
    (:mod:`repro.relational.plan`), which precomputes this once per query.
    """
    const_checks: list[tuple[int, object]] = []
    join_cols: list[tuple[int, int]] = []      # (column in row, position in solution)
    new_vars: list[tuple[int, str]] = []       # (column in row, new variable name)
    within_atom_eq: list[tuple[int, int]] = [] # equal columns for repeated new vars
    seen_new: dict[str, int] = {}

    for col, t in enumerate(atom.terms):
        if isinstance(t, Const):
            const_checks.append((col, t.value))
        else:
            name = t.name
            if name in var_pos:
                join_cols.append((col, var_pos[name]))
            elif name in seen_new:
                within_atom_eq.append((col, seen_new[name]))
            else:
                seen_new[name] = col
                new_vars.append((col, name))
    return const_checks, join_cols, new_vars, within_atom_eq


# --------------------------------------------------------------------------- #
# delta-driven evaluation: semi-join reduction outward from the witness delta
# --------------------------------------------------------------------------- #
class DeltaContext:
    """Per-document memoization and statistics for delta-driven evaluation.

    One context is created per published document (by the processors) and
    shared across every template/query evaluated for that document.  The
    reductions computed by the semi-join pass are keyed on the *identity* of
    the source relation and of the value-domain sets involved, so templates
    whose bodies chain through the same witness relations reuse each other's
    reductions — the per-document reduction cost is paid once per distinct
    reduction, not once per template.

    Counters: ``reductions_computed`` / ``reductions_reused`` count distinct
    and memo-served reductions, ``rows_scanned`` counts state rows (plus
    index probes) examined while reducing, and ``rows_kept`` counts the rows
    that survived — the delta-connected state the main joins then run over.
    ``short_circuits`` counts reduction passes ended by an empty relation or
    domain, ``executions_skipped`` the main joins their callers then never
    ran, and ``lookups`` the computed reductions served by id lookups on a
    group index (the others were masked scans).
    """

    COUNTERS = (
        "reductions_computed",
        "reductions_reused",
        "rows_scanned",
        "rows_kept",
        "short_circuits",
        "executions_skipped",
        "lookups",
    )

    __slots__ = (
        "_values",
        "_reductions",
        "_meets",
        "_domain_arrays",
        "_pins",
    ) + COUNTERS

    def __init__(self) -> None:
        self._values: dict[tuple, frozenset] = {}
        self._reductions: dict[tuple, Relation] = {}
        self._meets: dict[tuple, frozenset] = {}
        self._domain_arrays: dict[int, object] = {}
        # Memo keys use id(); pinning the keyed objects guarantees a
        # recycled id can never alias a collected relation or domain set.
        self._pins: list = []
        self.reductions_computed = 0
        self.reductions_reused = 0
        self.rows_scanned = 0
        self.rows_kept = 0
        self.short_circuits = 0
        self.executions_skipped = 0
        self.lookups = 0

    # ------------------------------------------------------------------ #
    # domains
    # ------------------------------------------------------------------ #
    def column_values(
        self, relation: Relation, column: int, const_checks: tuple = ()
    ) -> frozenset:
        """Memoized distinct interned ids of one column (under constant checks)."""
        try:
            key = (id(relation), column, const_checks)
            cached = self._values.get(key)
        except TypeError:  # unhashable constant: compute without memoizing
            return self._column_ids(relation, column, const_checks)
        if cached is None:
            cached = self._values[key] = self._column_ids(relation, column, const_checks)
            self._pins.append(relation)
        return cached

    def _column_ids(self, relation: Relation, column: int, const_checks: tuple) -> frozenset:
        store = relation.column_store()
        constraints = []
        for col, value in const_checks:
            vid = store.dictionary.get_id(value)
            if vid is None:
                return frozenset()  # the constant never occurs anywhere
            constraints.append((col, frozenset((vid,))))
        cols = store.columns()
        if constraints:
            positions = columnar.select_positions(
                cols, len(store), constraints, self._domain_arrays
            )
            return columnar.distinct_ids(cols[column], positions)
        return columnar.distinct_ids(cols[column])

    def _domain_arr(self, domain: frozenset):
        """Memoized sorted-array form of an id domain (``None`` when small)."""
        if len(domain) <= columnar._SMALL_DOMAIN:
            return None  # matched id by id: no array form needed
        arr = self._domain_arrays.get(id(domain))
        if arr is None:
            arr = columnar.domain_array(domain)
            self._domain_arrays[id(domain)] = arr
            self._pins.append(domain)
        return arr

    def meet(self, a: Optional[frozenset], b: Optional[frozenset]) -> Optional[frozenset]:
        """Intersection of two domains, preserving object identity when possible.

        Identity preservation matters: reduction memo keys are built from
        domain-set identities, so returning the original object whenever the
        intersection changes nothing keeps equal reductions shareable across
        templates.
        """
        if a is None:
            return b
        if b is None or a is b:
            return a
        key = (id(a), id(b))
        cached = self._meets.get(key)
        if cached is None:
            cached = a & b
            if cached == a:
                cached = a
            elif cached == b:
                cached = b
            self._meets[key] = cached
            self._pins.append((a, b))
        return cached

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    @staticmethod
    def _signature(base: Relation, const_checks: tuple, constraints: tuple) -> tuple:
        """Memo key of one reduction: relation and domain *identities*."""
        return (id(base), const_checks, tuple((c, id(d)) for c, d in constraints))

    def reduce(
        self, name: str, base: Relation, const_checks: tuple, constraints: tuple
    ) -> Optional[Relation]:
        """Restrict ``base`` to the rows satisfying every constraint.

        ``constraints`` is a tuple of ``(column, id-domain frozenset)``
        membership constraints; ``const_checks`` contributes singleton
        domains.  Returns ``None`` when there is nothing to restrict by.
        The restriction runs over the base's id columns — dict hits on the
        group index of the most selective domain when it is small against
        the base (:meth:`~repro.relational.columnar.ColumnStore.positions_of`),
        so the cost is proportional to the matching rows, else one masked
        scan — and the output relation carries a derived column store, so
        later passes (and the plan executor) stay in id space without
        re-interning.
        """
        if not const_checks and not constraints:
            return None
        sig = self._signature(base, const_checks, constraints)
        try:
            cached = self._reductions.get(sig)
        except TypeError:  # unhashable constant: compute without memoizing
            sig, cached = None, None
        if cached is not None:
            self.reductions_reused += 1
            return cached
        out = self._reduce(name, base, const_checks, constraints)
        if sig is not None:
            self._reductions[sig] = out
            self._pins.append(base)
            self._pins.extend(d for _c, d in constraints)
        return out

    def holds(self, base: Relation, const_checks: tuple, constraints: tuple) -> bool:
        """Whether :meth:`reduce` would serve these arguments from its memo.

        True only after another query of the same document asked for the
        same reduction (same relation and domain objects).
        """
        if not self._reductions:
            return False
        try:
            return self._signature(base, const_checks, constraints) in self._reductions
        except TypeError:  # unhashable constant: never memoized
            return False

    def _reduce(
        self, name: str, base: Relation, const_checks: tuple, constraints: tuple
    ) -> Relation:
        out = Relation(base.schema, name=name)
        store = base.column_store()
        self.reductions_computed += 1
        id_constraints = []
        for col, value in const_checks:
            vid = store.dictionary.get_id(value)
            if vid is None:  # the constant occurs nowhere: empty result
                self.rows_scanned += len(base)
                return out
            id_constraints.append((col, frozenset((vid,))))
        id_constraints.extend(constraints)
        cols = store.columns()
        n = len(store)
        probe_col, probe_dom = min(id_constraints, key=lambda cv: len(cv[1]))
        if len(probe_dom) < max(8, n >> 3):
            # Dict hits on the most selective domain's group index: cost is
            # proportional to the matching rows, not |base|.
            self.lookups += 1
            positions = store.positions_of(probe_col, probe_dom)
            rest = list(id_constraints)
            rest.remove((probe_col, probe_dom))
            for c, dom in rest:
                if not positions:
                    break
                ids = cols[c][positions].tolist()
                positions = [p for p, v in zip(positions, ids) if v in dom]
            index = np.array(positions, dtype=np.int64)
            self.rows_scanned += len(positions) + len(probe_dom)
        else:
            for _col, dom in id_constraints:
                self._domain_arr(dom)  # pre-register the sorted-array forms
            index = columnar.select_positions(cols, n, id_constraints, self._domain_arrays)
            positions = index.tolist()
            self.rows_scanned += n
        base_rows = base.rows
        out.rows = [base_rows[i] for i in positions]
        out._attach_store(
            columnar.ColumnStore.from_columns(
                [c[index] for c in cols], store.dictionary, out._stamp()
            )
        )
        self.rows_kept += len(out.rows)
        return out

    def stats(self) -> dict[str, int]:
        """The reduction counters as a dict (folded into processor stats)."""
        return {counter: getattr(self, counter) for counter in self.COUNTERS}


class _EmptyDelta:
    """Type of :data:`EMPTY_DELTA` (a singleton; compare with ``is``)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "EMPTY_DELTA"


#: Outcome of a reduction pass that met an empty relation or join-variable
#: domain: the query's result is empty, whatever the atoms not yet reduced
#: hold, so the caller returns the empty head relation without joining.
EMPTY_DELTA = _EmptyDelta()


class _DeltaAtom:
    """Reduction metadata of one body atom (frozen at program build time).

    ``join_cols`` pairs a column with its variable for the query's *join
    variables* only — a variable confined to this atom (``qid`` and ``wl``
    of ``RT``) restricts no other atom, so no domain is kept for it.
    """

    __slots__ = ("position", "name", "stable", "const_checks", "join_cols")

    def __init__(self, position: int, atom: Atom, stable: bool, join_vars: set[str]):
        self.position = position
        self.name = atom.relation
        self.stable = stable
        self.const_checks = tuple(
            (col, t.value) for col, t in enumerate(atom.terms) if isinstance(t, Const)
        )
        self.join_cols = tuple(
            (col, t.name)
            for col, t in enumerate(atom.terms)
            if isinstance(t, Var) and t.name in join_vars
        )


class DeltaProgram:
    """A frozen semi-join reduction program for one conjunctive-query body.

    Built once per query (by :func:`build_delta_program`, or by the plan
    compiler) and executed once per document per query through
    :meth:`reduce`.  Domains are kept for the *join variables* — those
    occurring in two or more atoms, decided here — and seeded from the
    delta (ephemeral witness) atoms; then every stable atom is restricted
    to the rows whose join-variable values fall inside those domains —
    most selective atom first, with a second propagation pass so a
    reduction discovered late (e.g. the structural ``Rbin`` rows surviving
    the template's variable names) tightens the atoms reduced before it
    (e.g. ``Rdoc``'s value-matched rows shrink to the structurally alive
    documents).  That pass visits only the atoms whose domains narrowed
    since their reduction and those the first pass found unconstrained.
    A reduction the document's context already holds, because
    another query asked for it, is free and taken first.  An empty atom
    bounds the output at zero, so the first relation or domain that comes
    back empty ends the pass with :data:`EMPTY_DELTA`.
    """

    __slots__ = ("num_atoms", "_delta", "_stable", "_positions", "_watchers", "_peers")

    def __init__(self, body: Sequence[Atom], is_stable):
        occurrences: dict[str, int] = {}
        for atom in body:
            for name in {v.name for v in atom.variables}:
                occurrences[name] = occurrences.get(name, 0) + 1
        join_vars = {name for name, count in occurrences.items() if count > 1}
        atoms = [
            _DeltaAtom(position, atom, bool(is_stable(atom.relation)), join_vars)
            for position, atom in enumerate(body)
        ]
        self.num_atoms = len(atoms)
        self._delta = tuple(a for a in atoms if not a.stable)
        self._stable = tuple(a for a in atoms if a.stable)
        self._positions = frozenset(a.position for a in self._stable)
        # join variable -> positions of the stable atoms whose estimate
        # reads its domain (and goes stale when that domain narrows).
        watchers: dict[str, list[int]] = {}
        for atom in self._stable:
            for _col, var in atom.join_cols:
                watchers.setdefault(var, []).append(atom.position)
        self._watchers = {var: tuple(ps) for var, ps in watchers.items()}
        # position -> the other stable atoms over the same relation: what one
        # of them adds to the context's memo, the others may then find there.
        self._peers = {
            atom.position: tuple(
                other.position
                for other in self._stable
                if other.name == atom.name and other is not atom
            )
            for atom in self._stable
        }

    @property
    def reducible(self) -> bool:
        """Whether there is both a delta side and a stable side to reduce."""
        return bool(self._delta) and bool(self._stable)

    @staticmethod
    def _estimate(atom: _DeltaAtom, base: Relation, constraints: tuple):
        """Estimated reduced cardinality (``None`` when unconstrained)."""
        if not atom.const_checks and not constraints:
            return None
        est = float(len(base))
        for col, _value in atom.const_checks:
            est /= max(1, base.distinct_count(col))
        for col, dom in constraints:
            est *= min(1.0, len(dom) / max(1, base.distinct_count(col)))
        return est

    def reduce(
        self, relations: Mapping[str, Relation], ctx: DeltaContext
    ) -> list[Optional[Relation]] | _EmptyDelta | None:
        """Reduced relations by body position (``None`` entries = unreduced).

        Returns ``None`` when nothing was reduced, and :data:`EMPTY_DELTA`
        as soon as a body relation, a reduction or a join-variable domain
        is empty (counted in ``ctx.short_circuits``).
        """
        out = self._reduce(relations, ctx) if self.reducible else None
        if out is EMPTY_DELTA:
            ctx.short_circuits += 1
        return out

    def _reduce(self, relations: Mapping[str, Relation], ctx: DeltaContext):
        lookup = relations.get if hasattr(relations, "get") else relations.__getitem__
        delta_rels = [(atom, lookup(atom.name)) for atom in self._delta]
        # stable atoms: the bound relation, then what it was last reduced to
        bases = {atom.position: lookup(atom.name) for atom in self._stable}
        bound = [relation for _atom, relation in delta_rels] + list(bases.values())
        if any(relation is None for relation in bound):
            return None  # the evaluator raises the proper error
        if not all(len(relation) for relation in bound):
            return EMPTY_DELTA

        domains: dict[str, frozenset] = {}
        for atom, relation in delta_rels:
            for col, var in atom.join_cols:
                dom = ctx.meet(
                    domains.get(var), ctx.column_values(relation, col, atom.const_checks)
                )
                if not dom:
                    return EMPTY_DELTA
                domains[var] = dom

        reduced: dict[int, Relation] = {}
        # Reduced atoms whose domains narrowed since their last reduction.
        stale: set[int] = set()
        # position -> (estimate, constraints).  An entry is dropped when the
        # atom's base, one of its domains or what the memo may hold for it
        # changes, so the greedy pick re-estimates only those atoms and
        # still sees what a full re-estimation would.
        estimates: dict[int, tuple] = {}
        pending = set(self._positions)
        for revisit in (False, True):
            if revisit:
                # The second pass is a worklist: the atoms left stale by the
                # first, those it found unconstrained, and each atom a
                # reduction of this pass narrows before its own turn.
                pending = stale | self._positions.difference(reduced)
                picked: set[int] = set()
            while pending:
                best = best_est = None
                best_constraints: tuple = ()
                for atom in self._stable:
                    pos = atom.position
                    if pos not in pending:
                        continue
                    entry = estimates.get(pos)
                    if entry is None:
                        constraints = tuple(
                            (col, domains[var])
                            for col, var in atom.join_cols
                            if var in domains
                        )
                        if ctx.holds(bases[pos], atom.const_checks, constraints):
                            est = -1.0  # another query of this document paid for it
                        else:
                            est = self._estimate(atom, bases[pos], constraints)
                        entry = estimates[pos] = (est, constraints)
                    est = entry[0]
                    if est is not None and (best_est is None or est < best_est):
                        best, best_est, best_constraints = atom, est, entry[1]
                if best is None:
                    break  # every pending atom is unconstrained (this pass)
                pos = best.position
                pending.discard(pos)
                if revisit:
                    picked.add(pos)
                out = ctx.reduce(best.name, bases[pos], best.const_checks, best_constraints)
                if not len(out):
                    return EMPTY_DELTA
                bases[pos] = reduced[pos] = out
                del estimates[pos]
                for peer in self._peers[pos]:
                    estimates.pop(peer, None)
                for col, var in best.join_cols:
                    old = domains.get(var)
                    dom = ctx.meet(old, ctx.column_values(out, col))
                    if dom is old:
                        continue
                    if not dom:
                        return EMPTY_DELTA
                    domains[var] = dom
                    watchers = self._watchers[var]
                    for watcher in watchers:
                        estimates.pop(watcher, None)
                    stale.update(watchers)
                    if revisit:
                        pending.update(w for w in watchers if w not in picked)
                # The survivors satisfy the domains they just narrowed: only
                # another atom's narrowing makes this one worth reducing again.
                stale.discard(pos)
        if not reduced:
            return None
        return [reduced.get(i) for i in range(self.num_atoms)]


def build_delta_program(
    body: Sequence[Atom], relations: Mapping[str, Relation]
) -> Optional[DeltaProgram]:
    """Build the semi-join reduction program of ``body``, or ``None``.

    Requires an evaluation environment that distinguishes stable (state /
    ``RT``) bindings from ephemeral per-document ones via ``is_stable``
    (:class:`~repro.relational.database.IndexedDatabase`); a plain mapping
    has no delta to reduce against.
    """
    is_stable = getattr(relations, "is_stable", None)
    if is_stable is None:
        return None
    program = DeltaProgram(body, is_stable)
    return program if program.reducible else None


def _join_atom(
    solutions: list[tuple],
    var_order: list[str],
    atom: Atom,
    relation: Relation,
) -> tuple[list[tuple], list[str]]:
    """Join the current solution set with one atom (hash join per call)."""
    var_pos = {v: i for i, v in enumerate(var_order)}
    const_checks, join_cols, new_vars, within_atom_eq = _analyze_atom(atom, var_pos)

    new_var_order = var_order + [name for _, name in new_vars]
    new_solutions: list[tuple] = []
    new_var_cols = tuple(c for c, _ in new_vars)

    buckets: dict[tuple, list[tuple]] = {}
    for row in relation.rows:
        ok = all(row[c] == v for c, v in const_checks)
        if ok:
            ok = all(row[c] == row[c2] for c, c2 in within_atom_eq)
        if not ok:
            continue
        key = tuple(row[c] for c, _ in join_cols)
        buckets.setdefault(key, []).append(row)

    if not var_order and not join_cols:
        # First atom (or a cartesian step against an empty binding set).
        base = solutions if solutions else [()]
        for sol in base:
            for rows in buckets.values():
                for row in rows:
                    new_solutions.append(sol + tuple(row[c] for c in new_var_cols))
        return new_solutions, new_var_order

    for sol in solutions:
        key = tuple(sol[pos] for _, pos in join_cols)
        for row in buckets.get(key, ()):
            new_solutions.append(sol + tuple(row[c] for c in new_var_cols))
    return new_solutions, new_var_order


def evaluate_conjunctive(
    query: ConjunctiveQuery,
    relations: Mapping[str, Relation],
    order: str | Sequence[Atom] = "greedy",
) -> Relation:
    """Evaluate ``query`` against ``relations`` and return the head relation.

    Parameters
    ----------
    query:
        The conjunctive query to evaluate.
    relations:
        A mapping (or :class:`~repro.relational.database.Database`) from
        relation name to :class:`Relation`.
    order:
        ``"greedy"`` (default) for the built-in size-driven greedy join
        order, ``"given"`` to join atoms in the order they appear in the
        body, or an explicit sequence of the body's atoms.

    Every atom's relation is hashed per call over its Python rows: this is
    the plain row reference the compiled plans' id-column kernel is checked
    against.
    """
    lookup = relations.get if hasattr(relations, "get") else relations.__getitem__

    def rel_of(atom: Atom) -> Relation:
        rel = lookup(atom.relation)
        if rel is None:
            raise SchemaError(f"unknown relation {atom.relation!r} in conjunctive query")
        _atom_matches(atom, rel)
        return rel

    rel_map = {atom.relation: rel_of(atom) for atom in query.body}
    if not isinstance(order, str):
        ordered = list(order)
        if sorted(map(id, ordered)) != sorted(map(id, query.body)):
            raise ValueError("explicit order must be a permutation of the query body")
    elif order == "given":
        ordered = list(query.body)
    elif order == "greedy":
        ordered = _choose_order(query.body, rel_map)
    else:
        raise ValueError(f"unknown join order strategy {order!r}")

    out = Relation(RelationSchema(query.head_schema), name=query.head_name)
    solutions: list[tuple] = []
    var_order: list[str] = []
    for atom in ordered:
        solutions, var_order = _join_atom(solutions, var_order, atom, rel_map[atom.relation])
        if not solutions:
            break

    # Project the head.
    var_pos = {v: i for i, v in enumerate(var_order)}
    if not ordered:
        # Empty body: the head is a single row of constants (if all terms are consts).
        if all(isinstance(t, Const) for t in query.head_terms):
            out.rows.append(tuple(t.value for t in query.head_terms))
        return out
    if not solutions:
        # Some atom had no matching rows; the result is empty regardless of
        # which head variables happened to be bound before the evaluation
        # short-circuited.
        return out

    head_cols: list = []
    for t in query.head_terms:
        if isinstance(t, Const):
            head_cols.append(("const", t.value))
        else:
            if t.name not in var_pos:
                raise SchemaError(f"head variable {t.name!r} is not bound by the body")
            head_cols.append(("var", var_pos[t.name]))

    seen: set[tuple] = set()
    for sol in solutions:
        row = tuple(v if kind == "const" else sol[v] for kind, v in head_cols)
        if query.distinct:
            if row in seen:
                continue
            seen.add(row)
        out.rows.append(row)
    return out
