"""Cost-based clause planning for the bottom-up engines.

:func:`repro.datalog.safety.order_body` orders a clause body purely
syntactically: filters as soon as they are evaluable, positive literals by
the number of already-bound variables, ties broken by source order.  That
never looks at relation cardinalities, so a clause written
``q() :- big(X, Y), small(Y)`` scans the big relation first and probes the
small one once per scanned tuple — swamping exactly the intermediate-tuple
savings the paper's Section 4 optimizations are after.

This module adds a *cost-based* planner in the LDL++ tradition of
cardinality-aware rule compilation:

* **Same safety envelope.**  The cost planner shares the filter-scheduling
  pass, forced-first validation, stuck diagnosis and head-variable check
  with ``order_body``, so it raises :class:`SafetyError` on exactly the
  clauses ``order_body`` rejects — "checked safe" still coincides with
  "evaluable" for every plan mode.
* **Cost model.**  Positive relation literals are chosen to minimize the
  estimated number of join probes, using relation cardinalities and
  per-position distinct-value counts (:meth:`Relation.column_stats`) under
  the textbook uniform-distribution independence assumptions.  Under the
  columnar store those counts are one C-level ``set()`` pass per
  ``array('q')`` code vector (code equality is value equality, so distinct
  codes = distinct constants), which keeps re-costing cheap enough to run
  inside the fixpoint.  The estimate mirrors the engine's actual counter:
  one probe per tuple an index lookup (or full scan) yields, with a floor
  of one probe per lookup.
* **Plan caching.**  :class:`ClausePlanner` compiles one plan per
  (clause, delta-position) pair and reuses it across fixpoint rounds; a
  cost plan is re-costed only when some body relation's cardinality has
  drifted by more than ``recost_threshold`` (a factor, default 2.0) since
  the plan was built.  ``EvalStats.plans_built`` / ``plans_reused`` count
  the cache behavior.

The same planner object serves the plain Datalog engine and the IDLOG
engine; ID-atoms are costed through their *base* relation (planning never
materializes an ID-relation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import SchemaError
from .ast import Atom, Clause, Literal
from .database import Relation
from .pretty import format_clause, format_literal
from .safety import (_binds, _bound_var_count, _check_head_bound,
                     _choose_filter, _selectable, _stuck_error, _take_first,
                     binding_pattern, order_body)
from .terms import Const, Var
from .trace import EV_PLAN_BUILT, EV_PLAN_DRIFT

GREEDY = "greedy"
COST = "cost"
PLAN_MODES = (GREEDY, COST)

#: Maps a base predicate name to its current relation (``None`` when the
#: planner has no statistics for it; estimates then fall back to neutral
#: defaults).  ID-atoms are looked up under their base predicate.
Resolver = Callable[[str], Optional[Relation]]


def check_plan_mode(plan: str) -> str:
    """Validate a ``plan=`` knob value, returning it unchanged.

    Raises:
        SchemaError: when ``plan`` is not one of :data:`PLAN_MODES`.
    """
    if plan not in PLAN_MODES:
        raise SchemaError(
            f"unknown plan mode {plan!r}; expected one of {PLAN_MODES}")
    return plan


def _no_stats(pred: str) -> Optional[Relation]:
    """Default resolver: no cardinality information available."""
    return None


@dataclass(frozen=True)
class LiteralEstimate:
    """The cost model's view of one scheduled literal.

    Attributes:
        literal: The scheduled literal.
        kind: ``scan`` / ``index probe`` / ``builtin`` / ``anti-join``
            (``id-scan`` / ``id-probe`` for ID-atoms).
        pattern: The b/n binding pattern the literal runs under.
        matches: Expected tuples yielded per input substitution.
        probes: Estimated total probes this literal contributes.
        rows: Estimated substitutions flowing to the next literal.
    """

    literal: Literal
    kind: str
    pattern: str
    matches: float
    probes: float
    rows: float


@dataclass(frozen=True)
class ClausePlan:
    """A compiled evaluation order plus the estimates that justified it.

    Attributes:
        clause: The planned clause.
        mode: ``"greedy"`` or ``"cost"``.
        order: The literal evaluation order.
        estimates: Per-literal cost annotations, parallel to ``order``.
        cost: Total estimated probes for one evaluation of the clause.
        cardinalities: Snapshot of ``(base predicate, size)`` pairs at
            planning time — what :class:`ClausePlanner` compares against to
            decide whether a cached plan has gone stale.
    """

    clause: Clause
    mode: str
    order: tuple[Literal, ...]
    estimates: tuple[LiteralEstimate, ...]
    cost: float
    cardinalities: tuple[tuple[str, int], ...]


def _positive_estimate(atom: Atom, bound: frozenset[Var],
                       resolver: Resolver) -> tuple[float, float]:
    """(matches, survivors) per input substitution for a relation literal.

    ``matches`` models what ``Relation.match`` yields for the probe pattern
    (constants and outside-bound variables select an index); ``survivors``
    additionally discounts repeated unbound variables, which only filter
    after the probe.  ID-atoms are estimated from their base relation, with
    the tid position treated as uniform over the expected block size.
    """
    relation = resolver(atom.pred)
    if relation is None:
        return 1.0, 1.0
    size = len(relation)
    if size == 0:
        return 0.0, 0.0
    distinct = relation.column_stats()
    base_args = atom.args[:-1] if atom.is_id else atom.args
    probe_selectivity = 1.0
    extra_selectivity = 1.0
    seen: set[Var] = set()
    for i, term in enumerate(base_args):
        d = max(1, distinct[i]) if i < len(distinct) else 1
        if isinstance(term, Const) or term in bound:
            probe_selectivity /= d
        elif isinstance(term, Var) and term in seen:
            extra_selectivity /= d
        if isinstance(term, Var):
            seen.add(term)
    if atom.is_id:
        # The tid column is uniform over 0..blocksize-1; the expected block
        # size is |R| over the number of grouping-key combinations.
        groups = 1
        for position in atom.group:
            groups *= max(1, distinct[position - 1])
        groups = min(groups, size)
        block = max(1, -(-size // groups))
        tid = atom.args[-1]
        if isinstance(tid, Const) or tid in bound:
            probe_selectivity /= block
        elif isinstance(tid, Var) and tid in seen:
            extra_selectivity /= block
    matches = size * probe_selectivity
    return matches, matches * extra_selectivity


def _filter_estimate(literal: Literal,
                     bound: frozenset[Var]) -> tuple[float, float]:
    """(matches, survivors) for a builtin or negated literal."""
    atom = literal.atom
    if isinstance(atom, Atom) and atom.is_builtin and literal.positive \
            and "n" in binding_pattern(atom, bound):
        # Value-generating builtin (e.g. nnb-plus): a couple of solutions.
        return 2.0, 2.0
    # Ground test (comparison, negated builtin, or anti-join).
    return 1.0, 0.5


def _literal_kind(literal: Literal, bound: frozenset[Var]) -> str:
    atom = literal.atom
    assert isinstance(atom, Atom)
    if not literal.positive:
        return "anti-join"
    if atom.is_builtin:
        return "builtin"
    pattern = binding_pattern(atom, bound)
    if "b" in pattern:
        return "id-probe" if atom.is_id else "index probe"
    return "id-scan" if atom.is_id else "scan"


def _annotate(clause: Clause, order: tuple[Literal, ...], mode: str,
              resolver: Resolver,
              initially_bound: frozenset[Var]) -> ClausePlan:
    """Attach cost estimates to an already-chosen order."""
    bound = frozenset(initially_bound)
    rows = 1.0
    cost = 0.0
    estimates: list[LiteralEstimate] = []
    for literal in order:
        atom = literal.atom
        assert isinstance(atom, Atom)
        pattern = binding_pattern(atom, bound)
        if atom.is_builtin or not literal.positive:
            matches, factor = _filter_estimate(literal, bound)
            survivors = rows * factor
        else:
            matches, per_row = _positive_estimate(atom, bound, resolver)
            survivors = rows * per_row
        # The engine counts one probe per yielded tuple, with a floor of
        # one probe per lookup (see repro.datalog.executor).
        probes = rows * max(1.0, matches)
        cost += probes
        estimates.append(LiteralEstimate(
            literal, _literal_kind(literal, bound), pattern,
            matches, probes, survivors))
        rows = survivors
        bound |= _binds(literal)
    snapshot = tuple(sorted({
        atom.pred: len(resolver(atom.pred) or ())
        for atom in clause.body_atoms if not atom.is_builtin}.items()))
    return ClausePlan(clause, mode, tuple(order), tuple(estimates),
                      cost, snapshot)


def plan_body(clause: Clause,
              resolver: Resolver = _no_stats,
              initially_bound: frozenset[Var] = frozenset(),
              first: Optional[Literal] = None,
              mode: str = COST) -> ClausePlan:
    """Plan a clause body, returning the order plus its cost estimates.

    With ``mode="greedy"`` the order is exactly
    :func:`~repro.datalog.safety.order_body`'s (annotated with the same
    cost model, which is what lets EXPLAIN show both plans side by side).
    With ``mode="cost"`` positive relation literals are chosen to minimize
    estimated probes instead of maximizing bound variables.

    Raises:
        SafetyError: on exactly the clauses ``order_body`` rejects.
        SchemaError: on an unknown ``mode``.
    """
    check_plan_mode(mode)
    if mode == GREEDY:
        order = order_body(clause, initially_bound, first)
        return _annotate(clause, order, mode, resolver, initially_bound)

    remaining = list(clause.body)
    ordered: list[Literal] = []
    bound = frozenset(initially_bound)
    rows = 1.0
    if first is not None:
        _take_first(first, remaining)
        ordered.append(first)
        bound |= _binds(first)

    while remaining:
        # Pass 1: identical filter scheduling to order_body.
        chosen = _choose_filter(remaining, bound)
        if chosen is None:
            # Pass 2: the cheapest selectable positive relation literal.
            best_key: Optional[tuple] = None
            best_rows = rows
            for position, literal in enumerate(remaining):
                if not _selectable(literal, bound):
                    continue
                matches, survivors = _positive_estimate(
                    literal.atom, bound, resolver)
                key = (rows * max(1.0, matches), rows * survivors,
                       -_bound_var_count(literal, bound), position)
                if best_key is None or key < best_key:
                    best_key = key
                    chosen = literal
                    best_rows = rows * survivors
            if chosen is not None:
                rows = best_rows
        if chosen is None:
            raise _stuck_error(clause, remaining, bound)
        remaining.remove(chosen)
        ordered.append(chosen)
        bound |= _binds(chosen)

    _check_head_bound(clause, bound)
    return _annotate(clause, tuple(ordered), mode, resolver, initially_bound)


class ClausePlanner:
    """Compiled-plan cache shared by one evaluation.

    One planner instance lives for the duration of one fixpoint evaluation
    (or one engine, if the caller prefers); plans are keyed by
    ``(clause identity, delta position)``.  Greedy plans never go stale
    (the greedy order ignores cardinalities); cost plans are re-costed
    when any body relation's cardinality has drifted by more than
    ``recost_threshold`` since the plan was compiled.

    Args:
        mode: ``"greedy"`` (the syntactic order) or ``"cost"``.
        recost_threshold: Staleness factor; a cached cost plan is rebuilt
            when some body relation's cardinality grew or shrank by more
            than this factor (compared with +1 smoothing so tiny relations
            do not thrash the cache).
        tracer: Optional span-event receiver; every *built* plan (cache
            misses and re-costings, not cache hits) emits one
            ``plan_built`` event carrying the chosen order and its
            estimated cost.  The :attr:`stratum` attribute labels those
            events and is maintained by the stratum loop.
    """

    def __init__(self, mode: str = GREEDY,
                 recost_threshold: float = 2.0,
                 tracer=None) -> None:
        self.mode = check_plan_mode(mode)
        self.recost_threshold = recost_threshold
        self.tracer = tracer
        #: Stratum index stamped on emitted events (set by the caller).
        self.stratum = 0
        self._plans: dict[tuple[int, Optional[int]], ClausePlan] = {}

    def plan(self, clause: Clause, resolver: Resolver = _no_stats,
             delta_index: Optional[int] = None,
             stats=None) -> ClausePlan:
        """The (cached) plan for one clause / delta-position pair.

        Args:
            clause: The clause to plan.
            resolver: Current relation lookup for cost estimates.
            delta_index: Source position of the semi-naive delta literal,
                forced to run first (``None`` for the naive variant).
            stats: Optional :class:`~repro.datalog.seminaive.EvalStats`
                whose ``plans_built`` / ``plans_reused`` counters to bump.
        """
        key = (id(clause), delta_index)
        cached = self._plans.get(key)
        if cached is not None and \
                (self.mode == GREEDY or not self._stale(cached, resolver)):
            if stats is not None:
                stats.plans_reused += 1
            return cached
        first = clause.body[delta_index] if delta_index is not None else None
        plan = plan_body(clause, resolver, first=first, mode=self.mode)
        self._plans[key] = plan
        if stats is not None:
            stats.plans_built += 1
        if self.tracer is not None:
            text = format_clause(clause)
            self.tracer.emit(
                EV_PLAN_BUILT, clause=text,
                stratum=self.stratum, delta_index=delta_index,
                mode=self.mode, cost=plan.cost,
                recosted=cached is not None,
                order=" -> ".join(format_literal(lit)
                                  for lit in plan.order))
            # The plan-drift audit trail: re-costing that actually flips
            # the chosen order mid-fixpoint (not mere re-costing, which
            # usually re-derives the same order with fresher numbers).
            if cached is not None and plan.order != cached.order:
                self.tracer.emit(
                    EV_PLAN_DRIFT, clause=text,
                    stratum=self.stratum, delta_index=delta_index,
                    mode=self.mode,
                    old_cost=cached.cost, new_cost=plan.cost,
                    old_order=" -> ".join(format_literal(lit)
                                          for lit in cached.order),
                    new_order=" -> ".join(format_literal(lit)
                                          for lit in plan.order))
        return plan

    def order(self, clause: Clause, resolver: Resolver = _no_stats,
              delta_index: Optional[int] = None,
              stats=None) -> tuple[Literal, ...]:
        """Like :meth:`plan`, returning just the literal order."""
        return self.plan(clause, resolver, delta_index, stats).order

    def _stale(self, plan: ClausePlan, resolver: Resolver) -> bool:
        threshold = self.recost_threshold
        for pred, old in plan.cardinalities:
            relation = resolver(pred)
            new = len(relation) if relation is not None else 0
            low, high = sorted((old, new))
            if high + 1 > threshold * (low + 1):
                return True
        return False
