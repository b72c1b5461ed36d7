"""Stable models of normal logic programs (paper §3.2).

The paper notes that non-stratified programs under stable-model semantics
[GL88, SZ90] are another route to non-determinism, and that every such
query is also definable in stratified IDLOG (a corollary of Theorem 6).
Experiment E12 demonstrates the containment on concrete programs.

Implementation: the textbook guess-and-check.  Ground the program over an
upper bound ``U`` (the least model with negative literals dropped — every
stable model is a subset of ``U``), then test each candidate
``EDB ∪ S, S ⊆ derivable atoms``: ``M`` is stable iff the least model of
the Gelfond–Lifschitz reduct ``P^M`` equals ``M``.  Exponential, intended
for example-scale programs only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Union

from ..datalog.ast import Clause, Program
from ..datalog.database import Database
from ..datalog.executor import BatchExecutor
from ..datalog.parser import parse_program
from ..datalog.safety import order_body
from ..datalog.seminaive import EvalStats, RelationStore, evaluate
from ..datalog.terms import Value
from ..datalog.trace import NullTracer
from ..errors import EvaluationError

Fact = tuple[str, tuple[Value, ...]]
State = frozenset[Fact]


@dataclass(frozen=True)
class GroundClause:
    """One ground instance: head fact, positive facts, negative facts."""

    head: Fact
    positive: tuple[Fact, ...]
    negative: tuple[Fact, ...]


class StableEngine:
    """Stable-model enumeration for normal programs.

    Example (the classic non-stratified choice program):
        >>> engine = StableEngine('''
        ...     man(X) :- person(X), not woman(X).
        ...     woman(X) :- person(X), not man(X).
        ... ''')
        >>> db = Database.from_facts({"person": [("a",)]})
        >>> len(engine.stable_models(db))
        2
    """

    def __init__(self, program: Union[str, Program]) -> None:
        if isinstance(program, str):
            program = parse_program(program)
        if program.has_choice() or program.has_id_atoms():
            raise EvaluationError(
                "stable-model semantics is defined here for normal "
                "programs only (no choice, no ID-atoms)")
        self.program = program
        # The positive envelope: clauses with negative literals dropped.
        self._envelope = Program(tuple(
            Clause(c.head,
                   tuple(lit for lit in c.body
                         if lit.positive or lit.atom.is_builtin))
            for c in program.clauses), name="envelope")

    def _initial_facts(self, db: Database) -> State:
        predicates = self.program.predicates
        return frozenset(fact for fact in db.facts()
                         if fact[0] in predicates)

    def upper_bound(self, db: Database) -> State:
        """The least model of the positive envelope: ⊇ every stable model.

        An internal step of the search, so it emits no span events even
        under an ambient tracer.
        """
        model, _ = evaluate(self._envelope, db, tracer=NullTracer())
        return self._initial_facts(db) | frozenset(
            (pred, row) for pred in self._envelope.head_predicates
            for row in model.relation(pred))

    def ground_clauses(self, upper: State) -> list[GroundClause]:
        """Ground instances whose positive body lies inside ``upper``,
        the :meth:`upper_bound` state the caller already computed."""
        program = self.program
        store = RelationStore.of_facts(upper, {
            pred: program.arity(pred) for pred in program.predicates})
        executor = BatchExecutor()
        out: list[GroundClause] = []
        # Each clause runs as its envelope clause (negative relation
        # literals removed, comparisons kept): negatives are recorded,
        # not joined.
        for clause, envelope in zip(program.clauses, self._envelope.clauses):
            positives = tuple(lit.atom for lit in clause.body
                              if lit.positive and not lit.atom.is_builtin)
            negatives = tuple(lit.atom for lit in clause.body
                              if not lit.positive and not lit.atom.is_builtin)
            for binding in executor.execute_bindings(
                    order_body(envelope), store, EvalStats()):
                out.append(GroundClause(
                    (clause.head.pred, clause.head.ground(binding)),
                    tuple((a.pred, a.ground(binding)) for a in positives),
                    tuple((a.pred, a.ground(binding)) for a in negatives)))
        return out

    @staticmethod
    def _least_model_of_reduct(ground: list[GroundClause],
                               candidate: State, base: State) -> State:
        """Least model of the GL-reduct ``P^candidate`` over ``base`` facts."""
        state = set(base)
        surviving = [g for g in ground
                     if not any(n in candidate for n in g.negative)]
        changed = True
        while changed:
            changed = False
            for g in surviving:
                if g.head not in state and all(p in state for p in g.positive):
                    state.add(g.head)
                    changed = True
        return frozenset(state)

    def stable_models(self, db: Database,
                      max_candidates: int = 1 << 20) -> frozenset[State]:
        """All stable models on ``db``.

        Raises:
            EvaluationError: when the candidate space (2^|derivable atoms|)
                exceeds ``max_candidates``.
        """
        base = self._initial_facts(db)
        upper = self.upper_bound(db)
        derivable = sorted(upper - base)
        if 2 ** len(derivable) > max_candidates:
            raise EvaluationError(
                f"{len(derivable)} derivable atoms: candidate space too "
                "large for exhaustive stable-model search")
        ground = self.ground_clauses(upper)
        models: set[State] = set()
        for k in range(len(derivable) + 1):
            for subset in combinations(derivable, k):
                candidate = base | frozenset(subset)
                if self._least_model_of_reduct(ground, candidate, base) \
                        == candidate:
                    models.add(candidate)
        return frozenset(models)

    def answers(self, db: Database, pred: str,
                max_candidates: int = 1 << 20) -> frozenset[frozenset[tuple]]:
        """The non-deterministic query: ``pred``'s relation per stable model."""
        return frozenset(
            frozenset(row for name, row in model if name == pred)
            for model in self.stable_models(db, max_candidates))
