"""DL and N-DATALOG under (non-)deterministic inflationary semantics.

Section 3.2.1 of the paper reviews two languages of Abiteboul–Vianu whose
non-determinism comes from *firing one clause instantiation at a time*:

* **DL**: Datalog syntax plus negative body literals, multiple positive
  head atoms, and invented values (head variables absent from the body);
* **N-DATALOG**: additionally allows negative literals in heads, read as
  deletions; an instantiation fires only if its head is consistent.

Their *non-deterministic inflationary semantics* applies one instantiation
of one clause at a time, never deleting (DL) until nothing new can be
inferred; the answer set collects all reachable terminal states.  The
*deterministic* inflationary semantics fires all instantiations of every
clause simultaneously per stage.  Example 3 of the paper contrasts the two:
``man(X) :- person(X), not woman(X)`` plus the symmetric clause yields
``man(r) = {∅, {a}, {b}, {a,b}}`` non-deterministically but
``{(a), (b)}`` deterministically.

These interpreters exist for comparison with IDLOG (experiment E3); they
use explicit state-space search and are meant for example-scale inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from ..datalog.ast import Atom, Clause, Literal
from ..datalog.database import Database
from ..datalog.executor import BatchExecutor
from ..datalog.parser import parse_head_body_clauses
from ..datalog.safety import order_body
from ..datalog.seminaive import EvalStats, RelationStore
from ..datalog.terms import Value, Var
from ..errors import EvaluationError, SchemaError

Fact = tuple[str, tuple[Value, ...]]
"""A ground fact: (predicate, argument tuple)."""

State = frozenset[Fact]
"""An instantaneous database: the set of facts currently true."""


@dataclass(frozen=True)
class DLClause:
    """A generalized clause with a list of head literals.

    DL heads are all positive; N-DATALOG heads may be negative (deletions).
    """

    heads: tuple[Literal, ...]
    body: tuple[Literal, ...]

    def __post_init__(self) -> None:
        for literal in self.heads:
            atom = literal.atom
            if not isinstance(atom, Atom) or atom.is_builtin or atom.is_id:
                raise SchemaError(
                    f"head literal {literal} must be an ordinary atom")

    @property
    def invented_vars(self) -> frozenset[Var]:
        """Head variables not bound by the body (DL value invention)."""
        body_vars: set[Var] = set()
        for literal in self.body:
            if literal.positive:
                body_vars |= literal.vars
        head_vars: set[Var] = set()
        for literal in self.heads:
            head_vars |= literal.vars
        return frozenset(head_vars - body_vars)

    @property
    def has_deletion(self) -> bool:
        """True when some head literal is negative."""
        return any(not lit.positive for lit in self.heads)

    def __str__(self) -> str:
        heads = ", ".join(str(lit) for lit in self.heads)
        if not self.body:
            return f"{heads}."
        return f"{heads} :- {', '.join(str(lit) for lit in self.body)}."


@dataclass(frozen=True)
class DLProgram:
    """A DL or N-DATALOG program."""

    clauses: tuple[DLClause, ...]
    name: str = "dl_program"

    @property
    def has_invention(self) -> bool:
        """True when some clause invents values."""
        return any(c.invented_vars for c in self.clauses)

    @property
    def has_deletion(self) -> bool:
        """True when some head literal is negative (N-DATALOG)."""
        return any(c.has_deletion for c in self.clauses)

    @property
    def predicates(self) -> frozenset[str]:
        preds: set[str] = set()
        for clause in self.clauses:
            for literal in clause.heads:
                preds.add(literal.atom.pred)
            for literal in clause.body:
                atom = literal.atom
                if isinstance(atom, Atom) and not atom.is_builtin:
                    preds.add(atom.pred)
        return frozenset(preds)

    def arity(self, pred: str) -> int:
        for clause in self.clauses:
            for literal in tuple(clause.heads) + tuple(clause.body):
                atom = literal.atom
                if isinstance(atom, Atom) and not atom.is_builtin \
                        and atom.pred == pred:
                    return len(atom.args)
        raise KeyError(pred)


def parse_dl_program(text: str, allow_deletion: bool = False,
                     name: str = "dl_program") -> DLProgram:
    """Parse a DL (or, with ``allow_deletion``, N-DATALOG) program.

    Heads are comma-separated literal lists; bodies use ordinary Datalog
    syntax.  ``not`` in a head is only legal for N-DATALOG.
    """
    clauses = []
    for heads, body in parse_head_body_clauses(text):
        clause = DLClause(heads, body)
        if clause.has_deletion and not allow_deletion:
            raise SchemaError(
                f"negative head literal in {clause}: DL forbids deletions "
                "(parse with allow_deletion=True for N-DATALOG)")
        if allow_deletion:
            unbound = clause.invented_vars
            if unbound:
                names = sorted(v.name for v in unbound)
                raise SchemaError(
                    f"N-DATALOG requires head variables to be positively "
                    f"bound in the body; {names} are not ({clause})")
        clauses.append(clause)
    return DLProgram(tuple(clauses), name=name)


def parse_ndatalog_program(text: str,
                           name: str = "ndatalog_program") -> DLProgram:
    """Parse an N-DATALOG program (negative heads allowed)."""
    return parse_dl_program(text, allow_deletion=True, name=name)


@dataclass(frozen=True)
class Firing:
    """One applicable clause instantiation.

    Attributes:
        adds: Facts the firing asserts.
        deletes: Facts the firing retracts (N-DATALOG only).
    """

    adds: frozenset[Fact]
    deletes: frozenset[Fact]

    def apply(self, state: State) -> State:
        """The successor state."""
        return (state - self.deletes) | self.adds

    def productive_on(self, state: State) -> bool:
        """True when applying the firing changes ``state``."""
        return not self.adds <= state or bool(self.deletes & state)


class DLEngine:
    """Interpreter for DL / N-DATALOG inflationary semantics.

    Example (the paper's Example 3):
        >>> engine = DLEngine('''
        ...     man(X) :- person(X), not woman(X).
        ...     woman(X) :- person(X), not man(X).
        ... ''')
        >>> db = Database.from_facts({"person": [("a",), ("b",)]})
        >>> len(engine.answers(db, "man"))
        4
    """

    def __init__(self, program: Union[str, DLProgram],
                 allow_deletion: bool = False) -> None:
        if isinstance(program, str):
            program = parse_dl_program(program, allow_deletion)
        self.program = program
        self._plans = [self._plan(clause) for clause in self.program.clauses]
        self._arities = {pred: program.arity(pred)
                         for pred in program.predicates}
        self._executor = BatchExecutor()
        self._invent_counter = 0

    @staticmethod
    def _plan(clause: DLClause) -> tuple[Literal, ...]:
        # Reuse the Datalog planner with a variable-free dummy head: head
        # variables may legitimately stay unbound (value invention).
        dummy = Clause(Atom("dl_goal", ()), clause.body)
        return order_body(dummy)

    def _fresh_value(self) -> str:
        self._invent_counter += 1
        return f"new_{self._invent_counter}"

    def firings(self, state: State,
                invent: bool = True) -> Iterator[Firing]:
        """All productive instantiations applicable in ``state``."""
        store = RelationStore.of_facts(state, self._arities)
        for clause, plan in zip(self.program.clauses, self._plans):
            invented = clause.invented_vars
            if invented and not invent:
                raise EvaluationError(
                    f"clause {clause} invents values; exhaustive "
                    "enumeration over invented values is not supported")
            for full in self._executor.execute_bindings(
                    plan, store, EvalStats()):
                for var in invented:
                    full[var] = self._fresh_value()
                adds: set[Fact] = set()
                deletes: set[Fact] = set()
                for literal in clause.heads:
                    atom = literal.atom
                    (adds if literal.positive else deletes).add(
                        (atom.pred, atom.ground(full)))
                if adds & deletes:
                    continue  # inconsistent head: not fireable
                firing = Firing(frozenset(adds), frozenset(deletes))
                if firing.productive_on(state):
                    yield firing

    def one(self, db: Database, seed: Optional[int] = None,
            max_steps: int = 10_000) -> State:
        """One terminal state of the non-deterministic semantics."""
        rng = random.Random(seed)
        state = db.facts()
        for _ in range(max_steps):
            choices = list(self.firings(state))
            if not choices:
                return state
            state = rng.choice(choices).apply(state)
        raise EvaluationError(
            f"no terminal state within {max_steps} steps (the program may "
            "not terminate under one-at-a-time firing)")

    def answers(self, db: Database, pred: str,
                max_states: int = 20_000) -> frozenset[frozenset[tuple]]:
        """All values of ``pred`` over every reachable terminal state."""
        if self.program.has_invention:
            raise EvaluationError(
                "answer-set enumeration over invented values is unsupported")
        initial = db.facts()
        visited: set[State] = set()
        results: set[frozenset[tuple]] = set()
        stack = [initial]
        while stack:
            state = stack.pop()
            if state in visited:
                continue
            visited.add(state)
            if len(visited) > max_states:
                raise EvaluationError(
                    "state space exceeds max_states; the input is too "
                    "non-deterministic to enumerate")
            successors = [f.apply(state)
                          for f in self.firings(state, invent=False)]
            if not successors:
                results.add(self.project(state, pred))
            else:
                stack.extend(successors)
        return frozenset(results)

    def deterministic_fixpoint(self, db: Database,
                               max_stages: int = 10_000) -> State:
        """The deterministic inflationary fixpoint (all firings per stage).

        Only defined for DL (no deletions): simultaneous additions commute.
        """
        if self.program.has_deletion:
            raise EvaluationError(
                "the deterministic inflationary semantics is only defined "
                "for DL programs (no deletions)")
        state = db.facts()
        for _ in range(max_stages):
            adds: set[Fact] = set()
            for firing in self.firings(state):
                adds |= firing.adds
            if adds <= state:
                return state
            state = state | adds
        raise EvaluationError(
            f"no fixpoint within {max_stages} stages (value invention can "
            "make the deterministic semantics diverge)")

    @staticmethod
    def project(state: State, pred: str) -> frozenset[tuple]:
        """The relation of ``pred`` in a state."""
        return frozenset(row for name, row in state if name == pred)
