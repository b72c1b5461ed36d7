"""DATALOG^∨: disjunctive heads and minimal-model semantics (paper §3.2).

The paper's overview names disjunction the "fairly direct way" to get
non-determinism: ``man(X) | woman(X) :- person(X)`` has one minimal model
per way of classifying each person, so the queries ``man``/``woman`` are
non-deterministic.  Example 2 defines the same queries in IDLOG; experiment
E2 checks the answer sets coincide.

Implementation: positive disjunctive programs (negation-free bodies except
arithmetic), evaluated by *violated-clause branching*: starting from the
EDB, repeatedly find a ground clause instance whose body holds but whose
head is entirely false, and branch on which head atom to satisfy.  Every
branch terminates in a model; every minimal model is reachable this way
(any minimal model M: replay the derivation inside M), so filtering the
collected models by set inclusion yields exactly the minimal models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from ..datalog.ast import Atom, Clause, Literal
from ..datalog.database import Database
from ..datalog.executor import BatchExecutor
from ..datalog.parser import parse_head_body_clauses
from ..datalog.safety import order_body
from ..datalog.seminaive import EvalStats, RelationStore
from ..datalog.terms import Value, Var
from ..errors import EvaluationError, SchemaError

Fact = tuple[str, tuple[Value, ...]]
State = frozenset[Fact]


@dataclass(frozen=True)
class DisjunctiveClause:
    """A clause ``h1 | ... | hk :- body`` with positive atoms throughout."""

    heads: tuple[Atom, ...]
    body: tuple[Literal, ...]

    def __post_init__(self) -> None:
        if not self.heads:
            raise SchemaError("a disjunctive clause needs at least one head")
        for atom in self.heads:
            if atom.is_builtin or atom.is_id:
                raise SchemaError(f"head atom {atom} must be ordinary")
        body_vars: set[Var] = set()
        for literal in self.body:
            atom = literal.atom
            if not isinstance(atom, Atom):
                raise SchemaError("choice operators are not DATALOG^∨")
            if not literal.positive and not atom.is_builtin:
                raise SchemaError(
                    f"negative body literal {literal}: this implementation "
                    "covers positive disjunctive programs")
            if literal.positive:
                body_vars |= atom.vars
        for atom in self.heads:
            unbound = atom.vars - body_vars
            if unbound:
                names = sorted(v.name for v in unbound)
                raise SchemaError(
                    f"head variables {names} not bound by the body "
                    f"(range restriction)")

    def __str__(self) -> str:
        heads = " | ".join(str(a) for a in self.heads)
        if not self.body:
            return f"{heads}."
        return f"{heads} :- {', '.join(str(lit) for lit in self.body)}."


@dataclass(frozen=True)
class DisjunctiveProgram:
    """A positive disjunctive Datalog program."""

    clauses: tuple[DisjunctiveClause, ...]
    name: str = "dlv_program"

    @property
    def predicates(self) -> frozenset[str]:
        preds: set[str] = set()
        for clause in self.clauses:
            for atom in clause.heads:
                preds.add(atom.pred)
            for literal in clause.body:
                if isinstance(literal.atom, Atom) \
                        and not literal.atom.is_builtin:
                    preds.add(literal.atom.pred)
        return frozenset(preds)

    def arity(self, pred: str) -> int:
        for clause in self.clauses:
            for atom in clause.heads:
                if atom.pred == pred:
                    return len(atom.args)
            for literal in clause.body:
                atom = literal.atom
                if isinstance(atom, Atom) and not atom.is_builtin \
                        and atom.pred == pred:
                    return len(atom.args)
        raise KeyError(pred)


def parse_disjunctive_program(text: str,
                              name: str = "dlv_program",
                              ) -> DisjunctiveProgram:
    """Parse ``h1 | h2 :- body.`` clauses."""
    clauses = []
    for heads, body in parse_head_body_clauses(text, head_separator="|"):
        atoms = []
        for literal in heads:
            if not literal.positive:
                raise SchemaError("negative head literal in DATALOG^∨")
            atoms.append(literal.atom)
        clauses.append(DisjunctiveClause(tuple(atoms), body))
    return DisjunctiveProgram(tuple(clauses), name=name)


class DisjunctiveEngine:
    """Minimal-model enumeration for positive disjunctive programs.

    Example (the paper's Example 2 clause):
        >>> engine = DisjunctiveEngine("man(X) | woman(X) :- person(X).")
        >>> db = Database.from_facts({"person": [("a",), ("b",)]})
        >>> len(engine.minimal_models(db))
        4
    """

    def __init__(self, program: Union[str, DisjunctiveProgram]) -> None:
        if isinstance(program, str):
            program = parse_disjunctive_program(program)
        self.program = program
        self._plans = [
            order_body(Clause(Atom("dlv_goal", ()), clause.body))
            for clause in program.clauses]
        self._arities = {pred: program.arity(pred)
                         for pred in program.predicates}
        self._executor = BatchExecutor()

    def _violations(self, state: State) -> Iterator[tuple[Fact, ...]]:
        """Head alternatives of ground instances violated by ``state``."""
        store = RelationStore.of_facts(state, self._arities)
        for clause, plan in zip(self.program.clauses, self._plans):
            for binding in self._executor.execute_bindings(
                    plan, store, EvalStats()):
                heads = tuple((atom.pred, atom.ground(binding))
                              for atom in clause.heads)
                if not any(h in state for h in heads):
                    yield heads

    def models(self, db: Database,
               max_states: int = 50_000) -> frozenset[State]:
        """All branch-terminal models (a superset of the minimal ones)."""
        visited: set[State] = set()
        results: set[State] = set()
        stack = [db.facts()]
        while stack:
            state = stack.pop()
            if state in visited:
                continue
            visited.add(state)
            if len(visited) > max_states:
                raise EvaluationError(
                    "model search exceeded max_states")
            violated = next(iter(self._violations(state)), None)
            if violated is None:
                results.add(state)
            else:
                for head in violated:
                    stack.append(state | {head})
        return frozenset(results)

    def minimal_models(self, db: Database,
                       max_states: int = 50_000) -> frozenset[State]:
        """The minimal Herbrand models of the program on ``db``."""
        candidates = self.models(db, max_states)
        return frozenset(
            m for m in candidates
            if not any(other < m for other in candidates))

    def answers(self, db: Database, pred: str,
                max_states: int = 50_000) -> frozenset[frozenset[tuple]]:
        """The non-deterministic query ``pred`` defines: its relation in
        each minimal model."""
        return frozenset(
            frozenset(row for name, row in model if name == pred)
            for model in self.minimal_models(db, max_states))
