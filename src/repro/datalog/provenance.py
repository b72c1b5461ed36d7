"""Provenance: why is this tuple in the result?

Given a materialized evaluation, :func:`explain_tuple` reconstructs one
derivation tree for a tuple — the clause instance that produced it, with
each positive body fact recursively explained and each negative/builtin
literal recorded as a leaf check.  Reconstruction runs against the final
relations, which is sound for stratified programs: every derived fact has
a derivation whose positive sub-facts are themselves in the final
relations, with strictly smaller height at the same stratum.

Clause instances come from the batch executor's bindings entry point,
seeded with the head's unification against the explained tuple.  Trees
render as indented text (``format_tree``) for debugging and the
``repro-idlog why`` command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..errors import EvaluationError
from .ast import Atom, Clause, Program
from .database import Database
from .executor import BatchExecutor
from .parser import parse_program
from .safety import order_body
from .seminaive import EvalStats, RelationStore
from .terms import Value, Var

Fact = tuple[str, tuple[Value, ...]]


@dataclass(frozen=True)
class Derivation:
    """One node of a derivation tree.

    Attributes:
        fact: The derived (pred, row).
        clause: The clause instance used, or None for EDB facts.
        children: Derivations of the positive body facts, in body order.
        checks: Ground builtin / negative literals the instance passed.
    """

    fact: Fact
    clause: Optional[Clause] = None
    children: tuple["Derivation", ...] = ()
    checks: tuple[str, ...] = ()

    @property
    def is_edb(self) -> bool:
        """True for a base-fact leaf."""
        return self.clause is None

    @property
    def height(self) -> int:
        """Leaf = 0; otherwise 1 + max child height."""
        if not self.children:
            return 0
        return 1 + max(child.height for child in self.children)

    def facts_used(self) -> frozenset[Fact]:
        """Every fact appearing anywhere in the tree."""
        used = {self.fact}
        for child in self.children:
            used |= child.facts_used()
        return frozenset(used)


def format_tree(derivation: Derivation, indent: str = "") -> str:
    """Render a derivation tree as indented text."""
    pred, row = derivation.fact
    rendered = f"{pred}({', '.join(map(str, row))})"
    if derivation.is_edb:
        lines = [f"{indent}{rendered}   [edb]"]
    else:
        lines = [f"{indent}{rendered}   [via {derivation.clause}]"]
        for check in derivation.checks:
            lines.append(f"{indent}  ✓ {check}")
        for child in derivation.children:
            lines.append(format_tree(child, indent + "  "))
    return "\n".join(lines)


class Explainer:
    """Builds derivation trees against a finished evaluation.

    Args:
        program: The evaluated program.
        database: The *result* database (all relations materialized) — as
            returned by ``DatalogEngine.run(db).database`` or
            ``IdlogEngine.run(db).database``.
        id_relations: For IDLOG programs, the concrete ID-relations the
            evaluation used — ``EvalResult.id_relations``.  Without them
            the support of ID-literals cannot be reconstructed.
    """

    def __init__(self, program: Union[str, Program],
                 database: Database, id_relations=None) -> None:
        if isinstance(program, str):
            program = parse_program(program)
        self.program = program
        self.database = database

        class _Provider:
            def __init__(self, table) -> None:
                self._table = dict(table or {})

            def materialize(self, pred, group, base, stats):
                relation = self._table.get((pred, group))
                if relation is None:
                    raise EvaluationError(
                        f"no ID-relation recorded for {pred}"
                        f"[{sorted(group)}]; pass EvalResult.id_relations "
                        "to Explainer")
                return relation

        self._store = RelationStore(_Provider(id_relations), EvalStats())
        for pred in program.predicates:
            self._store.install(pred, database.relation_or_empty(
                pred, program.arity(pred)))
        self._executor = BatchExecutor()

    def explain(self, pred: str, row: tuple[Value, ...],
                max_depth: int = 200) -> Derivation:
        """One derivation of ``pred(row)``.

        Raises:
            EvaluationError: when the tuple is not in the relation, or no
                clause instance re-derives it (inconsistent inputs).
        """
        return self._explain((pred, tuple(row)), max_depth, set())

    def _explain(self, fact: Fact, depth: int,
                 visiting: set[Fact]) -> Derivation:
        pred, row = fact
        if depth <= 0:
            raise EvaluationError("derivation search exceeded max_depth")
        relation = self.database.relation(pred) if pred in self.database \
            else None
        if relation is None or row not in relation:
            raise EvaluationError(
                f"{pred}{row!r} is not in the result — nothing to explain")
        if pred in self.program.input_predicates \
                or pred not in self.program.head_predicates:
            return Derivation(fact)
        if fact in visiting:
            raise EvaluationError(
                f"cyclic support for {pred}{row!r}")  # pragma: no cover

        visiting = visiting | {fact}
        for clause in self.program.clauses_defining(pred):
            derivation = self._try_clause(clause, fact, depth, visiting)
            if derivation is not None:
                return derivation
        raise EvaluationError(
            f"no clause instance derives {pred}{row!r}; was the database "
            "produced by this program?")

    def _try_clause(self, clause: Clause, fact: Fact, depth: int,
                    visiting: set[Fact]) -> Optional[Derivation]:
        seed = clause.head.unify(fact[1])
        if seed is None:
            return None
        order = order_body(clause, initially_bound=frozenset(seed))
        for binding in self._executor.execute_bindings(
                order, self._store, EvalStats(), seed):
            derivation = self._build_node(clause, fact, binding, depth,
                                          visiting)
            if derivation is not None:
                return derivation
        return None

    def _build_node(self, clause: Clause, fact: Fact,
                    binding: dict[Var, Value], depth: int,
                    visiting: set[Fact]) -> Optional[Derivation]:
        children = []
        checks = []
        for literal in clause.body:
            atom = literal.atom
            assert isinstance(atom, Atom)
            ground = atom.ground(binding)
            if atom.is_builtin or not literal.positive:
                prefix = "" if literal.positive else "not "
                checks.append(
                    f"{prefix}{atom.pred}({', '.join(map(str, ground))})")
                continue
            if atom.is_id:
                # ID-facts are leaves: their support is the assignment.
                children.append(Derivation((f"{atom.pred}[id]", ground)))
                continue
            sub_fact = (atom.pred, ground)
            if sub_fact in visiting:
                return None  # this instance supports itself; try another
            try:
                children.append(self._explain(sub_fact, depth - 1,
                                              visiting))
            except EvaluationError:
                return None
        return Derivation(fact, clause, tuple(children), tuple(checks))


def explain_tuple(program: Union[str, Program], database: Database,
                  pred: str, row: tuple[Value, ...],
                  id_relations=None) -> Derivation:
    """One-shot: build a derivation with a fresh :class:`Explainer`."""
    return Explainer(program, database, id_relations).explain(pred, row)
