"""Model theory for IDLOG: interpretations, models, perfect models (§2.2).

An **IDLOG (Herbrand) interpretation** assigns a relation to each ordinary
predicate and an *ID-relation standing in the right relationship* to each
ID-predicate.  This module makes those objects first-class so the
semantics can be checked, not just computed:

* :func:`check_interpretation` verifies the "right relationship": every
  assigned ID-relation projects onto its base relation with block-wise
  bijective tids;
* :func:`is_model` checks clause satisfaction by enumeration (every
  substitution satisfying a body must satisfy the head);
* :func:`is_perfect_model` checks that an interpretation is the iterated
  fixpoint its own ID-assignment induces — for stratified programs that is
  the perfect model (Theorem 1 / Przymusinski);
* :func:`perfect_models` enumerates all perfect models of a program on a
  database, as interpretations.

The test suite uses these to verify Theorem 1's consequence that every
stratified IDLOG program has at least one perfect model, and that
fixpoint-computed models are minimal among the checked models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from ..datalog.ast import Program
from ..datalog.database import Database, Relation
from ..datalog.executor import BatchExecutor
from ..datalog.seminaive import EvalStats, RelationStore
from ..errors import EvaluationError, SchemaError
from .engine import IdlogEngine, _FixedIdProvider
from .idrelations import Grouping, sub_relations
from .program import IdlogProgram


@dataclass(frozen=True)
class IdlogInterpretation:
    """A finite IDLOG Herbrand interpretation.

    Attributes:
        relations: Ordinary predicate -> relation (frozenset of tuples).
        id_relations: (predicate, grouping) -> assigned ID-relation
            (frozensets of base-tuple + tid rows).
    """

    relations: dict[str, frozenset[tuple]]
    id_relations: dict[tuple[str, Grouping], frozenset[tuple]]

    def relation(self, pred: str) -> frozenset[tuple]:
        """The relation of an ordinary predicate (empty if absent)."""
        return self.relations.get(pred, frozenset())

    def with_extra(self, pred: str,
                   rows: frozenset[tuple]) -> "IdlogInterpretation":
        """A copy with extra tuples added to one ordinary predicate.

        ID-relations are left untouched, so the result is only a valid
        interpretation if ``pred`` has no assigned ID-version; useful for
        constructing non-minimal models in tests.
        """
        relations = dict(self.relations)
        relations[pred] = relations.get(pred, frozenset()) | rows
        return IdlogInterpretation(relations, dict(self.id_relations))


def check_interpretation(interp: IdlogInterpretation) -> None:
    """Verify the §2.2 consistency requirement on ID-relations.

    Raises:
        SchemaError: when some assigned ID-relation is not an ID-relation
            of its base relation on its grouping (wrong projection, or
            tids not bijective onto 0..k-1 within some block).
    """
    for (pred, group), id_rows in interp.id_relations.items():
        base_rows = interp.relation(pred)
        projected = frozenset(row[:-1] for row in id_rows)
        if projected != base_rows:
            raise SchemaError(
                f"ID-relation for {pred}[{sorted(group)}] projects to "
                f"{len(projected)} tuples, base has {len(base_rows)}")
        if not base_rows:
            continue
        arity = len(next(iter(base_rows)))
        base = Relation(arity, tuples=base_rows)
        tid_of = {row[:-1]: row[-1] for row in id_rows}
        if len(tid_of) != len(id_rows):
            raise SchemaError(
                f"ID-relation for {pred}[{sorted(group)}] assigns several "
                "tids to one tuple")
        for key, block in sub_relations(base, group).items():
            tids = sorted(tid_of[row] for row in block)
            if tids != list(range(len(block))):
                raise SchemaError(
                    f"tids {tids} of {pred}[{sorted(group)}] block {key} "
                    f"are not a bijection onto 0..{len(block) - 1}")


def _store_of(interp: IdlogInterpretation,
              program: Program) -> RelationStore:
    """A read-only relation store realizing the interpretation."""
    chosen: dict[tuple[str, Grouping], Relation] = {}
    for (pred, group), rows in interp.id_relations.items():
        arity = (len(next(iter(rows))) if rows
                 else program.arity(pred) + 1)
        chosen[(pred, group)] = Relation(arity, tuples=rows)
    store = RelationStore(_FixedIdProvider(chosen), EvalStats())
    for pred in program.predicates:
        rows = interp.relation(pred)
        store.install(pred, Relation(program.arity(pred), tuples=rows))
    return store


def is_model(program: Union[str, Program],
             interp: IdlogInterpretation) -> bool:
    """Check that every clause of ``program`` is satisfied by ``interp``.

    A clause is satisfied when every substitution making its body true in
    the interpretation also puts the head tuple in the head predicate's
    relation.  The interpretation must assign ID-relations for every
    (predicate, grouping) pair the program uses.
    """
    if isinstance(program, str):
        from ..datalog.parser import parse_program
        program = parse_program(program)
    missing = program.id_groupings - frozenset(interp.id_relations)
    if missing:
        raise EvaluationError(
            f"interpretation assigns no ID-relation for {sorted(missing)}")
    store = _store_of(interp, program)
    executor = BatchExecutor()
    for clause in program.clauses:
        head = store.relation(clause.head.pred)
        for row in executor.execute_coded(clause, store, EvalStats()):
            if not head.contains_coded(row):
                return False
    return True


def perfect_models(program: Union[str, Program, IdlogProgram],
                   db: Database, max_branches: int = 200_000,
                   ) -> Iterator[IdlogInterpretation]:
    """Enumerate the perfect models of a stratified IDLOG program on ``db``.

    One interpretation per combination of ID-functions (combinations that
    produce identical interpretations are not deduplicated — they are the
    same model reached through different blocks).
    """
    engine = IdlogEngine(program)
    budget = [max_branches]
    seen: set[tuple] = set()
    for relations, chosen, _weight in engine._enumerate_models(
            engine.compiled, db, budget):
        interp = IdlogInterpretation(
            {name: rel.frozen() for name, rel in relations.items()},
            {key: rel.frozen() for key, rel in chosen.items()})
        key = (tuple(sorted((n, r) for n, r in interp.relations.items())),
               tuple(sorted((p, tuple(sorted(g)), r)
                            for (p, g), r in interp.id_relations.items())))
        if key not in seen:
            seen.add(key)
            yield interp


def is_perfect_model(program: Union[str, Program, IdlogProgram],
                     db: Database, interp: IdlogInterpretation,
                     ) -> bool:
    """Check that ``interp`` is the perfect model its ID-assignment induces.

    For a stratified program and a fixed ID-assignment the perfect model
    is the iterated stratum-by-stratum least fixpoint; this re-runs that
    fixpoint under the interpretation's own ID-relations and compares.
    """
    check_interpretation(interp)
    engine = IdlogEngine(program)
    compiled = engine.compiled
    chosen = {key: Relation(len(next(iter(rows))) if rows
                            else compiled.program.arity(key[0]) + 1,
                            tuples=rows)
              for key, rows in interp.id_relations.items()}

    from ..datalog.seminaive import evaluate
    provider = _FixedIdProvider(chosen)
    computed, _ = evaluate(compiled.program, db, id_provider=provider,
                           stratification=compiled.stratification)
    for pred in compiled.program.predicates:
        if computed.relation(pred).frozen() != interp.relation(pred):
            return False
    return True
