"""The KN88 semantics of DATALOG^C (the paper's Section 3.2.2).

An intended model of a DATALOG^C program ``P`` is constructed in three
steps:

1. compute the unique perfect model ``M`` of the translated program ``P_c``
   (choice operators replaced by choice predicates);
2. for every choice predicate ``ext_choice_i`` pick a *functional subset*
   ``S_i`` of its relation in ``M`` w.r.t. the domain attributes ``X̄``:
   a subset containing every ``X̄``-value exactly once (the functional
   dependency ``X̄ → Ȳ``);
3. recompute the perfect model with ``ext_choice_i`` fixed to ``S_i``.

Non-determinism comes from step 2; :class:`ChoiceEngine` mirrors the IDLOG
engine's API (``one`` / ``query`` / ``answers``).
"""

from __future__ import annotations

import math
import random
from itertools import combinations, product
from typing import Iterator, Optional, Union

from ..datalog.ast import Program
from ..datalog.database import Database, Relation
from ..datalog.engine import DatalogEngine, EvalResult
from ..datalog.seminaive import evaluate
from ..datalog.stratify import stratify
from ..errors import EvaluationError
from .program import ChoiceOccurrence, ChoiceProgram


def functional_groups(relation: Relation,
                      domain_width: int) -> dict[tuple, list[tuple]]:
    """Group a choice relation's tuples by their domain prefix.

    The choice predicate's arguments are the domain variables followed by
    the range variables, so the grouping key is the first ``domain_width``
    components.  Blocks are sorted for deterministic iteration.
    """
    groups: dict[tuple, list[tuple]] = {}
    for row in relation:
        groups.setdefault(row[:domain_width], []).append(row)
    for rows in groups.values():
        rows.sort(key=lambda r: tuple(map(repr, r)))
    return groups


def count_functional_subsets(relation: Relation, domain_width: int,
                             count: int = 1) -> int:
    """Number of k-functional subsets: ∏ C(block size, min(k, size)).

    ``count`` generalizes the paper's §3.3 multiple-choice operators: the
    subset keeps ``min(count, |block|)`` tuples per block.
    """
    return math.prod(
        math.comb(len(rows), min(count, len(rows)))
        for rows in functional_groups(relation, domain_width).values())


def enumerate_functional_subsets(relation: Relation, domain_width: int,
                                 count: int = 1,
                                 ) -> Iterator[frozenset[tuple]]:
    """Yield every k-functional subset of a choice relation."""
    groups = list(functional_groups(relation, domain_width).values())
    if not groups:
        yield frozenset()
        return
    per_group = [list(combinations(rows, min(count, len(rows))))
                 for rows in groups]
    for combo in product(*per_group):
        yield frozenset(row for picked in combo for row in picked)


def _choose_subset(relation: Relation, domain_width: int, count: int,
                   rng: Optional[random.Random]) -> frozenset[tuple]:
    """One k-functional subset: random when ``rng`` given, else canonical."""
    subset = set()
    for rows in functional_groups(relation, domain_width).values():
        take = min(count, len(rows))
        if rng is not None:
            subset.update(rng.sample(rows, take))
        else:
            subset.update(rows[:take])
    return frozenset(subset)


class ChoiceEngine:
    """Evaluator for DATALOG^C programs under the KN88 semantics.

    Example (the paper's Example 4):
        >>> engine = ChoiceEngine('''
        ...     select_emp(Name) :- emp(Name, Dept), choice((Dept), (Name)).
        ... ''')
        >>> db = Database.from_facts({"emp": [
        ...     ("ann", "toys"), ("bob", "toys"), ("dee", "it")]})
        >>> len(engine.answers(db, "select_emp"))
        2
    """

    def __init__(self, program: Union[str, Program, ChoiceProgram]) -> None:
        if isinstance(program, ChoiceProgram):
            self.compiled = program
        else:
            self.compiled = ChoiceProgram.compile(program)
        # Validate the translated program once: safe and stratified.
        translated = self.compiled.translated
        from ..datalog.safety import check_program
        check_program(translated)
        stratify(translated)
        # The final-step program: P_c without the choice clauses; the choice
        # predicates become plain EDB relations holding the chosen subsets.
        choice_preds = self.compiled.choice_predicates
        final_clauses = tuple(
            c for c in translated.clauses
            if c.head.pred not in choice_preds)
        self._final_program = Program(final_clauses,
                                      name=f"{translated.name}_final")
        self._final_engine = DatalogEngine(self._final_program)
        #: Span-event receiver of both steps' evaluations (None: the
        #: ambient tracer), as on the other engines.
        self.tracer = None

    @property
    def program(self) -> Program:
        """The original DATALOG^C program."""
        return self.compiled.program

    def choice_relations(self, db: Database) -> dict[ChoiceOccurrence,
                                                     Relation]:
        """Step 1: the choice predicates' relations in the perfect model of
        ``P_c``."""
        model, _ = evaluate(self.compiled.translated, db,
                            tracer=self.tracer)
        return {occ: model.relation(occ.pred)
                for occ in self.compiled.occurrences}

    def _run_with_subsets(self, db: Database,
                          subsets: dict[str, frozenset[tuple]],
                          ) -> EvalResult:
        extended = db.copy()
        for pred, rows in subsets.items():
            arity = self._arity_of_choice(pred)
            relation = Relation(arity, tuples=rows)
            extended.add_relation(pred, relation, replace=True)
        self._final_engine.tracer = self.tracer
        return self._final_engine.run(extended)

    def _arity_of_choice(self, pred: str) -> int:
        for occ in self.compiled.occurrences:
            if occ.pred == pred:
                return len(occ.args)
        raise KeyError(pred)

    def run(self, db: Database,
            rng: Optional[random.Random] = None) -> EvalResult:
        """Evaluate under one intended model.

        With ``rng`` unset the canonical (sorted-first) functional subsets
        are used, making the call deterministic and repeatable.
        """
        chosen: dict[str, frozenset[tuple]] = {}
        for occ, relation in self.choice_relations(db).items():
            chosen[occ.pred] = _choose_subset(
                relation, occ.domain_width, occ.count, rng)
        return self._run_with_subsets(db, chosen)

    def one(self, db: Database, seed: Optional[int] = None) -> EvalResult:
        """Sample one intended model (random functional subsets)."""
        return self.run(db, random.Random(seed))

    def query(self, db: Database, pred: str) -> frozenset[tuple]:
        """Canonical evaluation projected onto one predicate."""
        return self.run(db).tuples(pred)

    def answers(self, db: Database, pred: str,
                max_branches: int = 200_000) -> frozenset[frozenset[tuple]]:
        """The exact answer set of ``pred``: every combination of
        functional subsets, deduplicated.

        Raises:
            EvaluationError: when the number of combinations exceeds
                ``max_branches``.
        """
        relations = self.choice_relations(db)
        occurrences = list(relations)
        total = math.prod(
            count_functional_subsets(relations[occ], occ.domain_width,
                                     occ.count)
            for occ in occurrences)
        if total > max_branches:
            raise EvaluationError(
                f"{total} functional-subset combinations exceed "
                "max_branches; raise the limit or sample with one()")
        spaces = [
            list(enumerate_functional_subsets(
                relations[occ], occ.domain_width, occ.count))
            for occ in occurrences]
        answers = set()
        for combo in product(*spaces) if spaces else [()]:
            subsets = {occ.pred: subset
                       for occ, subset in zip(occurrences, combo)}
            result = self._run_with_subsets(db, subsets)
            answers.add(result.tuples(pred))
        return frozenset(answers)

    def count_models(self, db: Database) -> int:
        """Number of intended models (functional-subset combinations)."""
        relations = self.choice_relations(db)
        return math.prod(
            count_functional_subsets(rel, occ.domain_width, occ.count)
            for occ, rel in relations.items())
