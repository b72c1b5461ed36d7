"""High-level facade for plain (deterministic) Datalog evaluation.

:class:`DatalogEngine` bundles the pipeline parse → validate (safety,
stratification, no choice / ID constructs) → evaluate, and exposes simple
query helpers.  Programs with ID-atoms belong to :mod:`repro.core`; programs
with choice operators to :mod:`repro.choice`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from ..errors import SchemaError
from .ast import Program
from .database import Database, Relation
from .parser import parse_program
from .planner import check_plan_mode
from .safety import check_program
from .seminaive import EvalStats, evaluate
from .stratify import Stratification, stratify


@dataclass(frozen=True)
class EvalResult:
    """Outcome of a Datalog evaluation.

    Attributes:
        database: All relations after the fixpoint (EDB and IDB).
        stats: Instrumentation counters.
        id_relations: For IDLOG evaluations, the materialized ID-relation
            per (predicate, grouping) — the concrete tid assignment this
            model used (empty for plain Datalog).
    """

    database: Database
    stats: EvalStats
    id_relations: dict = field(default_factory=dict)

    def relation(self, pred: str) -> Relation:
        """The computed relation for ``pred``."""
        return self.database.relation(pred)

    def tuples(self, pred: str) -> frozenset[tuple]:
        """The computed tuples for ``pred`` as a frozenset."""
        return self.database.relation(pred).frozen()


class DatalogEngine:
    """Deterministic Datalog-with-negation engine.

    Example:
        >>> engine = DatalogEngine('''
        ...     path(X, Y) :- edge(X, Y).
        ...     path(X, Y) :- edge(X, Z), path(Z, Y).
        ... ''')
        >>> db = Database.from_facts({"edge": [("a", "b"), ("b", "c")]})
        >>> sorted(engine.query(db, "path"))
        [('a', 'b'), ('a', 'c'), ('b', 'c')]

    Args:
        program: Source text or a parsed :class:`Program`.
        name: Program name used in diagnostics when parsing source text.
        plan: Body-literal planning mode — ``"greedy"`` (purely syntactic)
            or ``"cost"`` (cardinality-aware, see
            :mod:`repro.datalog.planner`).
        tracer: Optional span-event receiver (see
            :mod:`repro.datalog.trace`); every :meth:`run` emits
            eval/stratum/clause spans to it.  Defaults to the ambient
            tracer installed by :func:`repro.datalog.trace.use_tracer`.
    """

    def __init__(self, program: Union[str, Program],
                 name: str = "program", plan: str = "greedy",
                 tracer=None) -> None:
        if isinstance(program, str):
            program = parse_program(program, name=name)
        if program.has_choice():
            raise SchemaError(
                "program uses the choice operator; use repro.choice")
        if program.has_id_atoms():
            raise SchemaError(
                "program uses ID-atoms; use the IDLOG engine (repro.core)")
        check_program(program)
        self.program = program
        self.plan = check_plan_mode(plan)
        self.tracer = tracer
        self.stratification: Stratification = stratify(program)

    def run(self, db: Database,
            max_iterations: int | None = None) -> EvalResult:
        """Evaluate the program on ``db`` and return all relations.

        Args:
            db: The input database.
            max_iterations: Optional per-stratum fixpoint-round guard; a
                program whose arithmetic diverges raises
                :class:`~repro.errors.EvaluationError` instead of looping.
        """
        database, stats = evaluate(
            self.program, db, stratification=self.stratification,
            max_iterations=max_iterations, plan=self.plan,
            tracer=self.tracer)
        return EvalResult(database, stats)

    def query(self, db: Database, pred: str) -> frozenset[tuple]:
        """Evaluate and return the tuples of one output predicate."""
        return self.run(db).tuples(pred)
