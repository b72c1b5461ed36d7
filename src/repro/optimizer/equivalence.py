"""Empirical q-equivalence checking.

Identifying ∃-existential arguments is undecidable (Theorem 3), so no
checker can certify the optimizer's rewrites in general.  What we can do —
and what the E7/E10 experiments do — is compare *answer sets* of two
programs exhaustively on families of small databases: the paper's
definition makes two programs q-equivalent exactly when they define the
same non-deterministic query, i.e. the same database → answer-set mapping.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Mapping, Union

from ..core.engine import IdlogEngine
from ..core.program import IdlogProgram
from ..datalog.ast import Program
from ..datalog.database import Database, Relation

ProgramLike = Union[str, Program, IdlogProgram]


def answer_set(program: ProgramLike, db: Database, pred: str,
               max_branches: int = 200_000) -> frozenset[frozenset[tuple]]:
    """The answer set of ``pred`` under a program (plain Datalog included:
    a program without ID-atoms simply has a singleton answer set)."""
    return IdlogEngine(program).answers(db, pred, max_branches)


def q_equivalent_on(first: ProgramLike, second: ProgramLike, pred: str,
                    databases: Iterable[Database],
                    max_branches: int = 200_000) -> bool:
    """True when both programs have equal answer sets on every database.

    This is a *refutation-complete* check over the supplied databases: a
    ``False`` result is a genuine witness of inequivalence; ``True`` only
    says no witness was found.
    """
    return find_witness(first, second, pred, databases,
                        max_branches) is None


def find_witness(first: ProgramLike, second: ProgramLike, pred: str,
                 databases: Iterable[Database],
                 max_branches: int = 200_000):
    """The first database on which the answer sets differ, or ``None``."""
    first_engine = IdlogEngine(first)
    second_engine = IdlogEngine(second)
    for db in databases:
        if first_engine.answers(db, pred, max_branches) != \
                second_engine.answers(db, pred, max_branches):
            return db
    return None


def random_database(schema: Mapping[str, int], domain: Iterable[str],
                    rng: random.Random, max_rows: int = 6) -> Database:
    """A random database over a u-domain.

    Args:
        schema: Predicate name -> arity.
        domain: Candidate u-constants.
        rng: Randomness source.
        max_rows: Upper bound on tuples per relation.
    """
    values = list(domain)
    db = Database(udomain=values)
    for name, arity in schema.items():
        relation = Relation(arity)
        for _ in range(rng.randrange(max_rows + 1)):
            relation.add(tuple(rng.choice(values) for _ in range(arity)))
        db.add_relation(name, relation, replace=True)
    return db


def random_databases(schema: Mapping[str, int], domain: Iterable[str],
                     count: int, seed: int = 0,
                     max_rows: int = 6) -> Iterator[Database]:
    """A reproducible stream of random databases (see
    :func:`random_database`)."""
    rng = random.Random(seed)
    values = list(domain)
    for _ in range(count):
        yield random_database(schema, values, rng, max_rows)
