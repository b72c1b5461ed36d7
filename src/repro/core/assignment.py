"""Tid-assignment strategies.

An IDLOG interpretation must assign to each ID-predicate ``p[s]`` an
ID-relation of ``p`` on ``s`` (Section 2.2).  A *strategy* decides which
ID-function to use each time the engine materializes one:

* :class:`CanonicalAssignment` — deterministic (sorted tuple order); used as
  the default so evaluation is repeatable.
* :class:`RandomAssignment` — a fresh uniform ID-function per predicate,
  seeded; this realizes "one arbitrary answer" of the non-deterministic
  query.
* :class:`OracleAssignment` — explicitly supplied ID-functions (used by the
  answer-set enumerator and by tests to pin a particular model).
"""

from __future__ import annotations

import random
from typing import Mapping, Optional, Protocol

from ..datalog.database import Relation
from ..errors import EvaluationError
from .idrelations import (Grouping, IdFunction, canonical_id_function,
                          random_id_function, validate_id_function)


class AssignmentStrategy(Protocol):
    """Chooser of ID-functions, one call per (predicate, grouping)."""

    def id_function(self, pred: str, group: Grouping,
                    base: Relation) -> IdFunction:
        """Return the ID-function to use for ``pred[group]`` over ``base``."""
        ...


class CanonicalAssignment:
    """Deterministic assignment: tids follow the sorted tuple order."""

    def id_function(self, pred: str, group: Grouping,
                    base: Relation) -> IdFunction:
        return canonical_id_function(base, group)


class RandomAssignment:
    """Uniformly random assignment, reproducible from a seed.

    Each (predicate, grouping) gets an independent random ID-function; the
    same strategy object reused across evaluations keeps drawing fresh
    randomness, which is what repeated sampling of a non-deterministic
    query wants.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = random.Random(seed)

    def id_function(self, pred: str, group: Grouping,
                    base: Relation) -> IdFunction:
        return random_id_function(base, group, self._rng)


class OracleAssignment:
    """Assignment from an explicit table of ID-functions.

    Args:
        table: Maps (predicate, grouping) to an ID-function, i.e. to the
            per-block tuple orderings (block key -> tuples in tid order).
            Each is checked against the relation it numbers when used.
        fallback: Strategy consulted for pairs missing from the table
            (default: none — missing pairs are an error, which keeps
            enumeration honest).
    """

    def __init__(self, table: Mapping[tuple[str, Grouping], IdFunction],
                 fallback: Optional[AssignmentStrategy] = None) -> None:
        self._table = dict(table)
        self._fallback = fallback

    def id_function(self, pred: str, group: Grouping,
                    base: Relation) -> IdFunction:
        chosen = self._table.get((pred, group))
        if chosen is not None:
            validate_id_function(base, group, chosen)
            return chosen
        if self._fallback is not None:
            return self._fallback.id_function(pred, group, base)
        raise EvaluationError(
            f"no ID-function supplied for {pred}[{sorted(group)}]")
