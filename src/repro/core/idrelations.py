"""ID-relations and ID-functions (the paper's Section 2.1).

Given a relation ``r`` and a set ``s`` of attribute positions, the
*sub-relations of r grouped by s* partition ``r`` into blocks of tuples
agreeing on the attributes in ``s``.  An *ID-function* of a block of size k
is a bijection onto ``{0, ..., k-1}``; an *ID-relation of r on s* augments
every tuple with the tid its block's ID-function assigns.

Example 1 of the paper: for ``r = {(a,c), (a,d), (b,c)}`` grouped by the
first attribute the blocks are ``{(a,c), (a,d)}`` and ``{(b,c)}``, so there
are exactly two ID-relations of ``r`` on ``{1}``.

The *choice* of ID-function is the language's source of non-determinism;
this module provides construction, counting and exhaustive enumeration of
ID-functions, including the *prefix-limited* variant used by the Section 4
optimization (when every use of ``p[s]`` constrains the tid below ``k``,
only the k-prefix of each block's ordering matters, shrinking both the
materialized relation and the enumeration space from ``k!`` to ``P(n, k)``
per block).
"""

from __future__ import annotations

import math
import random
from itertools import permutations, product
from typing import Iterator, Mapping, Optional, Sequence

from ..datalog.database import Relation
from ..datalog.terms import Value
from ..errors import SchemaError

Grouping = frozenset[int]
"""A set of 1-based attribute positions of the base relation."""

IdFunction = Mapping[tuple, Sequence[tuple[Value, ...]]]
"""An ID-function: each block's grouping key mapped to the block's tuples
in tid order (the tuple at index ``i`` gets tid ``i``).  A prefix-limited
function lists only each block's first tids."""


def group_key(row: tuple[Value, ...], group: Grouping) -> tuple[Value, ...]:
    """The grouping key of a tuple: its values at ``group`` positions.

    Positions are 1-based, following the paper; the key orders them
    ascending so it is deterministic.
    """
    return tuple(row[i - 1] for i in sorted(group))


def sub_relations(base: Relation,
                  group: Grouping) -> dict[tuple, list[tuple[Value, ...]]]:
    """Partition ``base`` into its sub-relations grouped by ``group``.

    Returns a mapping from grouping key to the tuples of that block, in a
    deterministic (sorted) order so downstream constructions are repeatable.
    """
    for i in group:
        if not 1 <= i <= base.arity:
            raise SchemaError(
                f"grouping position {i} outside 1..{base.arity}")
    blocks: dict[tuple, list[tuple[Value, ...]]] = {}
    for row in base:
        blocks.setdefault(group_key(row, group), []).append(row)
    for rows in blocks.values():
        rows.sort(key=lambda r: tuple(map(repr, r)))
    return blocks


def validate_id_function(base: Relation, group: Grouping,
                         id_function: IdFunction) -> None:
    """Check that ``id_function`` is a valid ID-function of ``base`` on
    ``group``: it orders exactly the blocks of ``base``, each listing
    every tuple of its block once (a bijection onto 0..k-1).

    Raises:
        SchemaError: on a missing or extra block, or an ordering that
            repeats, omits or misplaces a tuple.
    """
    blocks = sub_relations(base, group)
    if set(id_function) != set(blocks):
        raise SchemaError(
            f"ID-function orders blocks {sorted(id_function, key=repr)} "
            f"but the relation has blocks {sorted(blocks, key=repr)}")
    for key, rows in blocks.items():
        ordering = id_function[key]
        if len(ordering) != len(rows) or set(ordering) != set(rows):
            raise SchemaError(
                f"ordering {list(ordering)} of block {key} is not a "
                f"bijection onto 0..{len(rows) - 1}")


def canonical_id_function(base: Relation, group: Grouping) -> dict:
    """The deterministic ID-function: tids follow the sorted tuple order.

    Used as the default assignment so repeated evaluations of the same
    program on the same database agree.
    """
    return {key: tuple(rows)
            for key, rows in sub_relations(base, group).items()}


def random_id_function(base: Relation, group: Grouping,
                       rng: random.Random) -> dict:
    """A uniformly random ID-function (independent shuffle per block)."""
    blocks = sub_relations(base, group)
    for rows in blocks.values():
        rng.shuffle(rows)
    return {key: tuple(rows) for key, rows in blocks.items()}


def count_id_functions(base: Relation, group: Grouping,
                       limit: Optional[int] = None) -> int:
    """The number of (distinct-prefix) ID-functions of ``base`` on ``group``.

    Without ``limit`` this is ``∏ k!`` over block sizes ``k``.  With a tid
    limit only the assignment of tids ``0..limit-1`` is observable, so the
    count drops to ``∏ P(k, min(k, limit))``.
    """
    total = 1
    for rows in sub_relations(base, group).values():
        k = len(rows)
        take = k if limit is None else min(k, limit)
        total *= math.perm(k, take)
    return total


def enumerate_id_functions(base: Relation, group: Grouping,
                           limit: Optional[int] = None) -> Iterator[dict]:
    """Yield every ID-function of ``base`` on ``group``.

    With ``limit`` k, yields every *distinct k-prefix*: each block's
    ordering lists only the tuples receiving tids below k, which is exactly
    what a tid-limited materialization needs.  The number of yields
    matches :func:`count_id_functions`.
    """
    blocks = sub_relations(base, group)
    per_block = [
        list(permutations(rows, len(rows) if limit is None
                          else min(len(rows), limit)))
        for rows in blocks.values()]
    for combo in product(*per_block):
        yield dict(zip(blocks, combo))


def make_id_relation(base: Relation, id_function: IdFunction,
                     limit: Optional[int] = None) -> Relation:
    """Build the ID-relation: every ordered tuple extended with its tid.

    Args:
        base: The base relation the orderings are drawn from.
        id_function: Per-block orderings (prefixes when prefix-limited).
        limit: When given, keep only tuples with tid < limit (the
            Section 4 group-limit optimization; sound when every use of
            the ID-predicate constrains the tid below ``limit``).

    Raises:
        SchemaError: when, without a limit, the orderings leave a base
            tuple without a tid.
    """
    result = Relation(base.arity + 1)
    for ordering in id_function.values():
        for tid, row in enumerate(ordering[:limit]):
            result.add(row + (tid,))
    if limit is None:
        ordered = {row for ordering in id_function.values()
                   for row in ordering}
        for row in base:
            if row not in ordered:
                raise SchemaError(
                    f"ID-function undefined on {row!r} without a tid "
                    "limit")
    return result


def id_relations_of(base: Relation, group: Grouping,
                    limit: Optional[int] = None) -> Iterator[Relation]:
    """Yield every possible ID-relation of ``base`` on ``group``.

    This is the object the paper enumerates in Example 1; mostly useful for
    tests and small demonstrations (the engine enumerates ID-functions and
    materializes on demand instead).
    """
    for id_function in enumerate_id_functions(base, group, limit):
        yield make_id_relation(base, id_function, limit)
