"""Counting-based view maintenance (Gupta–Mumick–Subrahmanian).

The second classic maintenance algorithm, complementary to the DRed path
in :mod:`repro.datalog.incremental`: every derived tuple carries its
**number of distinct derivations**.  A change is propagated as a stream
of single-tuple *flips* (tuple appeared / disappeared): for each clause
consuming the flipped tuple, the derivation instances involving it are
counted — with inclusion–exclusion when the clause mentions the predicate
several times — and the signed counts cascade; a derived tuple flips
exactly when its count crosses zero.  No over-delete/re-derive phase.

Counting is exact for **non-recursive** positive programs (a recursive
tuple can support itself, making counts ill-founded), so
:class:`CountingEngine` rejects recursion and leaves that territory to
DRed.  The A7 ablation compares the two on workloads where both apply.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Union

from ..errors import EvaluationError, SchemaError
from .ast import Atom, Clause, Program
from .database import Database, Relation
from .executor import BatchExecutor
from .parser import parse_program
from .safety import check_program, order_body
from .seminaive import EvalStats, RelationStore
from .stratify import stratify
from .terms import Value

Fact = tuple[str, tuple[Value, ...]]


def _check_supported(program: Program) -> None:
    if program.has_choice() or program.has_id_atoms():
        raise SchemaError("counting maintenance covers plain Datalog")
    for clause in program.clauses:
        for literal in clause.body:
            if not literal.positive and not literal.atom.is_builtin:
                raise SchemaError(
                    "counting maintenance does not support negation")
        for atom in clause.body_atoms:
            if not atom.is_builtin \
                    and atom.pred in program.related_to(clause.head.pred) \
                    and clause.head.pred in program.related_to(atom.pred):
                raise SchemaError(
                    f"recursive predicate {clause.head.pred}: derivation "
                    "counts are ill-founded under recursion — use the "
                    "DRed IncrementalEngine instead")


class CountingEngine:
    """Materialized non-recursive views with derivation counts.

    Example:
        >>> engine = CountingEngine(
        ...     "hop2(X, Z) :- edge(X, Y), edge(Y, Z).")
        >>> engine.start(Database.from_facts({"edge": [
        ...     ("a", "b"), ("b", "c")]}))
        >>> engine.count("hop2", ("a", "c"))
        1
    """

    def __init__(self, program: Union[str, Program]) -> None:
        if isinstance(program, str):
            program = parse_program(program)
        _check_supported(program)
        check_program(program)
        self.program = program
        strat = stratify(program)
        self._level = strat.level
        # Consumers: pred -> [(clause, positions of pred in its body)].
        self._consumers: dict[str, list[tuple[Clause, tuple[int, ...]]]] = {}
        for clause in program.clauses:
            by_pred: dict[str, list[int]] = {}
            for i, literal in enumerate(clause.body):
                atom = literal.atom
                if isinstance(atom, Atom) and not atom.is_builtin:
                    by_pred.setdefault(atom.pred, []).append(i)
            for pred, positions in by_pred.items():
                self._consumers.setdefault(pred, []).append(
                    (clause, tuple(positions)))
        self._live: dict[str, Relation] = {}
        self._counts: dict[str, dict[tuple, int]] = {}
        self._executor = BatchExecutor()
        self.stats = EvalStats()

    # -- lifecycle ----------------------------------------------------------

    def start(self, db: Database) -> None:
        """Materialize with derivation counts (per-predicate, in
        dependency order)."""
        self._live = {}
        self._counts = {p: {} for p in self.program.head_predicates}
        for pred in self.program.predicates:
            arity = self.program.arity(pred)
            if pred in self.program.head_predicates:
                self._live[pred] = Relation(arity)
            elif pred in db:
                self._live[pred] = db.relation(pred).copy()
            else:
                self._live[pred] = Relation(arity)
        store = self._store()
        for pred in sorted(self.program.head_predicates,
                           key=lambda p: (self._level[p], p)):
            for clause in self.program.clauses_defining(pred):
                for row in self._instances(clause, store):
                    bucket = self._counts[pred]
                    bucket[row] = bucket.get(row, 0) + 1
            for row in self._counts[pred]:
                self._live[pred].add(row)

    def _store(self) -> RelationStore:
        store = RelationStore(None, EvalStats())
        for pred, relation in self._live.items():
            store.install(pred, relation)
        return store

    def _require_started(self) -> None:
        if not self._live:
            raise EvaluationError("call start(db) first")

    # -- reads ---------------------------------------------------------------

    def relation(self, pred: str) -> frozenset[tuple]:
        """The current tuples of a predicate."""
        self._require_started()
        return self._live[pred].frozen()

    def count(self, pred: str, row: tuple[Value, ...]) -> int:
        """The number of distinct derivations of a derived tuple."""
        self._require_started()
        return self._counts.get(pred, {}).get(tuple(row), 0)

    # -- instance counting -----------------------------------------------------

    def _instances(self, clause: Clause, store: RelationStore,
                   pinned: tuple[int, ...] = (),
                   pin: Optional[Relation] = None) -> list[tuple]:
        """Head tuples of all satisfying instances, the body literals at
        ``pinned`` positions reading ``pin`` instead of their relation.

        The pinned literals run first, so their overrides are the leading
        positions of the order.
        """
        first = tuple(clause.body[i] for i in pinned)
        rest = tuple(lit for i, lit in enumerate(clause.body)
                     if i not in pinned)
        bound = frozenset().union(*(lit.vars for lit in first))
        order = first + order_body(Clause(clause.head, rest),
                                   initially_bound=bound)
        stats = EvalStats()
        bindings = self._executor.execute_bindings(
            order, store, stats,
            overrides=dict.fromkeys(range(len(first)), pin))
        self.stats.probes += stats.probes
        return [clause.head.ground(binding) for binding in bindings]

    # -- writes -----------------------------------------------------------------

    def add_fact(self, pred: str, row: tuple[Value, ...]) -> int:
        """Insert one EDB tuple; returns how many tuples flipped state."""
        return self._update(pred, tuple(row), +1)

    def delete_fact(self, pred: str, row: tuple[Value, ...]) -> int:
        """Delete one EDB tuple; derived tuples die exactly when their
        derivation count reaches zero."""
        return self._update(pred, tuple(row), -1)

    def _update(self, pred: str, row: tuple[Value, ...], sign: int) -> int:
        self._require_started()
        if pred not in self.program.input_predicates:
            raise SchemaError(
                f"{pred} is not an input predicate of the program")
        relation = self._live.get(pred)
        if relation is None:
            relation = Relation(len(row))
            self._live[pred] = relation
        if sign > 0 and row in relation:
            return 0
        if sign < 0 and row not in relation:
            return 0
        flips = [(pred, row, sign)]
        changed = 0
        while flips:
            flip_pred, tuple_, flip_sign = flips.pop(0)
            changed += 1
            if flip_sign > 0:
                self._live[flip_pred].add(tuple_)
            # Count instances involving the tuple, in the state WHERE THE
            # TUPLE IS PRESENT (for deletion: before removal).
            deltas = self._consume_flip(flip_pred, tuple_, flip_sign)
            if flip_sign < 0:
                self._live[flip_pred].discard(tuple_)
            for head_pred, head_row, diff in deltas:
                bucket = self._counts[head_pred]
                old = bucket.get(head_row, 0)
                new = old + diff
                if new:
                    bucket[head_row] = new
                else:
                    bucket.pop(head_row, None)
                if old <= 0 < new:
                    flips.append((head_pred, head_row, +1))
                elif new <= 0 < old:
                    flips.append((head_pred, head_row, -1))
        return changed

    def _consume_flip(self, pred: str, row: tuple[Value, ...],
                      sign: int) -> list[tuple[str, tuple, int]]:
        """Signed per-head derivation-count deltas caused by one flip.

        Instances involving the flipped tuple = by inclusion–exclusion
        over the clause's occurrences of ``pred``:
        Σ_{∅≠S} (−1)^{|S|+1} · #(instances with every position in S
        bound to the tuple).
        """
        store = self._store()
        pin = Relation(len(row), tuples=[row])
        deltas: list[tuple[str, tuple, int]] = []
        for clause, positions in self._consumers.get(pred, ()):
            for size in range(1, len(positions) + 1):
                term_sign = sign * (1 if size % 2 == 1 else -1)
                for subset in combinations(positions, size):
                    for head in self._instances(clause, store, subset, pin):
                        deltas.append((clause.head.pred, head, term_sign))
        return deltas
