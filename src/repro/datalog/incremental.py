"""Incremental maintenance of materialized programs under fact updates.

For **positive** programs:

* insertions are monotone — maintenance is the semi-naive delta loop
  restarted from the inserted tuple;
* deletions use **DRed** (delete-and-rederive, Gupta/Mumick/Subrahmanian):
  over-delete everything with a derivation through the removed tuple,
  then re-derive survivors that have alternative support, propagating
  reinsertions with the same insertion machinery.

For programs with negation (or ID-atoms, whose materialized ID-relations
would need re-numbering), updates are not monotone;
:class:`IncrementalEngine` falls back to full recomputation there,
keeping one API with two measured paths (the A4 ablation quantifies the
difference).

Every firing — materialization, delta propagation, over-deletion and
re-derivation — runs on the batch executor.  Insert propagation and
over-deletion share one semi-naive delta loop that stays in code space:
each round hands its coded rows to
:meth:`~repro.datalog.executor.BatchExecutor.execute_coded` as the delta
override, and rows enter and leave relations through
:meth:`~repro.datalog.database.Relation.add_coded` /
:meth:`~repro.datalog.database.Relation.discard_coded`.  Only
re-derivation candidates are decoded: the check asks for the bindings of
a clause body seeded with the candidate's head unification.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Optional, Union

from ..errors import EvaluationError, SchemaError
from .ast import Program
from .database import CodedDelta, Database
from .executor import BatchExecutor
from .parser import parse_program
from .planner import ClausePlanner
from .pool import GLOBAL_POOL
from .safety import check_program, order_body
from .seminaive import (EvalStats, RelationStore, evaluate_stratum,
                        prepare_store)
from .stratify import stratify
from .terms import Value
from .trace import (EV_EVAL_END, EV_EVAL_START, EV_INCREMENTAL, Tracer,
                    resolve_tracer)


def _has_negation(program: Program) -> bool:
    return any(
        not literal.positive and not literal.atom.is_builtin
        for clause in program.clauses for literal in clause.body)


class IncrementalEngine:
    """A materialized program view maintained under fact insertions.

    Example:
        >>> engine = IncrementalEngine('''
        ...     path(X, Y) :- edge(X, Y).
        ...     path(X, Y) :- edge(X, Z), path(Z, Y).
        ... ''')
        >>> engine.start(Database.from_facts({"edge": [("a", "b")]}))
        >>> engine.add_fact("edge", ("b", "c"))   # returns new tuples
        3
        >>> sorted(engine.relation("path"))
        [('a', 'b'), ('a', 'c'), ('b', 'c')]
    """

    def __init__(self, program: Union[str, Program],
                 tracer: Optional[Tracer] = None) -> None:
        if isinstance(program, str):
            program = parse_program(program)
        if program.has_choice():
            raise SchemaError("incremental maintenance is for Datalog/"
                              "IDLOG programs, not DATALOG^C")
        check_program(program)
        self.program = program
        self.stratification = stratify(program)
        #: True when insertions take the delta fast path.
        self.incremental = not _has_negation(program) \
            and not program.has_id_atoms()
        #: Optional span-event receiver; maintenance operations emit
        #: ``incremental`` events that say which path (delta fast path,
        #: DRed, or full-recompute fallback) handled each update.
        self.tracer = tracer
        self._store: RelationStore | None = None
        self._base = Database()
        self.stats = EvalStats()
        #: Runs the maintenance firings (untraced: only the
        #: materialization passes emit span events).
        self._executor = BatchExecutor()
        #: ``(clause, body position, predicate)`` of every positive
        #: relation literal: where a delta of that predicate enters.
        self._occurrences = [
            (clause, i, literal.atom.pred)
            for clause in program.clauses
            for i, literal in enumerate(clause.body)
            if literal.positive and not literal.atom.is_builtin]

    def _trace(self, **fields) -> None:
        tracer = resolve_tracer(self.tracer)
        if tracer is not None:
            tracer.emit(EV_INCREMENTAL, **fields)

    # -- lifecycle ----------------------------------------------------------

    def start(self, db: Database) -> None:
        """Materialize the program over ``db`` (copied; later insertions
        do not touch the caller's database).

        With a tracer the whole call is one ``eval_start``/``eval_end``
        pair, so a profile of it carries ``meta["wall_s"]``.
        """
        self._base = db.copy()
        self.stats = EvalStats()
        tracer = resolve_tracer(self.tracer)
        if tracer is not None:
            tracer.emit(EV_EVAL_START, program=self.program.name,
                        plan="greedy",
                        strata=self.stratification.depth)
        start = perf_counter()
        self._materialize()
        wall_s = perf_counter() - start
        self._trace(op="materialize", incremental=self.incremental,
                    wall_s=wall_s)
        if tracer is not None:
            stats = self.stats
            tracer.emit(EV_EVAL_END, program=self.program.name,
                        wall_s=wall_s, derived=stats.total_derived,
                        probes=stats.probes, firings=stats.firings,
                        iterations=stats.iterations)

    def _materialize(self) -> None:
        stats = EvalStats()
        tracer = resolve_tracer(self.tracer)
        # prepare_store shares EDB relations; since we own self._base
        # (copied in start), mutating them via add_fact is fine.
        store = prepare_store(self.program, self._base, None, stats)
        planner = ClausePlanner("greedy", tracer=tracer)
        executor = BatchExecutor(tracer=tracer)
        heads = self.program.head_predicates
        for level, stratum in enumerate(self.stratification.strata):
            stratum_heads = frozenset(stratum & heads)
            clauses = tuple(c for c in self.program.clauses
                            if c.head.pred in stratum_heads)
            if clauses:
                evaluate_stratum(clauses, stratum_heads, store, stats,
                                 executor, planner=planner,
                                 tracer=tracer, stratum=level)
        self._store = store
        self.stats.merge(stats)

    def _require_started(self) -> RelationStore:
        if self._store is None:
            raise EvaluationError("call start(db) before add_fact/relation")
        return self._store

    # -- reads --------------------------------------------------------------

    def relation(self, pred: str) -> frozenset[tuple]:
        """The current materialized relation of ``pred``."""
        store = self._require_started()
        return store.relation(pred).frozen()

    def database(self) -> Database:
        """A snapshot of all current relations."""
        store = self._require_started()
        return store.as_database(
            self._base.udomain | self.program.u_constants()).copy()

    # -- writes ---------------------------------------------------------------

    def add_fact(self, pred: str, row: tuple[Value, ...]) -> int:
        """Insert one tuple and maintain all derived relations.

        Returns:
            The number of tuples (including the inserted one) that are new.

        Raises:
            SchemaError: when ``pred`` is not a predicate of the program
                or the row has the wrong arity/sorts.
        """
        store = self._require_started()
        if pred not in self.program.predicates:
            raise SchemaError(f"{pred} is not a predicate of the program")

        if not self.incremental:
            if pred not in self.program.input_predicates:
                raise SchemaError(
                    "insertions into derived predicates are only supported "
                    "on the incremental (positive-program) path")
            if not self._base.add_fact(pred, row):
                return 0
            return self._recompute("insert", pred)

        if not store.relation(pred).add(row):
            return 0
        start = perf_counter()
        if pred in self.program.input_predicates:
            # Keep the base database consistent (a no-op when the store
            # shares the base relation object).
            self._base.add_fact(pred, row)
        self.stats.count_derived(pred)
        added = 1 + self._propagate(pred, GLOBAL_POOL.encode_row(row))
        self._trace(op="insert", path="delta", pred=pred, changed=added,
                    wall_s=perf_counter() - start)
        return added

    def delete_fact(self, pred: str, row: tuple[Value, ...]) -> int:
        """Remove one EDB tuple and maintain all derived relations (DRed).

        Returns:
            The number of tuples that are gone after maintenance (the
            deleted tuple plus derived tuples that lost all support).

        Raises:
            SchemaError: when ``pred`` is not an input predicate of the
                program (derived tuples cannot be deleted — they would be
                re-derived immediately).
        """
        store = self._require_started()
        if pred not in self.program.input_predicates:
            raise SchemaError(
                f"{pred} is not an input predicate; only EDB tuples can "
                "be deleted")
        if row not in store.relation(pred):
            return 0
        if pred in self._base:
            self._base.relation(pred).discard(row)
        if not self.incremental:
            return self._recompute("delete", pred)

        # Phase 1 (over-delete): everything with a derivation through the
        # deleted tuple, computed semi-naive style against the ORIGINAL
        # relations (the standard DRed over-approximation).
        start = perf_counter()
        stats = EvalStats()
        seed = GLOBAL_POOL.encode_row(row)
        deleted: dict[str, set[tuple[int, ...]]] = {pred: {seed}}

        def overdelete(head: str, coded: tuple[int, ...]) -> bool:
            rows = deleted.setdefault(head, set())
            if coded in rows or not store.relation(head).contains_coded(coded):
                return False
            rows.add(coded)
            return True

        self._run_deltas(pred, seed, overdelete, stats)
        for name, rows in deleted.items():
            relation = store.relation(name)
            for coded in rows:
                relation.discard_coded(coded)

        # Phase 2 (re-derive): candidates with alternative support come
        # back, and their reinsertion propagates like an ordinary insert.
        # Only the candidates are decoded: for a deterministic order and
        # for unification with clause heads.
        rederived = 0
        decode = GLOBAL_POOL.decode_row
        for name, rows in sorted(deleted.items()):
            if name == pred:
                continue  # the EDB seed itself never re-derives
            relation = store.relation(name)
            candidates = sorted(((decode(coded), coded) for coded in rows),
                                key=lambda c: tuple(map(repr, c[0])))
            for candidate, coded in candidates:
                if relation.contains_coded(coded):
                    continue  # already back via propagation
                if self._derivable(name, candidate):
                    relation.add_coded(coded)
                    rederived += 1 + self._propagate(name, coded)
        self.stats.merge(stats)
        total_deleted = sum(len(rows) for rows in deleted.values())
        self._trace(op="delete", path="dred", pred=pred,
                    overdeleted=total_deleted, rederived=rederived,
                    changed=total_deleted - rederived,
                    wall_s=perf_counter() - start)
        return total_deleted - rederived

    def _recompute(self, op: str, pred: str) -> int:
        """Re-materialize after an ``op`` ("insert" or "delete") already
        applied to the base; returns 1 (the base tuple) plus the derived
        tuples that appeared (insert) or disappeared (delete)."""
        start = perf_counter()
        heads = self.program.head_predicates
        before = {p: self._store.relation(p).frozen() for p in heads}
        self._materialize()
        changed = 1
        for p in heads:
            after = self._store.relation(p).frozen()
            changed += len(after - before[p] if op == "insert"
                           else before[p] - after)
        self._trace(op=op, path="fallback", pred=pred,
                    reason="negation or ID-atoms force full recomputation",
                    changed=changed, wall_s=perf_counter() - start)
        return changed

    def _derivable(self, pred: str, row: tuple[Value, ...]) -> bool:
        """Does some clause derive ``row`` from the current relations?"""
        store = self._require_started()
        for clause in self.program.clauses_defining(pred):
            seed = clause.head.unify(row)
            if seed is None:
                continue
            order = order_body(clause, initially_bound=frozenset(seed))
            bindings = self._executor.execute_bindings(
                order, store, EvalStats(), seed)
            if next(bindings, None) is not None:  # a binding may be {}
                return True
        return False

    def _run_deltas(self, pred: str, seed: tuple[int, ...],
                    admit: Callable[[str, tuple[int, ...]], bool],
                    stats: EvalStats) -> None:
        """Semi-naive rounds from the coded ``seed`` row of ``pred``, in
        code space.

        Each round fires every positive body occurrence of a delta
        predicate with that delta; a derived head row joins the next
        round's delta when ``admit(head, row)`` says so (insertion: it
        was new to the store; over-deletion: it was not yet deleted).
        """
        store = self._require_started()
        execute = self._executor.execute_coded
        deltas = {pred: [seed]}
        while deltas:
            previous = {p: CodedDelta(rows) for p, rows in deltas.items()}
            deltas = {}
            for clause, position, body_pred in self._occurrences:
                delta = previous.get(body_pred)
                if delta is None:
                    continue
                head = clause.head.pred
                fresh = [row for row in execute(clause, store, stats,
                                                delta_index=position,
                                                delta=delta)
                         if admit(head, row)]
                if fresh:
                    deltas.setdefault(head, []).extend(fresh)

    def _propagate(self, pred: str, coded: tuple[int, ...]) -> int:
        """Semi-naive continuation from one inserted coded row; returns
        the number of derived tuples it added."""
        store = self._require_started()
        stats = EvalStats()

        def insert(head: str, row: tuple[int, ...]) -> bool:
            if not store.relation(head).add_coded(row):
                return False
            stats.count_derived(head)
            return True

        self._run_deltas(pred, coded, insert, stats)
        self.stats.merge(stats)
        return stats.total_derived
