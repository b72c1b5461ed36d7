"""The IDLOG evaluation engine (the paper's Sections 2–3).

Evaluation of a stratified IDLOG program is stratum-by-stratum least
fixpoints, exactly like stratified Datalog, except that ID-relations are
materialized lazily: the first time a stratum's clause reads ``p[s]``, the
engine asks its :class:`~repro.core.assignment.AssignmentStrategy` for an
ID-function of the (complete, lower-stratum) relation ``p`` and installs the
resulting ID-relation.  Different strategies realize the language's
non-determinism:

* ``run`` — deterministic canonical assignment (repeatable),
* ``one`` — seeded random assignment: *one arbitrary answer* of the query,
* ``answers`` — exhaustive enumeration of the full answer set, branching
  over every ID-function at every stratum (exact on example-scale inputs;
  guarded against explosion).

The group-limit optimization (Section 4 / footnotes 6–7) is applied
automatically: when every use of ``p[s]`` bounds its tid below ``k``, only
``k`` tuples per sub-relation are materialized, and enumeration shrinks from
``∏ b!`` to ``∏ P(b, k)`` per block size ``b``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from time import perf_counter
from typing import Iterator, Optional, Union

from ..datalog.ast import Atom, Program
from ..datalog.database import Database, Relation
from ..datalog.engine import EvalResult
from ..datalog.executor import BatchExecutor
from ..datalog.planner import ClausePlanner, check_plan_mode
from ..datalog.seminaive import (EvalStats, RelationStore, evaluate_stratum,
                                 prepare_store)
from ..datalog.trace import (EV_EVAL_END, EV_EVAL_START, EV_ID_CHOICE,
                             EV_ID_MATERIALIZED, Tracer, resolve_tracer,
                             tee)
from ..errors import EvaluationError, ReplayError
from .assignment import (AssignmentStrategy, CanonicalAssignment,
                         RandomAssignment)
from .choicelog import ChoiceLog, block_digest, choice_records
from .idrelations import (Grouping, count_id_functions,
                          enumerate_id_functions, make_id_relation,
                          sub_relations)
from .program import IdlogProgram


class _StrategyIdProvider:
    """IdProvider backed by an assignment strategy plus tid limits."""

    def __init__(self, strategy: AssignmentStrategy,
                 limits: dict[tuple[str, Grouping], Optional[int]],
                 use_limits: bool,
                 tracer: Optional[Tracer] = None) -> None:
        self._strategy = strategy
        self._limits = limits
        self._use_limits = use_limits
        self._tracer = tracer
        #: Everything materialized so far (exposed on EvalResult).
        self.materialized: dict[tuple[str, Grouping], Relation] = {}

    def materialize(self, pred: str, group: Grouping,
                    base: Relation, stats: EvalStats) -> Relation:
        if self._tracer is not None:
            start = perf_counter()
        id_function = self._strategy.id_function(pred, group, base)
        limit = self._limits.get((pred, group)) if self._use_limits else None
        relation = make_id_relation(base, id_function, limit)
        stats.id_tuples += len(relation)
        self.materialized[(pred, group)] = relation
        # The no-tracer hot path ends here: the audit records are only
        # ever constructed when someone is listening.
        if self._tracer is not None:
            for rec in choice_records(pred, group, id_function, limit):
                self._tracer.emit(EV_ID_CHOICE, **rec.as_event_fields())
            self._tracer.emit(
                EV_ID_MATERIALIZED, pred=pred, group=sorted(group),
                base_size=len(base), id_tuples=len(relation),
                tid_limit=limit, wall_s=perf_counter() - start)
        return relation


class _FixedIdProvider:
    """IdProvider returning pre-materialized relations (enumeration branches)."""

    def __init__(self, relations: dict[tuple[str, Grouping], Relation]) -> None:
        self._relations = relations

    def materialize(self, pred: str, group: Grouping,
                    base: Relation, stats: EvalStats) -> Relation:
        relation = self._relations.get((pred, group))
        if relation is None:
            raise EvaluationError(
                f"enumeration branch is missing the ID-relation for "
                f"{pred}[{sorted(group)}]")
        stats.id_tuples += len(relation)
        return relation


class ReplayIdProvider:
    """IdProvider re-applying a recorded :class:`ChoiceLog`.

    Deterministic replay with drift diagnosis: every block of every base
    relation is checked against the digest the log recorded.  When the
    database (or an earlier stratum's output) no longer matches, the
    raised :class:`~repro.errors.ReplayError` names the exact
    ``(pred, grouping, block)`` site and the expected vs. found digest —
    a replay never silently produces a different model.
    """

    def __init__(self, log: ChoiceLog,
                 tracer: Optional[Tracer] = None) -> None:
        self._log = log
        self._tracer = tracer
        #: Everything materialized so far (exposed on EvalResult).
        self.materialized: dict[tuple[str, Grouping], Relation] = {}

    def materialize(self, pred: str, group: Grouping,
                    base: Relation, stats: EvalStats) -> Relation:
        if self._tracer is not None:
            start = perf_counter()
        label = f"{pred}[{','.join(map(str, sorted(group)))}]"
        recorded = self._log.records_for(pred, group)
        blocks = sub_relations(base, group)
        if recorded is None:
            if blocks:
                raise ReplayError(
                    f"choice log holds no decision for {label} but the "
                    f"program needs one ({len(blocks)} block(s)); the "
                    "program or database gained an ID-relation the "
                    "recorded run never materialized")
            recorded = {}
        missing = sorted(set(recorded) - set(blocks), key=repr)
        extra = sorted(set(blocks) - set(recorded), key=repr)
        if missing or extra:
            bits = []
            if missing:
                bits.append("recorded block(s) no longer present: "
                            + ", ".join(map(repr, missing[:3]))
                            + ("…" if len(missing) > 3 else ""))
            if extra:
                bits.append("new block(s) absent from the log: "
                            + ", ".join(map(repr, extra[:3]))
                            + ("…" if len(extra) > 3 else ""))
            raise ReplayError(
                f"database drifted under {label}: " + "; ".join(bits))
        limit = self._log.limit_for(pred, group)
        for key in sorted(blocks, key=repr):
            rec, rows = recorded[key], blocks[key]
            found = block_digest(rows)
            if found != rec.block_digest:
                raise ReplayError(
                    f"database drifted under {label}: block {key!r} "
                    f"digests {found} but the log expected "
                    f"{rec.block_digest} (found {len(rows)} "
                    f"tuple(s), recorded {rec.block_size})")
            members = set(rows)
            for row in rec.ordering:
                if row not in members:
                    raise ReplayError(
                        f"choice log is corrupt: {label} block {key!r} "
                        f"ordering lists {row!r}, which is not in the "
                        "block (or is listed twice) despite a matching "
                        "digest")
                members.remove(row)
        relation = make_id_relation(
            base, {key: recorded[key].ordering for key in blocks}, limit)
        stats.id_tuples += len(relation)
        self.materialized[(pred, group)] = relation
        if self._tracer is not None:
            for rec in sorted(recorded.values(), key=lambda r: repr(r.block)):
                self._tracer.emit(EV_ID_CHOICE, replayed=True,
                                  **rec.as_event_fields())
            self._tracer.emit(
                EV_ID_MATERIALIZED, pred=pred, group=sorted(group),
                base_size=len(base), id_tuples=len(relation),
                tid_limit=limit, replayed=True,
                wall_s=perf_counter() - start)
        return relation


class IdlogEngine:
    """Evaluator for stratified IDLOG programs.

    Example (the paper's Section 1 sampling query):
        >>> engine = IdlogEngine('''
        ...     select_two_emp(Name) :- emp[2](Name, Dept, N), N < 2.
        ... ''')
        >>> db = Database.from_facts({"emp": [
        ...     ("ann", "toys"), ("bob", "toys"), ("cal", "toys"),
        ...     ("dee", "it"), ("eli", "it")]})
        >>> sample = engine.one(db, seed=0).tuples("select_two_emp")
        >>> len(sample)
        4

    Args:
        program: IDLOG source text, a parsed :class:`Program`, or an
            already-compiled :class:`IdlogProgram`.
        use_group_limits: Apply the Section 4 tid-bound optimization
            (default on; turn off to measure its effect).
        plan: Body-literal planning mode — ``"greedy"`` (purely syntactic)
            or ``"cost"`` (cardinality-aware, see
            :mod:`repro.datalog.planner`).
        tracer: Optional span-event receiver (see
            :mod:`repro.datalog.trace`): :meth:`run`/:meth:`one` emit
            eval/stratum/clause/ID-materialization spans to it, and each
            answer-set enumeration (:meth:`answers`,
            :meth:`answer_relations`, :meth:`answer_probabilities`) is one
            ``eval_start``/``eval_end`` pair around its branches.  Defaults
            to the ambient tracer installed by
            :func:`repro.datalog.trace.use_tracer`.
        persistent_caches: Keep one :class:`ClausePlanner` and one
            :class:`BatchExecutor` alive *across* :meth:`run` /
            :meth:`one` / :meth:`replay` calls, so compiled plans and
            batch pipelines (keyed per clause) are reused from one
            evaluation to the next — the "prepared program" mode the
            long-lived server (:mod:`repro.server`) runs every session
            under.  Off by default: a persistent engine must not be used
            from several threads at once, and cost plans are re-costed
            (not discarded) when relation cardinalities drift between
            calls.
    """

    def __init__(self, program: Union[str, Program, IdlogProgram],
                 use_group_limits: bool = True,
                 plan: str = "greedy",
                 tracer: Optional[Tracer] = None,
                 persistent_caches: bool = False) -> None:
        if isinstance(program, IdlogProgram):
            self.compiled = program
        else:
            self.compiled = IdlogProgram.compile(program)
        self.use_group_limits = use_group_limits
        self.plan = check_plan_mode(plan)
        self.tracer = tracer
        self.persistent_caches = persistent_caches
        self._planner: Optional[ClausePlanner] = None
        self._executor: Optional[BatchExecutor] = None

    def _pipeline_state(self, tracer: Optional[Tracer]
                        ) -> tuple[ClausePlanner, BatchExecutor]:
        """The planner/executor pair for one evaluation.

        Fresh per call by default; with ``persistent_caches`` the same
        pair is handed out every time (tracer re-pointed per call), so
        plan and pipeline caches survive between evaluations.
        """
        if not self.persistent_caches:
            return (ClausePlanner(self.plan, tracer=tracer),
                    BatchExecutor(tracer=tracer))
        if self._planner is None:
            self._planner = ClausePlanner(self.plan, tracer=tracer)
            self._executor = BatchExecutor(tracer=tracer)
        self._planner.tracer = tracer
        self._executor.tracer = tracer
        return self._planner, self._executor

    @property
    def program(self) -> Program:
        """The underlying clause set."""
        return self.compiled.program

    # -- single-model evaluation ------------------------------------------

    def run(self, db: Database,
            assignment: Optional[AssignmentStrategy] = None,
            record: Optional[ChoiceLog] = None) -> EvalResult:
        """Evaluate under one assignment (canonical by default).

        Returns one perfect model of the database program; with the default
        canonical strategy this is deterministic and repeatable.

        Args:
            db: Input database.
            assignment: Tid-assignment strategy (canonical by default).
            record: A :class:`~repro.core.choicelog.ChoiceLog` to fill
                with every ID-function decision the evaluation makes —
                the audit trail :meth:`replay` re-applies.
        """
        strategy = assignment or CanonicalAssignment()
        tracer = resolve_tracer(self.tracer)
        # A recorded run is a traced run: the log folds the evaluation's
        # id_choice/id_materialized events.
        tracer = tee(tracer, record)
        provider = _StrategyIdProvider(
            strategy, self.compiled.tid_limits, self.use_group_limits,
            tracer=tracer)
        return self._evaluate(db, provider, tracer)

    def replay(self, db: Database, log: ChoiceLog) -> EvalResult:
        """Re-evaluate under the ID choices a recorded log captured.

        Deterministic: the same database and program reproduce the
        recorded run's model exactly.  When the database drifted since
        recording, evaluation fails with a
        :class:`~repro.errors.ReplayError` naming the first block whose
        contents no longer match the recorded digest.
        """
        tracer = resolve_tracer(self.tracer)
        provider = ReplayIdProvider(log, tracer=tracer)
        return self._evaluate(db, provider, tracer)

    def _evaluate(self, db: Database, provider, tracer) -> EvalResult:
        stats = EvalStats()
        store = prepare_store(self.program, db, provider, stats)
        if tracer is not None:
            start = perf_counter()
            tracer.emit(EV_EVAL_START, program=self.program.name,
                        plan=self.plan,
                        strata=self.compiled.stratification.depth,
                        idlog=True)
        self._run_strata(store, stats, tracer)
        if tracer is not None:
            tracer.emit(EV_EVAL_END, program=self.program.name,
                        wall_s=perf_counter() - start,
                        derived=stats.total_derived, probes=stats.probes,
                        firings=stats.firings, iterations=stats.iterations,
                        id_tuples=stats.id_tuples)
        database = store.as_database(db.udomain | self.program.u_constants())
        return EvalResult(database, stats, dict(provider.materialized))

    def one(self, db: Database, seed: Optional[int] = None,
            record: Optional[ChoiceLog] = None) -> EvalResult:
        """Sample one answer: evaluate under a random assignment.

        Pass ``record`` to capture the drawn ID choices for later
        :meth:`replay` — the seeded sample becomes exactly reproducible
        even across interpreter versions and hash seeds.
        """
        return self.run(db, RandomAssignment(seed), record=record)

    def query(self, db: Database, pred: str,
              assignment: Optional[AssignmentStrategy] = None,
              ) -> frozenset[tuple]:
        """Evaluate under one assignment and project one predicate."""
        return self.run(db, assignment).tuples(pred)

    def _run_strata(self, store: RelationStore, stats: EvalStats,
                    tracer: Optional[Tracer] = None) -> None:
        planner, executor = self._pipeline_state(tracer)
        heads = self.program.head_predicates
        for level, stratum in enumerate(self.compiled.stratification.strata):
            stratum_heads = frozenset(stratum & heads)
            clauses = tuple(c for c in self.program.clauses
                            if c.head.pred in stratum_heads)
            if clauses:
                evaluate_stratum(clauses, stratum_heads, store, stats,
                                 executor, planner=planner,
                                 tracer=tracer, stratum=level)

    # -- answer-set enumeration --------------------------------------------

    def answers(self, db: Database, pred: str,
                max_branches: int = 200_000,
                slice_program: bool = True) -> frozenset[frozenset[tuple]]:
        """The exact answer set of the query ``pred`` on ``db``.

        Enumerates every combination of ID-functions (branching per stratum,
        because lower-stratum contents may depend on earlier choices) and
        collects the distinct values of ``pred``.  This realizes the paper's
        definition ``q(r) = {q^M : M ∈ PERF_D}``.

        Args:
            db: Input database.
            pred: Output predicate to project.
            max_branches: Abort (with :class:`EvaluationError`) after this
                many enumeration leaves — non-determinism can be factorial.
            slice_program: Evaluate only the program portion ``P/pred``
                (the paper's dbp construction); avoids branching on
                ID-functions irrelevant to the query.

        Returns:
            A frozenset of relations (each a frozenset of tuples).
        """
        snapshots = self.answer_relations(db, (pred,), max_branches,
                                          slice_program)
        return frozenset(snapshot[0] for snapshot in snapshots)

    def answer_relations(self, db: Database, preds: tuple[str, ...],
                         max_branches: int = 200_000,
                         slice_program: bool = True,
                         ) -> frozenset[tuple[frozenset[tuple], ...]]:
        """Joint answer set over several output predicates.

        Each element is a tuple of relations, one per requested predicate,
        arising from a single perfect model — so correlations between output
        predicates (e.g. man/woman partitioning person) are preserved.
        """
        compiled = self.compiled
        if slice_program:
            program = self.program
            related: set[str] = set()
            for pred in preds:
                related |= program.related_to(pred)
            sliced = Program(
                tuple(c for c in program.clauses if c.head.pred in related),
                name=f"{program.name}/{'+'.join(preds)}")
            compiled = IdlogProgram.compile(sliced)
        results = set()
        budget = [max_branches]
        for relations, _, _ in self._enumerate_models(compiled, db, budget):
            snapshot = tuple(
                relations[p].frozen() if p in relations else frozenset()
                for p in preds)
            results.add(snapshot)
        return frozenset(results)

    def answer_probabilities(self, db: Database, pred: str,
                             max_branches: int = 200_000,
                             slice_program: bool = True,
                             ) -> dict[frozenset[tuple], Fraction]:
        """The EXACT probability of every answer under uniform tids.

        Each (predicate, grouping) pair draws its ID-function uniformly;
        the probability of an answer is the total weight of the
        enumeration leaves producing it (leaves within one branch node are
        equally likely; prefix-limited classes partition the full space
        evenly).  The returned probabilities sum to exactly 1 — they are
        :class:`fractions.Fraction` values, not floats.

        This is what ``IdlogQuery.answer_distribution`` estimates by
        sampling; the E4/E5-style sampling queries come out uniform.
        """
        compiled = self.compiled
        if slice_program:
            sliced = self.program.restrict_to(pred)
            compiled = IdlogProgram.compile(sliced)
        budget = [max_branches]
        probabilities: dict[frozenset[tuple], Fraction] = {}
        for relations, _, weight in self._enumerate_models(
                compiled, db, budget):
            answer = relations[pred].frozen() if pred in relations \
                else frozenset()
            probabilities[answer] = probabilities.get(
                answer, Fraction(0)) + weight
        return probabilities

    def count_models(self, db: Database, max_branches: int = 200_000) -> int:
        """Number of enumeration leaves (assignment combinations) on ``db``.

        An upper bound on (and usually far above) the number of distinct
        answers.
        """
        budget = [max_branches]
        return sum(1 for _ in self._enumerate_models(
            self.compiled, db, budget))

    def _enumerate_models(
            self, compiled: IdlogProgram, db: Database, budget: list[int],
    ) -> Iterator[tuple[dict[str, Relation],
                        dict[tuple[str, Grouping], Relation], Fraction]]:
        """Yield every perfect model of the program on ``db``.

        Walks strata in order; before evaluating stratum ``k``, branches on
        every ID-function of every (pred, group) pair first needed there.
        Yields (relations, chosen ID-relations, weight) per model: the
        first dict maps predicate names to their final relations (shared
        EDB relations included); the second maps each (predicate,
        grouping) pair to the ID-relation the model's interpretation
        assigns it; the weight is the model's exact probability under
        uniformly random ID-functions (weights sum to 1).
        """
        program = compiled.program
        stats = EvalStats()
        store = prepare_store(program, db, _FixedIdProvider({}), stats)
        relations = {name: store.relation(name)
                     for name in program.predicates}
        heads = program.head_predicates
        strata = compiled.stratification.strata

        # Each ID-predicate gets exactly ONE ID-relation per interpretation,
        # so a (pred, group) pair is branched on at its first-use stratum
        # only; the chosen relation is carried to later strata.
        assigned: set[tuple[str, Grouping]] = set()
        needed_per_stratum = []
        for stratum in strata:
            needed: set[tuple[str, Grouping]] = set()
            for clause in program.clauses:
                if clause.head.pred not in stratum:
                    continue
                for literal in clause.body:
                    atom = literal.atom
                    if isinstance(atom, Atom) and atom.is_id:
                        key = (atom.pred, atom.group)
                        if key not in assigned:
                            needed.add(key)
                            assigned.add(key)
            needed_per_stratum.append(sorted(needed))

        # One plan cache (and one compiled-pipeline cache) for the whole
        # enumeration: branches share clause identities, the cost mode's
        # staleness check absorbs the cardinality drift between branches,
        # and pipelines resolve relations at run time so they are
        # branch-independent.
        tracer = resolve_tracer(self.tracer)
        planner = ClausePlanner(self.plan, tracer=tracer)
        executor = BatchExecutor(tracer=tracer)
        leaves = self._branch(compiled, relations, heads, strata, 0,
                              needed_per_stratum, budget, {},
                              Fraction(1), planner, executor, tracer)
        if tracer is None:
            yield from leaves
            return
        # The whole enumeration is one evaluation span, so a profile of an
        # answers() call carries meta["wall_s"] like a run() does.
        start = perf_counter()
        tracer.emit(EV_EVAL_START, program=program.name, plan=self.plan,
                    strata=compiled.stratification.depth, idlog=True,
                    enumeration=True)
        models = 0
        for leaf in leaves:
            models += 1
            yield leaf
        tracer.emit(EV_EVAL_END, program=program.name,
                    wall_s=perf_counter() - start, models=models)

    def _branch(self, compiled: IdlogProgram,
                relations: dict[str, Relation], heads: frozenset[str],
                strata, k: int, needed_per_stratum, budget: list[int],
                chosen: dict[tuple[str, Grouping], Relation],
                weight: Fraction, planner: ClausePlanner,
                executor: BatchExecutor,
                tracer: Optional[Tracer] = None,
                ) -> Iterator[tuple]:
        program = compiled.program
        if k == len(strata):
            budget[0] -= 1
            if budget[0] < 0:
                raise EvaluationError(
                    "answer-set enumeration exceeded max_branches; the "
                    "input is too non-deterministic to enumerate exactly — "
                    "raise max_branches or sample with one()")
            yield relations, chosen, weight
            return

        stratum_heads = frozenset(strata[k] & heads)
        clauses = tuple(c for c in program.clauses
                        if c.head.pred in stratum_heads)
        needed = needed_per_stratum[k]

        choice_spaces = []
        for pred, group in needed:
            base = relations[pred]
            limit = compiled.tid_limits.get((pred, group)) \
                if self.use_group_limits else None
            count = count_id_functions(base, group, limit)
            if count > max(budget[0], 1):
                raise EvaluationError(
                    f"{count} ID-functions for {pred}[{sorted(group)}] "
                    "exceed the enumeration budget; raise max_branches or "
                    "sample with one()")
            choice_spaces.append([
                make_id_relation(base, fn, limit)
                for fn in enumerate_id_functions(base, group, limit)])

        branch_weight = weight
        for space in choice_spaces:
            branch_weight /= len(space)
        for combo in product(*choice_spaces) if choice_spaces else [()]:
            branch_relations = {
                name: (rel.copy() if name in heads else rel)
                for name, rel in relations.items()}
            branch_chosen = dict(chosen)
            branch_chosen.update(zip(needed, combo))
            stats = EvalStats()
            provider = _FixedIdProvider(branch_chosen)
            store = RelationStore(provider, stats)
            for name, rel in branch_relations.items():
                store.install(name, rel)
            if clauses:
                evaluate_stratum(clauses, stratum_heads, store, stats,
                                 executor, planner=planner,
                                 tracer=tracer, stratum=k)
            yield from self._branch(compiled, branch_relations, heads,
                                    strata, k + 1, needed_per_stratum,
                                    budget, branch_chosen, branch_weight,
                                    planner, executor, tracer)
