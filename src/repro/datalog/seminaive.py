"""Bottom-up evaluation: naive and semi-naive fixpoints over strata.

For stratified programs the stratum-by-stratum least fixpoint computes the
unique perfect model (Przymusinski 1988), which is the semantics the paper
builds IDLOG on (Theorem 1).  The evaluator is parameterized by an
:class:`IdProvider` so the IDLOG engine (:mod:`repro.core.engine`) can supply
materialized ID-relations; plain Datalog evaluation passes no provider and
rejects ID-atoms.

Clauses run as compiled batch pipelines (:mod:`repro.datalog.executor`),
the one rule-firing path every layer shares.  The tuple-at-a-time solver
and the naive evaluator built on it live in :mod:`repro.testing`, as the
reference the differential tests compare against.

Instrumentation is first-class: every evaluation fills an :class:`EvalStats`
with tuples derived per predicate, clause firings, and join probes — the
quantities the Section 4 optimization experiments report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional, Protocol

from ..errors import EvaluationError
from .ast import Atom, Clause, Program
from .database import CodedDelta, Database, Relation
from .executor import BatchExecutor
from .planner import ClausePlanner
from .pretty import format_clause
from .stratify import Stratification, stratify
from .trace import (EV_CLAUSE_FIRE, EV_EVAL_END, EV_EVAL_START, EV_ROUND,
                    EV_STRATUM_END, EV_STRATUM_START, Tracer, resolve_tracer)


@dataclass
class EvalStats:
    """Counters collected during one evaluation.

    Attributes:
        derived: New tuples added per predicate (derivations minus dups).
        firings: Successful clause instantiations (head tuples produced,
            counting duplicates).
        probes: Tuples scanned/probed while joining body literals; every
            relation lookup costs at least one probe, so an index probe
            that finds an empty bucket (or a scan of an empty relation)
            still counts — greedy-vs-cost plan comparisons stay
            apples-to-apples.
        iterations: Fixpoint rounds summed over all strata.
        id_tuples: Tuples materialized into ID-relations.
        plans_built: Clause plans compiled (or re-costed) by the planner.
        plans_reused: Cache hits on previously compiled clause plans.
        pipelines_compiled: Batch pipelines compiled by the batch executor.
        pipelines_reused: Cache hits on previously compiled pipelines.

    The probe counter is the batch executor's: one probe per bucket row
    touched on the probe side with a floor of one per lookup — what the
    planner estimates and the reference solver in :mod:`repro.testing`
    counts (asserted equal by the differential tests).
    """

    derived: dict[str, int] = field(default_factory=dict)
    firings: int = 0
    probes: int = 0
    iterations: int = 0
    id_tuples: int = 0
    plans_built: int = 0
    plans_reused: int = 0
    pipelines_compiled: int = 0
    pipelines_reused: int = 0

    @property
    def total_derived(self) -> int:
        """Total new tuples across all predicates."""
        return sum(self.derived.values())

    def counters(self) -> dict[str, int]:
        """The nine counters in their reporting order — the server's
        ``stats`` object and the CLI's ``--stats`` line."""
        return {"derived": self.total_derived, "firings": self.firings,
                "probes": self.probes, "iterations": self.iterations,
                "id_tuples": self.id_tuples,
                "plans_built": self.plans_built,
                "plans_reused": self.plans_reused,
                "pipelines_compiled": self.pipelines_compiled,
                "pipelines_reused": self.pipelines_reused}

    def count_derived(self, pred: str, n: int = 1) -> None:
        """Record ``n`` new tuples for ``pred``."""
        self.derived[pred] = self.derived.get(pred, 0) + n

    def merge(self, other: "EvalStats") -> None:
        """Fold another stats object into this one."""
        for pred, n in other.derived.items():
            self.count_derived(pred, n)
        self.firings += other.firings
        self.probes += other.probes
        self.iterations += other.iterations
        self.id_tuples += other.id_tuples
        self.plans_built += other.plans_built
        self.plans_reused += other.plans_reused
        self.pipelines_compiled += other.pipelines_compiled
        self.pipelines_reused += other.pipelines_reused


class IdProvider(Protocol):
    """Supplier of materialized ID-relations.

    Called at most once per (predicate, grouping) per evaluation; the result
    is cached by the :class:`RelationStore`.
    """

    def materialize(self, pred: str, group: frozenset[int],
                    base: Relation, stats: EvalStats) -> Relation:
        """Return the ID-relation of ``base`` on ``group``."""
        ...


class _NoIdProvider:
    """Default provider: plain Datalog rejects ID-atoms."""

    def materialize(self, pred: str, group: frozenset[int],
                    base: Relation, stats: EvalStats) -> Relation:
        raise EvaluationError(
            f"program uses ID-predicate {pred}[{sorted(group)}] but no "
            "ID-provider was supplied; use the IDLOG engine "
            "(repro.core) for programs with ID-atoms")


class RelationStore:
    """All relations visible during evaluation, plus the ID-relation cache."""

    def __init__(self, id_provider: Optional[IdProvider],
                 stats: EvalStats) -> None:
        self._relations: dict[str, Relation] = {}
        self._id_cache: dict[tuple[str, frozenset[int]], Relation] = {}
        self._id_provider = id_provider or _NoIdProvider()
        self._stats = stats

    @classmethod
    def of_facts(cls, facts, arities: dict[str, int]) -> "RelationStore":
        """A store holding ``(pred, row)`` facts, in iteration order, plus
        an empty relation for every other predicate in ``arities``."""
        store = cls(None, EvalStats())
        relations = store._relations
        relations.update((pred, Relation(n)) for pred, n in arities.items())
        for pred, row in facts:
            relation = relations.get(pred)
            if relation is None:
                relation = relations[pred] = Relation(len(row))
            relation.add(row)
        return store

    def install(self, name: str, relation: Relation) -> None:
        """Make ``relation`` visible as ``name``."""
        self._relations[name] = relation

    def relation(self, name: str) -> Relation:
        """The current relation for ``name`` (KeyError if absent)."""
        return self._relations[name]

    def id_relation(self, pred: str, group: frozenset[int]) -> Relation:
        """The (cached) ID-relation of ``pred`` on ``group``."""
        key = (pred, group)
        cached = self._id_cache.get(key)
        if cached is None:
            base = self._relations[pred]
            cached = self._id_provider.materialize(
                pred, group, base, self._stats)
            self._id_cache[key] = cached
        return cached

    def resolve(self, atom: Atom) -> Relation:
        """The relation an atom reads from (ID-relations materialized lazily)."""
        if atom.is_id:
            return self.id_relation(atom.pred, atom.group)
        return self._relations[atom.pred]

    def base_relation(self, name: str) -> Optional[Relation]:
        """The stored base relation for ``name``, or None when absent.

        The planner's statistics resolver: cost estimation reads base
        relations only and never triggers ID-relation materialization.
        """
        return self._relations.get(name)

    def as_database(self, udomain: frozenset[str]) -> Database:
        """Snapshot the store as a database."""
        return Database(dict(self._relations), udomain)

    def memory_stats(self) -> dict:
        """Totals over everything the evaluation holds in memory.

        Covers the visible relations *and* the materialized ID-relation
        cache (which lives only in the store — ``as_database`` does not
        export it), so this is the evaluation's real resident footprint.
        """
        relation_stats = [r.memory_stats()
                          for r in self._relations.values()]
        id_stats = [r.memory_stats() for r in self._id_cache.values()]
        return {
            "relations": len(relation_stats),
            "total_rows": sum(s["rows"] for s in relation_stats),
            "id_relations": len(id_stats),
            "id_rows": sum(s["rows"] for s in id_stats),
            "total_approx_bytes": sum(
                s["approx_bytes"] for s in relation_stats + id_stats),
        }


def _recursive_positions(clause: Clause,
                         in_stratum: frozenset[str]) -> list[int]:
    """Source positions of positive in-stratum relation literals."""
    positions = []
    for i, literal in enumerate(clause.body):
        atom = literal.atom
        if isinstance(atom, Atom) and literal.positive and not atom.is_builtin \
                and not atom.is_id and atom.pred in in_stratum:
            positions.append(i)
    return positions


def evaluate_stratum(clauses: tuple[Clause, ...], heads: frozenset[str],
                     store: RelationStore, stats: EvalStats,
                     executor: BatchExecutor,
                     max_iterations: Optional[int] = None,
                     planner: Optional[ClausePlanner] = None,
                     tracer: Optional[Tracer] = None,
                     stratum: int = 0) -> None:
    """Run the least fixpoint of one stratum in place.

    ``heads`` is the set of predicates defined in this stratum; relations for
    them must already be installed in ``store`` (possibly empty).

    Args:
        executor: The evaluation's :class:`BatchExecutor`; clauses run as
            its compiled (and cached) batch pipelines.
        max_iterations: Optional guard against diverging fixpoints (programs
            whose arithmetic derives unboundedly many facts, e.g.
            ``times(0, M, 0)`` for every M); when exceeded an
            :class:`EvaluationError` is raised instead of looping forever.
        planner: Optional shared plan cache (and plan-mode selector);
            fixpoint rounds then reuse compiled per-(clause, delta-position)
            plans instead of re-deriving the literal order every round.
        tracer: Optional span-event receiver (see
            :mod:`repro.datalog.trace`); ``None`` keeps the hot path
            completely uninstrumented.
        stratum: Stratum index carried on emitted events.
    """
    deltas: dict[str, list] = {}
    if tracer is not None:
        if planner is not None:
            planner.stratum = stratum
        executor.stratum = stratum
        stratum_start = perf_counter()
        tracer.emit(EV_STRATUM_START, stratum=stratum,
                    heads=tuple(sorted(heads)))

    # The whole derive->merge->delta loop stays in code space: pipelines
    # emit coded head rows, an evaluation-scoped `seen` set per head
    # predicate dedups them at C speed, and both the relation and the
    # delta take the fresh rows as plain column appends (no membership
    # structure, no per-row probe).  The seen sets are the classic
    # space-for-time working state of a bulk load: they live only for this
    # stratum's fixpoint, so the *resident* footprint after evaluation is
    # the columnar one.
    seen_sets: dict[str, set] = {}

    def emit(pred: str, rows: list) -> int:
        if not rows:
            return 0
        relation = store.relation(pred)
        seen = seen_sets.get(pred)
        if seen is None:
            seen = seen_sets[pred] = set(relation.coded_rows())
        # seen.add returns None, so the `is None` arm both records the row
        # and keeps it — a single C-speed pass that preserves
        # first-derivation order (ordering must stay deterministic:
        # downstream ID choices consume rows in derivation order).
        add = seen.add
        fresh = [row for row in rows if row not in seen and add(row) is None]
        if not fresh:
            return 0
        relation.extend_coded(fresh)
        stats.count_derived(pred, len(fresh))
        delta = deltas.get(pred)
        if delta is None:
            deltas[pred] = fresh
        else:
            delta.extend(fresh)
        return len(fresh)

    clause_text: dict[int, str] = {}  # format once per clause, not per fire

    def fire(clause: Clause, round_no: int,
             delta_index: Optional[int] = None,
             delta: Optional[CodedDelta] = None) -> None:
        if tracer is None:
            emit(clause.head.pred, executor.execute_coded(
                clause, store, stats, delta_index=delta_index, delta=delta,
                planner=planner))
            return
        probes_before = stats.probes
        firings_before = stats.firings
        start = perf_counter()
        rows = executor.execute_coded(clause, store, stats,
                                      delta_index=delta_index, delta=delta,
                                      planner=planner)
        wall_s = perf_counter() - start
        new = emit(clause.head.pred, rows)
        text = clause_text.get(id(clause))
        if text is None:
            text = clause_text[id(clause)] = format_clause(clause)
        tracer.emit(EV_CLAUSE_FIRE, clause=text,
                    stratum=stratum, round=round_no,
                    delta_index=delta_index, wall_s=wall_s,
                    probes=stats.probes - probes_before,
                    firings=stats.firings - firings_before,
                    new=new,
                    delta_size=len(delta) if delta is not None else None,
                    stages=executor.last_stages)

    # Round 0: naive pass over every clause.  Derivations are buffered per
    # clause so a recursive clause never mutates a relation it is scanning.
    stats.iterations += 1
    for clause in clauses:
        fire(clause, 0)

    recursive = [(c, _recursive_positions(c, heads)) for c in clauses]
    recursive = [(c, ps) for c, ps in recursive if ps]

    if recursive:
        # Indexes built on head relations during the naive pass would be
        # maintained on every delta-round append; drop them once — a
        # delta round that actually probes a head relation rebuilds its
        # index and extend_coded maintains it from then on.
        for pred in heads:
            store.relation(pred).drop_indexes()

    rounds = 0
    if recursive:
        while deltas:
            rounds += 1
            if max_iterations is not None and rounds > max_iterations:
                raise EvaluationError(
                    f"stratum did not reach a fixpoint within "
                    f"{max_iterations} rounds; the program may derive "
                    "unboundedly many facts through arithmetic")
            stats.iterations += 1
            # Wrap each pred's fresh-row list once per round so every
            # clause consuming it shares lazily-built columns/indexes.
            previous = {pred: CodedDelta(rows)
                        for pred, rows in deltas.items()}
            deltas = {}
            if tracer is not None:
                tracer.emit(EV_ROUND, stratum=stratum, round=rounds,
                            deltas={p: len(r) for p, r in previous.items()})
            for clause, positions in recursive:
                for position in positions:
                    pred = clause.body[position].atom.pred
                    delta = previous.get(pred)
                    if delta is None or not len(delta):
                        continue
                    fire(clause, rounds, delta_index=position, delta=delta)

    if tracer is not None:
        tracer.emit(
            EV_STRATUM_END, stratum=stratum, rounds=rounds + 1,
            wall_s=perf_counter() - stratum_start,
            cardinalities={pred: len(store.relation(pred))
                           for pred in sorted(heads)})


def prepare_store(program: Program, db: Database,
                  id_provider: Optional[IdProvider],
                  stats: EvalStats) -> RelationStore:
    """Install EDB relations and empty IDB relations for an evaluation.

    IDB relations that also have facts in ``db`` start from a copy of those
    facts (this is how the paper's database programs ``dbp(P, q, r)`` inline
    input facts as clauses).
    """
    store = RelationStore(id_provider, stats)
    heads = program.head_predicates
    for name in program.predicates:
        arity = program.arity(name)
        if name in heads:
            if name in db:
                store.install(name, db.relation(name).copy())
            else:
                store.install(name, Relation(arity))
        else:
            if name in db:
                relation = db.relation(name)
                if relation.arity != arity:
                    raise EvaluationError(
                        f"relation {name} has arity {relation.arity}, the "
                        f"program uses it with arity {arity}")
                store.install(name, relation)
            else:
                store.install(name, Relation(arity))
    return store


def evaluate(program: Program, db: Database,
             id_provider: Optional[IdProvider] = None,
             stratification: Optional[Stratification] = None,
             max_iterations: Optional[int] = None,
             plan: str = "greedy",
             tracer: Optional[Tracer] = None,
             ) -> tuple[Database, EvalStats]:
    """Evaluate a stratified program bottom-up (semi-naive).

    Args:
        program: The program; must be safe and stratified.
        db: Input database supplying the EDB relations.
        id_provider: Supplier of ID-relations (required iff the program uses
            ID-atoms).
        stratification: Optional precomputed stratification.
        max_iterations: Optional per-stratum round guard against diverging
            fixpoints (see :func:`evaluate_stratum`).
        plan: ``"greedy"`` (the syntactic body order) or ``"cost"``
            (cardinality-aware ordering, see :mod:`repro.datalog.planner`).
        tracer: Optional span-event receiver (see
            :mod:`repro.datalog.trace`); defaults to the ambient tracer
            installed by :func:`repro.datalog.trace.use_tracer`, else none.

    Returns:
        The database of all relations (EDB views plus computed IDB) and the
        evaluation statistics.
    """
    tracer = resolve_tracer(tracer)
    strat = stratification or stratify(program)
    stats = EvalStats()
    store = prepare_store(program, db, id_provider, stats)
    planner = ClausePlanner(plan, tracer=tracer)
    executor = BatchExecutor(tracer=tracer)
    heads = program.head_predicates
    if tracer is not None:
        start = perf_counter()
        tracer.emit(EV_EVAL_START, program=program.name, plan=plan,
                    strata=strat.depth)
    for level, stratum in enumerate(strat.strata):
        stratum_heads = frozenset(stratum & heads)
        clauses = tuple(c for c in program.clauses
                        if c.head.pred in stratum_heads)
        if clauses:
            evaluate_stratum(clauses, stratum_heads, store, stats, executor,
                             max_iterations, planner=planner,
                             tracer=tracer, stratum=level)
    if tracer is not None:
        tracer.emit(EV_EVAL_END, program=program.name,
                    wall_s=perf_counter() - start,
                    derived=stats.total_derived, probes=stats.probes,
                    firings=stats.firings, iterations=stats.iterations)
    return store.as_database(db.udomain | program.u_constants()), stats
