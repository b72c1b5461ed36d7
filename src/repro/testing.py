"""The reference solver, the reference model, and randomized
program/database generators for differential testing.

Exposed as library code (rather than test-internal helpers) so downstream
users can fuzz their own extensions the way this repository's property
tests do: generate a random stratified program, evaluate it under two
implementations (the engine vs :func:`oracle_model`, original vs
optimized, direct vs magic), and compare.

The reference solver is the tuple-at-a-time :func:`evaluate_clause`
(recursive substitution dicts over value-level ``Relation.match``) and
:func:`evaluate_naive`, plain naive rounds of it.  Production fires rules
only through the batch executor (:mod:`repro.datalog.executor`); this
solver is deliberately separate so the differential tests compare two
independent implementations — rows and bindings in the same order, with
equal probes and firings.

Generation is *correct by construction* where cheap (stratification comes
from a level discipline: a predicate's body only uses lower-or-equal
levels positively and strictly-lower levels negatively) and by rejection
where not (safety is re-checked with the real checker and unsafe drafts
are re-drawn).
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from .core.assignment import CanonicalAssignment
from .core.choicelog import ChoiceLog
from .core.engine import ReplayIdProvider, _StrategyIdProvider
from .core.idrelations import enumerate_id_functions, make_id_relation
from .datalog.ast import Atom, Clause, Literal, Program
from .datalog.builtins import builtin_spec
from .datalog.database import Database, Relation
from .datalog.planner import ClausePlanner
from .datalog.safety import check_clause, order_body
from .datalog.seminaive import (EvalStats, IdProvider, RelationStore,
                                prepare_store)
from .datalog.stratify import stratify
from .datalog.terms import Const, Value, Var
from .errors import EvaluationError, SafetyError


Substitution = dict[Var, Value]


def _match_args(args: tuple, row: tuple[Value, ...],
                subst: Substitution) -> Optional[Substitution]:
    """Extend ``subst`` so that ``args`` matches ``row``; None on clash."""
    new_bindings: Substitution = {}
    for term, value in zip(args, row):
        if isinstance(term, Const):
            if term.value != value:
                return None
        else:
            seen = subst.get(term, new_bindings.get(term))
            if seen is None:
                new_bindings[term] = value
            elif seen != value:
                return None
    if not new_bindings:
        return subst
    merged = dict(subst)
    merged.update(new_bindings)
    return merged


def _ground_args(args: tuple, subst: Substitution) -> tuple:
    """Instantiate args to values/None under ``subst`` (None = unbound)."""
    out = []
    for term in args:
        if isinstance(term, Const):
            out.append(term.value)
        else:
            out.append(subst.get(term))
    return tuple(out)


def _solve_literals(order: tuple[Literal, ...], index: int,
                    subst: Substitution, store: RelationStore,
                    stats: EvalStats,
                    overrides: dict[int, Relation]) -> Iterator[Substitution]:
    """Recursively enumerate substitutions satisfying ``order[index:]``.

    ``overrides`` maps positions in ``order`` to replacement relations —
    the mechanism by which semi-naive evaluation substitutes a delta for one
    occurrence of a recursive predicate.
    """
    if index == len(order):
        yield subst
        return
    literal = order[index]
    atom = literal.atom
    assert isinstance(atom, Atom)

    if atom.is_builtin:
        partial = _ground_args(atom.args, subst)
        spec = builtin_spec(atom.pred)
        if literal.positive:
            solved = False
            for solution in spec.solve(partial):
                solved = True
                stats.probes += 1
                extended = _match_args(atom.args, solution, subst)
                if extended is not None:
                    yield from _solve_literals(
                        order, index + 1, extended, store, stats, overrides)
            if not solved:
                stats.probes += 1
        else:
            if None in partial:
                raise EvaluationError(
                    f"negated builtin {atom} evaluated with unbound arguments")
            stats.probes += 1
            if not any(True for _ in spec.solve(partial)):
                yield from _solve_literals(
                    order, index + 1, subst, store, stats, overrides)
        return

    relation = overrides.get(index)
    if relation is None:
        relation = store.resolve(atom)

    if literal.positive:
        pattern = _ground_args(atom.args, subst)
        # Every lookup costs at least one probe: a full scan counts each
        # scanned row, an index probe counts each bucket row, and an empty
        # result still counts the lookup itself — so plans that do many
        # fruitless probes are not reported as free.
        yielded = False
        for row in relation.match(pattern):
            yielded = True
            stats.probes += 1
            extended = _match_args(atom.args, row, subst)
            if extended is not None:
                yield from _solve_literals(
                    order, index + 1, extended, store, stats, overrides)
        if not yielded:
            stats.probes += 1
    else:
        row = _ground_args(atom.args, subst)
        if None in row:
            raise EvaluationError(
                f"negated literal {atom} evaluated with unbound variables")
        stats.probes += 1
        if tuple(row) not in relation:
            yield from _solve_literals(
                order, index + 1, subst, store, stats, overrides)


def evaluate_clause(clause: Clause, store: RelationStore, stats: EvalStats,
                    delta_index: Optional[int] = None,
                    delta: Optional[Relation] = None,
                    planner: Optional[ClausePlanner] = None,
                    ) -> Iterator[tuple]:
    """Yield head tuples derivable from one clause.

    When ``delta_index``/``delta`` are given, the body literal at that
    position (in source order) reads ``delta`` instead of its full relation,
    and is scheduled first (semi-naive variant).  With a ``planner`` the
    literal order comes from its compiled-plan cache (greedy or cost-based);
    without one, the syntactic greedy order is re-derived on every call.
    """
    if planner is not None:
        order = planner.order(clause, store.base_relation,
                              delta_index=delta_index, stats=stats)
    else:
        first: Optional[Literal] = None
        if delta_index is not None:
            first = clause.body[delta_index]
        order = order_body(clause, first=first)
    overrides: dict[int, Relation] = {}
    if delta_index is not None and delta is not None:
        # ``first`` landed at position 0 of the ordering.
        overrides[0] = delta
    for subst in _solve_literals(order, 0, {}, store, stats, overrides):
        stats.firings += 1
        yield clause.head.ground(subst)


def evaluate_naive(program: Program, db: Database,
                   id_provider: Optional[IdProvider] = None,
                   ) -> tuple[Database, EvalStats]:
    """The reference evaluator: naive rounds of :func:`evaluate_clause`.

    Deliberately small and independent of the production path — no
    planner, no batch executor, no tracer.  Each stratum repeats full
    passes over its clauses, every body in the syntactic
    :func:`~repro.datalog.safety.order_body` order, until no relation
    grows.  Slower than :func:`~repro.datalog.seminaive.evaluate` but
    trivially correct; the differential tests compare it (and the IDLOG
    engine) against this on random programs.
    """
    stats = EvalStats()
    store = prepare_store(program, db, id_provider, stats)
    for stratum in stratify(program).strata:
        clauses = [c for c in program.clauses if c.head.pred in stratum]
        changed = bool(clauses)
        while changed:
            changed = False
            stats.iterations += 1
            for clause in clauses:
                relation = store.relation(clause.head.pred)
                for row in list(evaluate_clause(clause, store, stats)):
                    if relation.add(row):
                        stats.count_derived(clause.head.pred)
                        changed = True
    return store.as_database(db.udomain | program.u_constants()), stats


def oracle_model(program: Program, db: Database,
                 log: Optional[ChoiceLog] = None,
                 ) -> tuple[Database, EvalStats]:
    """The reference model of a (possibly IDLOG) program on ``db``.

    :func:`evaluate_naive` with ID-relations
    drawn canonically and *without* the §4 tid-bound rewrite — so
    comparing it with ``IdlogEngine.run`` also checks that the rewrite
    preserves every head relation — or, with ``log``, re-applied from a
    recorded :class:`~repro.core.choicelog.ChoiceLog` (the oracle side of
    a record/replay differential check).
    """
    provider = ReplayIdProvider(log) if log is not None else \
        _StrategyIdProvider(CanonicalAssignment(), {}, use_limits=False)
    return evaluate_naive(program, db, provider)


class _OdometerIds:
    """ID-provider picking the ``choice[k]``-th ID-function for the k-th
    (predicate, grouping) pair an evaluation materializes."""

    def __init__(self, choice: list[int], sizes: list[int],
                 limits: dict) -> None:
        self.choice, self.sizes, self.limits = choice, sizes, limits
        self.asked = 0

    def materialize(self, pred, group, base, stats) -> Relation:
        limit = self.limits.get((pred, group))
        functions = list(enumerate_id_functions(base, group, limit))
        k, self.asked = self.asked, self.asked + 1
        if k == len(self.choice):
            self.choice.append(0)
            self.sizes.append(len(functions))
        return make_id_relation(base, functions[self.choice[k]], limit)


def oracle_answers(program: Program, db: Database, pred: str,
                   limits: Optional[dict] = None,
                   ) -> frozenset[frozenset[tuple]]:
    """Every answer of ``pred``: the oracle model under each combination
    of ID-functions.

    A depth-first odometer over the (predicate, grouping) pairs in the
    order :func:`evaluate_naive` first reads
    them — a pair's base depends only on the choices made before it, so
    advancing the last pair and re-discovering the ones after it visits
    every combination exactly once.  ``limits`` maps pairs to tid limits
    (e.g. ``IdlogProgram.tid_limits``): one tid-prefix class per
    combination instead of every full ID-function.
    """
    answers = set()
    choice: list[int] = []
    sizes: list[int] = []
    while True:
        model, _ = evaluate_naive(program, db,
                                  _OdometerIds(choice, sizes, limits or {}))
        answers.add(model.relation(pred).frozen())
        while choice and choice[-1] + 1 == sizes[-1]:
            choice.pop()
            sizes.pop()
        if not choice:
            return frozenset(answers)
        choice[-1] += 1


def random_stratified_program(
        rng: random.Random,
        n_edb: int = 2,
        n_idb: int = 3,
        max_clauses_per_pred: int = 2,
        max_body_literals: int = 3,
        allow_negation: bool = True,
        allow_recursion: bool = True,
        allow_builtins: bool = False,
        constants: tuple[str, ...] = ("a", "b"),
) -> Program:
    """Generate a random safe, stratified Datalog program.

    EDB predicates are ``e0..``, IDB predicates ``p0..`` ordered by level;
    the body of a clause for ``p_i`` uses EDB predicates, IDB predicates
    below ``i`` (negatively only those), and optionally ``p_i`` itself
    positively (recursion).  Every clause passes the real safety checker.

    Args:
        rng: Randomness source (seed it for reproducibility).
        n_edb: Number of EDB predicates (arity 1 or 2, chosen per pred).
        n_idb: Number of IDB predicates.
        max_clauses_per_pred: Clauses generated per IDB predicate (>= 1).
        max_body_literals: Positive body literals per clause (>= 1).
        allow_negation: Permit one negative literal per clause.
        allow_recursion: Permit self-recursive positive literals.
        allow_builtins: Permit one builtin literal per clause — a ``!=``
            filter over bound variables or a ``=`` binding a fresh
            variable (usable in the head), the non-numeric shapes that
            work over u-constant domains.
        constants: Pool of u-constants occasionally used as arguments.
    """
    arities = {f"e{i}": rng.choice((1, 2)) for i in range(n_edb)}
    for i in range(n_idb):
        arities[f"p{i}"] = rng.choice((1, 2))
    variables = [Var(f"X{i}") for i in range(4)]

    def random_args(arity: int, pool: list[Var]) -> tuple:
        args = []
        for _ in range(arity):
            if rng.random() < 0.15:
                args.append(Const(rng.choice(constants)))
            else:
                args.append(rng.choice(pool))
        return tuple(args)

    def draft_clause(level: int) -> Clause:
        head_pred = f"p{level}"
        positives = []
        candidates = [f"e{i}" for i in range(n_edb)]
        candidates += [f"p{j}" for j in range(level)]
        if allow_recursion and rng.random() < 0.4:
            candidates.append(head_pred)
        for _ in range(rng.randrange(1, max_body_literals + 1)):
            pred = rng.choice(candidates)
            positives.append(
                Literal(Atom(pred, random_args(arities[pred], variables))))
        body = list(positives)
        used_vars = sorted(
            {v for lit in positives for v in lit.vars},
            key=lambda v: v.name)
        if allow_negation and level > 0 and used_vars \
                and rng.random() < 0.4:
            neg_pred = f"p{rng.randrange(level)}"
            args = tuple(rng.choice(used_vars)
                         for _ in range(arities[neg_pred]))
            body.append(Literal(Atom(neg_pred, args), positive=False))
        if allow_builtins and used_vars and rng.random() < 0.5:
            if rng.random() < 0.5:
                body.append(Literal(Atom("!=", (rng.choice(used_vars),
                                                rng.choice(used_vars)))))
            else:
                fresh = Var("Z0")
                body.append(Literal(Atom("=", (fresh,
                                               rng.choice(used_vars)))))
                used_vars = used_vars + [fresh]
        if used_vars:
            head_args = tuple(rng.choice(used_vars)
                              for _ in range(arities[head_pred]))
        else:
            head_args = tuple(Const(rng.choice(constants))
                              for _ in range(arities[head_pred]))
        return Clause(Atom(head_pred, head_args), tuple(body))

    clauses = []
    for level in range(n_idb):
        for _ in range(rng.randrange(1, max_clauses_per_pred + 1)):
            for _attempt in range(20):
                draft = draft_clause(level)
                try:
                    check_clause(draft)
                except SafetyError:
                    continue
                clauses.append(draft)
                break
    return Program(tuple(clauses), name="random_program")


def random_edb(program: Program, rng: random.Random,
               domain: tuple[str, ...] = ("a", "b", "c"),
               max_rows: int = 6) -> Database:
    """A random database for a program's input predicates."""
    db = Database(udomain=domain)
    for pred in sorted(program.input_predicates):
        arity = program.arity(pred)
        relation = Relation(arity)
        for _ in range(rng.randrange(max_rows + 1)):
            relation.add(tuple(rng.choice(domain) for _ in range(arity)))
        db.add_relation(pred, relation, replace=True)
    return db


def random_idlog_program(rng: random.Random,
                         base: Optional[Program] = None,
                         **kwargs) -> Program:
    """A random IDLOG program: a stratified base plus ID-literal clauses.

    Adds 1–2 clauses of the shape ``q_k(...) :- p_j[group](..., tid)``
    over the base program's IDB predicates, with tids either the constant
    0 or a bounded variable — the shapes §3.3/§4 use.
    """
    program = base or random_stratified_program(rng, **kwargs)
    clauses = list(program.clauses)
    idb = sorted(program.head_predicates)
    variables = [Var(f"Y{i}") for i in range(3)]
    for k in range(rng.randrange(1, 3)):
        target = rng.choice(idb)
        arity = program.arity(target)
        group = frozenset(
            i for i in range(1, arity + 1) if rng.random() < 0.5)
        args = tuple(variables[i % len(variables)] for i in range(arity))
        tid_var = Var("T")
        if rng.random() < 0.5:
            id_atom = Atom(target, args + (Const(0),), group)
            body: tuple[Literal, ...] = (Literal(id_atom),)
        else:
            id_atom = Atom(target, args + (tid_var,), group)
            bound = Const(rng.choice((1, 2)))
            body = (Literal(id_atom),
                    Literal(Atom("<", (tid_var, bound))))
        head_args = tuple(dict.fromkeys(args))  # distinct vars, in order
        clauses.append(Clause(Atom(f"q{k}", head_args), body))
    return Program(tuple(clauses), name="random_idlog")
