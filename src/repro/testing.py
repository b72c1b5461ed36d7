"""Randomized program/database generators and the reference model for
differential testing.

Exposed as library code (rather than test-internal helpers) so downstream
users can fuzz their own extensions the way this repository's property
tests do: generate a random stratified program, evaluate it under two
implementations (the engine vs :func:`oracle_model`, original vs
optimized, direct vs magic), and compare.

Generation is *correct by construction* where cheap (stratification comes
from a level discipline: a predicate's body only uses lower-or-equal
levels positively and strictly-lower levels negatively) and by rejection
where not (safety is re-checked with the real checker and unsafe drafts
are re-drawn).
"""

from __future__ import annotations

import random
from typing import Optional

from .core.assignment import CanonicalAssignment
from .core.choicelog import ChoiceLog
from .core.engine import ReplayIdProvider, _StrategyIdProvider
from .core.idrelations import enumerate_id_functions, make_id_relation
from .datalog.ast import Atom, Clause, Literal, Program
from .datalog.database import Database, Relation
from .datalog.safety import check_clause
from .datalog.seminaive import EvalStats, evaluate_naive
from .datalog.terms import Const, Var
from .errors import SafetyError


def oracle_model(program: Program, db: Database,
                 log: Optional[ChoiceLog] = None,
                 ) -> tuple[Database, EvalStats]:
    """The reference model of a (possibly IDLOG) program on ``db``.

    :func:`~repro.datalog.seminaive.evaluate_naive` with ID-relations
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
    order :func:`~repro.datalog.seminaive.evaluate_naive` first reads
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
