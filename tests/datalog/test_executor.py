"""Unit tests for the batch-compiled join executor.

The differential property tests (tests/test_property_random.py) cover
whole-program agreement with the naive oracle; these exercise the
executor surface directly — single-clause pipelines against the
tuple-at-a-time ``evaluate_clause``, and the bindings entry point against
``_solve_literals``, with equal rows / bindings in the same order and
equal ``probes`` and ``firings`` — plus the pipeline-cache counters.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.ast import Atom
from repro.datalog.database import Database, Relation
from repro.datalog.executor import BatchExecutor
from repro.datalog.parser import parse_program
from repro.datalog.planner import ClausePlanner
from repro.datalog.pool import GLOBAL_POOL, ConstantPool
from repro.datalog.safety import order_body
from repro.datalog.seminaive import EvalStats, evaluate, prepare_store
from repro.datalog.terms import Var
from repro.errors import EvaluationError
from repro.testing import (_solve_literals, evaluate_clause, evaluate_naive,
                           random_edb, random_stratified_program)


def single_clause(text):
    program = parse_program(text)
    assert len(program.clauses) == 1
    return program, program.clauses[0]


def execute(clause, store, stats, **kwargs):
    """The batch pipeline's head rows, decoded to values."""
    return [GLOBAL_POOL.decode_row(row) for row in
            BatchExecutor().execute_coded(clause, store, stats, **kwargs)]


def run_clause_both(program, clause, db, delta_index=None, delta=None,
                    plan=None):
    """Execute one clause with the batch executor and ``evaluate_clause``
    on identical fresh stores; return (batch rows, oracle rows, stats
    pair), rows in derivation order."""
    outputs = []
    stats_pair = []
    for batch in (True, False):
        stats = EvalStats()
        store = prepare_store(program, db, None, stats)
        planner = ClausePlanner(plan) if plan is not None else None
        kwargs = dict(delta_index=delta_index, delta=delta,
                      planner=planner)
        if batch:
            rows = execute(clause, store, stats, **kwargs)
        else:
            rows = list(evaluate_clause(clause, store, stats, **kwargs))
        outputs.append(rows)
        stats_pair.append(stats)
    return outputs[0], outputs[1], stats_pair


def run_bindings_both(program, order, db, seed=None, overrides=None):
    """Run one literal order through ``execute_bindings`` and
    ``_solve_literals`` on identical fresh stores; return (batch bindings,
    oracle bindings, stats pair), bindings as dicts in enumeration
    order."""
    batch_stats, oracle_stats = EvalStats(), EvalStats()
    store = prepare_store(program, db, None, batch_stats)
    batch = list(BatchExecutor().execute_bindings(
        order, store, batch_stats, seed, overrides))
    store = prepare_store(program, db, None, oracle_stats)
    oracle = list(_solve_literals(order, 0, dict(seed or {}), store,
                                  oracle_stats, overrides or {}))
    return batch, oracle, (batch_stats, oracle_stats)


def run_both(text, facts, delta_index=None, delta=None):
    program, clause = single_clause(text)
    db = Database.from_facts(facts) if facts else Database()
    return run_clause_both(program, clause, db, delta_index, delta)


class TestEngineKnob:
    def test_evaluate_rejects_unknown_engine(self):
        """The retired ``engine=`` knob is an error, not silently
        ignored: every evaluation runs batch pipelines."""
        program = parse_program("p(X) :- q(X).")
        with pytest.raises(TypeError):
            evaluate(program, Database.from_facts({"q": [("a",)]}),
                     engine="batch")


class TestAgainstInterpreter:
    """Hand-picked clause shapes; the oracle is ``evaluate_clause``."""

    def test_simple_scan(self):
        batch, oracle, (bs, os_) = run_both(
            "p(X) :- q(X).", {"q": [("a",), ("b",)]})
        assert batch == oracle == [("a",), ("b",)]
        assert bs.probes == os_.probes

    def test_join(self):
        batch, oracle, (bs, os_) = run_both(
            "p(X, Z) :- e(X, Y), e(Y, Z).",
            {"e": [("a", "b"), ("b", "c"), ("b", "d")]})
        assert batch == oracle == [("a", "c"), ("a", "d")]
        assert bs.probes == os_.probes

    def test_empty_relation_gives_empty_batch(self):
        program, clause = single_clause("p(X) :- q(X), r(X).")
        db = Database()
        db.add_relation("q", Relation(1))
        db.add_relation("r", Relation(1, tuples=[("a",)]))
        stats = EvalStats()
        store = prepare_store(program, db, None, stats)
        assert execute(clause, store, stats) == []
        # The empty scan still charges its floor-of-one probe, and the
        # pipeline stops before probing r.
        assert stats.probes == 1

    def test_repeated_variable_in_atom(self):
        batch, oracle, _ = run_both(
            "p(X) :- e(X, X).",
            {"e": [("a", "a"), ("a", "b"), ("c", "c")]})
        assert batch == oracle == [("a",), ("c",)]

    def test_all_bound_literal(self):
        # After scanning q, every variable of r's atom is bound: the join
        # degenerates to an existence probe on the full-key index.
        batch, oracle, (bs, os_) = run_both(
            "p(X, Y) :- q(X, Y), r(X, Y).",
            {"q": [("a", "b"), ("c", "d")], "r": [("a", "b")]})
        assert batch == oracle == [("a", "b")]
        assert bs.probes == os_.probes

    def test_constants_in_body_and_head(self):
        batch, oracle, _ = run_both(
            "flag(yes) :- emp(N, toys).",
            {"emp": [("ann", "toys"), ("bob", "it")]})
        assert batch == oracle == [("yes",)]

    def test_negation_filter(self):
        batch, oracle, (bs, os_) = run_both(
            "lone(X) :- node(X), not linked(X).",
            {"node": [("a",), ("b",)], "linked": [("a",)]})
        assert batch == oracle == [("b",)]
        assert bs.probes == os_.probes

    def test_builtin_filter(self):
        batch, oracle, _ = run_both(
            "small(X) :- val(X, N), N < 10.",
            {"val": [("a", 5), ("b", 15)]})
        assert batch == oracle == [("a",)]

    def test_builtin_generator_binds_new_variable(self):
        batch, oracle, _ = run_both(
            "s(M) :- pair(A, B), M = A + B.",
            {"pair": [(1, 2), (10, 5)]})
        assert batch == oracle == [(3,), (15,)]

    def test_builtin_enumerating_multiple_solutions(self):
        # +(L, M, N) with only N bound enumerates all decompositions.
        batch, oracle, _ = run_both(
            "p2(X, L, M) :- q(X, N), +(L, M, N).", {"q": [("a", 2)]})
        assert batch == oracle == [("a", 0, 2), ("a", 1, 1), ("a", 2, 0)]

    def test_delta_override(self):
        program, clause = single_clause(
            "path(X, Y) :- edge(X, Z), path(Z, Y).")
        db = Database.from_facts({
            "edge": [("a", "b"), ("b", "c")],
            "path": [("a", "b"), ("b", "c"), ("a", "c")]})
        delta = Relation(2, tuples=[("b", "c")])
        batch, oracle, (bs, os_) = run_clause_both(
            program, clause, db, delta_index=1, delta=delta)
        # Only derivations through the delta tuple ("b", "c").
        assert batch == oracle == [("a", "c")]
        assert bs.probes == os_.probes

    def test_empty_delta_short_circuits(self):
        program, clause = single_clause(
            "path(X, Y) :- edge(X, Z), path(Z, Y).")
        db = Database.from_facts({"edge": [("a", "b")],
                                  "path": [("a", "b")]})
        stats = EvalStats()
        store = prepare_store(program, db, None, stats)
        rows = execute(clause, store, stats, delta_index=1,
                       delta=Relation(2))
        assert rows == []


class TestBindings:
    """The bindings entry point on hand-picked shapes."""

    def test_seeded_bindings(self):
        program, clause = single_clause("p(X, Z) :- e(X, Y), e(Y, Z).")
        db = Database.from_facts(
            {"e": [("a", "b"), ("b", "c"), ("b", "d"), ("a", "c")]})
        seed = clause.head.unify(("a", "c"))
        order = order_body(clause, initially_bound=frozenset(seed))
        batch, oracle, (bs, os_) = run_bindings_both(program, order, db,
                                                     seed)
        assert batch == oracle
        assert [b[Var("Y")] for b in batch] == ["b"]
        assert bs.probes == os_.probes

    def test_unknown_seed_value_matches_nothing_and_is_not_interned(self):
        program, clause = single_clause("p(X) :- q(X).")
        db = Database.from_facts({"q": [("a",)]})
        store = prepare_store(program, db, None, EvalStats())
        seed = {clause.head.args[0]: "never-seen-constant"}
        size = len(GLOBAL_POOL)
        bindings = BatchExecutor().execute_bindings(
            order_body(clause, initially_bound=frozenset(seed)), store,
            EvalStats(), seed)
        assert list(bindings) == []
        assert len(GLOBAL_POOL) == size
        assert "never-seen-constant" not in GLOBAL_POOL

    def test_bindings_decode_on_demand(self, monkeypatch):
        """The joins (and their probes) run at call time; each binding
        is decoded only when the iterator reaches it."""
        program, clause = single_clause("p(X) :- q(X).")
        db = Database.from_facts({"q": [("a",), ("b",), ("c",)]})
        stats = EvalStats()
        store = prepare_store(program, db, None, stats)
        decoded = []
        decode_row = ConstantPool.decode_row
        monkeypatch.setattr(ConstantPool, "decode_row",
                            lambda pool, row: decoded.append(row)
                            or decode_row(pool, row))
        bindings = BatchExecutor().execute_bindings(
            order_body(clause), store, stats)
        probes = stats.probes
        assert probes > 0 and decoded == []
        first = next(bindings)
        assert first[Var("X")] in ("a", "b", "c")
        assert len(decoded) == 1 and stats.probes == probes
        assert len(list(bindings)) == 2 and len(decoded) == 3

    def test_overrides_at_two_positions(self):
        program, clause = single_clause("p(X, Z) :- e(X, Y), e(Y, Z).")
        db = Database.from_facts(
            {"e": [("a", "b"), ("b", "c"), ("b", "b")]})
        pin = Relation(2, tuples=[("b", "b")])
        order = order_body(clause)
        batch, oracle, (bs, os_) = run_bindings_both(
            program, order, db, overrides={0: pin, 1: pin})
        assert batch == oracle
        assert [(b[Var("X")], b[Var("Z")]) for b in batch] == [("b", "b")]
        assert bs.probes == os_.probes


class TestPipelineCache:
    def test_pipelines_cached_per_clause_and_delta(self):
        program = parse_program("""
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
        """)
        db = Database.from_facts(
            {"edge": [("a", "b"), ("b", "c"), ("c", "d")]})
        _, stats = evaluate(program, db)
        assert stats.pipelines_compiled >= 2
        assert stats.pipelines_reused >= 1


class TestErrors:
    def test_unbound_negation_rejected_at_compile(self):
        # The public entry always re-plans, so feed _Pipeline a hostile
        # order directly: the compile-time guard is the defence in depth
        # behind the planner's safety check.
        from repro.datalog.ast import Atom, Clause, Literal
        from repro.datalog.executor import _Pipeline
        from repro.datalog.terms import Var
        neg = Literal(Atom("q", (Var("X"),)), positive=False)
        pos = Literal(Atom("r", (Var("X"),)))
        clause = Clause(Atom("p", (Var("X"),)), (neg, pos))
        with pytest.raises(EvaluationError):
            _Pipeline((neg, pos), clause.head)


class TestRandomClauses:
    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from(("greedy", "cost")))
    @settings(max_examples=40, deadline=None)
    def test_pipeline_matches_evaluate_clause(self, seed, plan):
        """Every clause of a random stratified program (negation +
        builtins), plain and with each recursive literal read from a
        delta: equal rows, probes and firings."""
        program = random_stratified_program(
            random.Random(seed), n_edb=3, n_idb=3, allow_builtins=True)
        db, _ = evaluate_naive(
            program, random_edb(program, random.Random(seed + 1)))
        for clause in program.clauses:
            variants = [(None, None)]
            for i, literal in enumerate(clause.body):
                atom = literal.atom
                if isinstance(atom, Atom) and literal.positive \
                        and atom.pred in program.head_predicates:
                    variants.append((i, db.relation(atom.pred)))
            for delta_index, delta in variants:
                batch, oracle, (bs, os_) = run_clause_both(
                    program, clause, db, delta_index, delta, plan)
                where = (seed, plan, str(clause), delta_index)
                assert batch == oracle, where
                assert bs.probes == os_.probes, where
                assert bs.firings == os_.firings, where

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_bindings_match_solve_literals(self, seed):
        """The bindings entry point on every clause of a random program,
        seeded from the clause's head rows (the provenance / DRed shape)
        and with two positive literals overridden (the counting shape):
        equal bindings in the same order, and equal probes."""
        program = random_stratified_program(
            random.Random(seed), n_edb=3, n_idb=3, allow_builtins=True)
        db, _ = evaluate_naive(
            program, random_edb(program, random.Random(seed + 1)))
        for clause in program.clauses:
            cases = []
            for row in list(db.relation(clause.head.pred))[:3]:
                binding = clause.head.unify(row)
                if binding is not None:
                    order = order_body(
                        clause, initially_bound=frozenset(binding))
                    cases.append((order, binding, None))
            order = order_body(clause)
            joins = [i for i, literal in enumerate(order)
                     if literal.positive and not literal.atom.is_builtin]
            if len(joins) >= 2:
                overrides = {}
                for i in joins[:2]:
                    rows = list(db.relation(order[i].atom.pred))
                    overrides[i] = Relation(
                        len(order[i].atom.args),
                        tuples=rows[:(len(rows) + 1) // 2])
                cases.append((order, None, overrides))
            for order, binding, overrides in cases:
                batch, oracle, (bs, os_) = run_bindings_both(
                    program, order, db, binding, overrides)
                where = (seed, str(clause), binding, overrides)
                assert batch == oracle, where
                assert bs.probes == os_.probes, where
