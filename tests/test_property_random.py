"""Differential property tests over randomly generated programs.

These cross-check independent implementations on the same inputs:
semi-naive batch evaluation (under both planning modes) vs the naive
oracle, bottom-up vs top-down tabling, pretty-printer vs parser,
optimizer output vs original, magic rewriting vs direct evaluation, and
IDLOG sampling vs answer enumeration.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IdlogEngine
from repro.datalog.ast import Atom
from repro.datalog.engine import DatalogEngine
from repro.datalog.parser import parse_program
from repro.datalog.pretty import to_source
from repro.datalog.seminaive import evaluate
from repro.datalog.stratify import stratify
from repro.datalog.terms import Var
from repro.datalog.topdown import TopDownEngine
from repro.optimizer import magic_rewrite, optimize
from repro.testing import (evaluate_naive, oracle_answers, oracle_model,
                           random_edb, random_idlog_program,
                           random_stratified_program)

seeds = st.integers(min_value=0, max_value=10_000)


class TestGeneratorSanity:
    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_generated_programs_compile(self, seed):
        rng = random.Random(seed)
        program = random_stratified_program(rng)
        DatalogEngine(program)  # validates safety + stratification

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_generated_idlog_programs_compile(self, seed):
        rng = random.Random(seed)
        program = random_idlog_program(rng)
        IdlogEngine(program)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_level_discipline(self, seed):
        rng = random.Random(seed)
        program = random_stratified_program(rng)
        strat = stratify(program)
        for clause in program.clauses:
            for literal in clause.body:
                if literal.atom.is_builtin:
                    continue
                if literal.positive:
                    assert strat.level[literal.atom.pred] <= \
                        strat.level[clause.head.pred]
                else:
                    assert strat.level[literal.atom.pred] < \
                        strat.level[clause.head.pred]


class TestDifferential:
    @given(seeds, seeds)
    @settings(max_examples=40, deadline=None)
    def test_seminaive_equals_naive(self, pseed, dseed):
        rng = random.Random(pseed)
        program = random_stratified_program(rng)
        db = random_edb(program, random.Random(dseed))
        semi, _ = evaluate(program, db)
        naive, _ = evaluate_naive(program, db)
        for pred in program.head_predicates:
            assert semi.relation(pred).frozen() == \
                naive.relation(pred).frozen()

    @given(seeds, seeds)
    @settings(max_examples=40, deadline=None)
    def test_cost_plan_equals_naive(self, pseed, dseed):
        """Harder shapes for the cost planner: long bodies + negation."""
        rng = random.Random(pseed)
        program = random_stratified_program(
            rng, n_edb=3, n_idb=3, max_body_literals=4)
        db = random_edb(program, random.Random(dseed))
        cost, _ = evaluate(program, db, plan="cost")
        naive, _ = evaluate_naive(program, db)
        for pred in program.head_predicates:
            assert cost.relation(pred).frozen() == \
                naive.relation(pred).frozen()

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_parser_roundtrip(self, seed):
        rng = random.Random(seed)
        program = random_idlog_program(rng)
        assert parse_program(to_source(program)) == \
            Program_with_default_name(program)

    @given(seeds, seeds)
    @settings(max_examples=25, deadline=None)
    def test_optimizer_preserves_canonical_answers(self, pseed, dseed):
        """Theorem 4 over generated programs: the §4 rewrite keeps the
        canonical answer (and a few random-assignment answers) intact."""
        rng = random.Random(pseed)
        program = random_stratified_program(rng, allow_negation=False)
        query = sorted(program.head_predicates)[-1]
        result = optimize(program, query)
        db = random_edb(result.original, random.Random(dseed))
        original = IdlogEngine(result.original).query(db, query)
        optimized_engine = IdlogEngine(result.optimized)
        assert optimized_engine.query(db, query) == original
        for sample_seed in (0, 1, 2):
            sampled = optimized_engine.one(db, seed=sample_seed)
            assert sampled.tuples(query) == original

    @given(seeds, seeds)
    @settings(max_examples=25, deadline=None)
    def test_magic_rewrite_equals_direct(self, pseed, dseed):
        rng = random.Random(pseed)
        program = random_stratified_program(
            rng, allow_negation=False)
        query = sorted(program.head_predicates)[-1]
        db = random_edb(program, random.Random(dseed))
        direct = DatalogEngine(program).query(db, query)
        arity = program.arity(query)
        # A goal binding the first argument to a domain constant.
        head_vars = ", ".join(["a"] + [f"V{i}" for i in range(arity - 1)])
        goal = f"{query}({head_vars})"
        rewritten = magic_rewrite(program, goal)
        expected = frozenset(r for r in direct if r[0] == "a")
        assert rewritten.answer(db) == expected

    @given(seeds, seeds)
    @settings(max_examples=15, deadline=None)
    def test_idlog_samples_within_answer_sets(self, pseed, dseed):
        rng = random.Random(pseed)
        program = random_idlog_program(
            rng, n_edb=1, n_idb=2, max_body_literals=2)
        engine = IdlogEngine(program)
        db = random_edb(program, random.Random(dseed), max_rows=3)
        targets = [p for p in ("q0", "q1")
                   if p in program.head_predicates]
        for pred in targets:
            answers = engine.answers(db, pred, max_branches=50_000)
            for sample_seed in (0, 1):
                assert engine.one(db, seed=sample_seed).tuples(pred) \
                    in answers


class TestFiveWayDifferential:
    """Every engine configuration computes the oracle's perfect model: the
    batch engine under both plans and the top-down tabling engine must
    equal ``evaluate_naive`` (naive rounds of the tuple-at-a-time
    ``evaluate_clause``), and the batch runs must report the oracle's
    relation growth in ``stats.derived``.  Probe/firing accounting is
    checked clause by clause in tests/datalog/test_executor.py."""

    N_PROGRAMS = 200

    def check_program(self, seed, **gen_kwargs):
        rng = random.Random(seed)
        program = random_stratified_program(rng, **gen_kwargs)
        db = random_edb(program, random.Random(seed + 10_000))
        naive, naive_stats = evaluate_naive(program, db)
        top_down = TopDownEngine(program)
        runs = {plan: evaluate(program, db, plan=plan)
                for plan in ("greedy", "cost")}
        for plan, (_, stats) in runs.items():
            assert stats.derived == naive_stats.derived, (seed, plan)
        for pred in sorted(program.head_predicates):
            expected = naive.relation(pred).frozen()
            for plan, (result, _) in runs.items():
                assert result.relation(pred).frozen() == expected, \
                    (seed, pred, plan)
            goal = Atom(pred, tuple(Var(f"Q{i}")
                                    for i in range(program.arity(pred))))
            assert top_down.query(db, goal) == expected, \
                (seed, pred, "top-down")

    def test_all_engines_agree(self):
        for seed in range(self.N_PROGRAMS):
            self.check_program(seed)

    def test_all_engines_agree_with_builtins(self):
        """The corpus again, now with ``=``/``!=`` builtin literals."""
        for seed in range(100):
            self.check_program(seed + 500_000, allow_builtins=True,
                               max_body_literals=4)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_all_engines_agree_fuzzed(self, seed):
        """Hypothesis extension beyond the fixed 200-seed corpus."""
        self.check_program(seed)


class TestBatchIdlogDifferential:
    """The IDLOG engine vs the oracle on programs with ID-atoms: the
    canonical model and small exhaustive answer sets must match exactly."""

    def test_canonical_runs_agree(self):
        for seed in range(60):
            rng = random.Random(seed)
            program = random_idlog_program(rng)
            db = random_edb(program, random.Random(seed + 20_000),
                            max_rows=4)
            oracle, _ = oracle_model(program, db)
            result = IdlogEngine(program).run(db)
            for pred in sorted(program.head_predicates):
                assert result.tuples(pred) == \
                    oracle.relation(pred).frozen(), (seed, pred)

    def test_answer_sets_agree(self):
        for seed in range(20):
            rng = random.Random(seed)
            program = random_idlog_program(
                rng, n_edb=1, n_idb=2, max_body_literals=2)
            db = random_edb(program, random.Random(seed + 30_000),
                            max_rows=3)
            engine = IdlogEngine(program)
            targets = [p for p in ("q0", "q1")
                       if p in program.head_predicates]
            for pred in targets:
                expected = oracle_answers(program, db, pred,
                                          engine.compiled.tid_limits)
                assert engine.answers(db, pred, max_branches=50_000) \
                    == expected, (seed, pred)


def Program_with_default_name(program):
    """Round-tripping resets the name; compare modulo it."""
    from repro.datalog.ast import Program
    return Program(program.clauses, name="program")
