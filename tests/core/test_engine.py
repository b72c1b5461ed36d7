"""Tests for the IDLOG engine: evaluation, sampling, answer enumeration,
group limits, and the paper's worked examples."""

import pytest

from repro.core.assignment import (CanonicalAssignment, OracleAssignment,
                                   RandomAssignment)
from repro.core.engine import IdlogEngine
from repro.core.program import IdlogProgram, compute_tid_limits
from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.errors import EvaluationError, SchemaError

EMP = Database.from_facts({"emp": [
    ("ann", "toys"), ("bob", "toys"), ("cal", "toys"),
    ("dee", "it"), ("eli", "it")]})

SELECT_ONE = "select_emp(N) :- emp[2](N, D, 0)."
SELECT_TWO = "select_two_emp(N) :- emp[2](N, D, T), T < 2."


class TestTidLimits:
    def test_constant_tid(self):
        limits = compute_tid_limits(parse_program(SELECT_ONE))
        assert limits == {("emp", frozenset({2})): 1}

    def test_lt_bound(self):
        limits = compute_tid_limits(parse_program(SELECT_TWO))
        assert limits == {("emp", frozenset({2})): 2}

    def test_le_bound(self):
        limits = compute_tid_limits(parse_program(
            "s(N) :- emp[2](N, D, T), T <= 2."))
        assert limits[("emp", frozenset({2}))] == 3

    def test_reversed_gt_bound(self):
        limits = compute_tid_limits(parse_program(
            "s(N) :- emp[2](N, D, T), 2 > T."))
        assert limits[("emp", frozenset({2}))] == 2

    def test_eq_bound(self):
        limits = compute_tid_limits(parse_program(
            "s(N) :- emp[2](N, D, T), T = 1."))
        assert limits[("emp", frozenset({2}))] == 2

    def test_unbounded_occurrence_poisons(self):
        limits = compute_tid_limits(parse_program("""
            s(N) :- emp[2](N, D, 0).
            t(N, T) :- emp[2](N, D, T).
        """))
        assert limits[("emp", frozenset({2}))] is None

    def test_max_over_occurrences(self):
        limits = compute_tid_limits(parse_program("""
            s(N) :- emp[2](N, D, 0).
            t(N) :- emp[2](N, D, T), T < 3.
        """))
        assert limits[("emp", frozenset({2}))] == 3

    def test_multiple_bounds_take_min(self):
        limits = compute_tid_limits(parse_program(
            "s(N) :- emp[2](N, D, T), T < 5, T < 2."))
        assert limits[("emp", frozenset({2}))] == 2


class TestSingleModel:
    def test_canonical_repeatable(self):
        engine = IdlogEngine(SELECT_ONE)
        assert engine.query(EMP, "select_emp") == \
            engine.query(EMP, "select_emp")

    def test_one_per_department(self):
        engine = IdlogEngine(SELECT_ONE)
        for seed in range(5):
            sample = engine.one(EMP, seed=seed).tuples("select_emp")
            assert len(sample) == 2  # one from toys, one from it

    def test_two_per_department(self):
        engine = IdlogEngine(SELECT_TWO)
        for seed in range(5):
            sample = engine.one(EMP, seed=seed).tuples("select_two_emp")
            assert len(sample) == 4
            assert ("dee",) in sample and ("eli",) in sample

    def test_oracle_assignment_pins_model(self):
        fn = {("toys",): [("cal", "toys"), ("ann", "toys"), ("bob", "toys")],
              ("it",): [("eli", "it"), ("dee", "it")]}
        oracle = OracleAssignment({("emp", frozenset({2})): fn})
        engine = IdlogEngine(SELECT_ONE)
        assert engine.query(EMP, "select_emp", oracle) == {
            ("cal",), ("eli",)}

    def test_oracle_missing_pair_errors(self):
        oracle = OracleAssignment({})
        engine = IdlogEngine(SELECT_ONE)
        with pytest.raises(EvaluationError):
            engine.query(EMP, "select_emp", oracle)

    def test_random_seeded_reproducible(self):
        engine = IdlogEngine(SELECT_ONE)
        a = engine.run(EMP, RandomAssignment(42)).tuples("select_emp")
        b = engine.run(EMP, RandomAssignment(42)).tuples("select_emp")
        assert a == b

    def test_group_limit_reduces_materialization(self):
        limited = IdlogEngine(SELECT_ONE, use_group_limits=True)
        full = IdlogEngine(SELECT_ONE, use_group_limits=False)
        s1 = limited.run(EMP).stats
        s2 = full.run(EMP).stats
        assert s1.id_tuples == 2      # one tuple per department
        assert s2.id_tuples == 5      # the whole ID-relation
        assert limited.query(EMP, "select_emp", CanonicalAssignment()) == \
            full.query(EMP, "select_emp", CanonicalAssignment())

    def test_rejects_choice_program(self):
        with pytest.raises(SchemaError):
            IdlogEngine("p(X) :- q(X, Y), choice((X), (Y)).")

    def test_plain_datalog_still_works(self):
        engine = IdlogEngine("""
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
        """)
        db = Database.from_facts({"edge": [("a", "b"), ("b", "c")]})
        assert engine.query(db, "path") == {
            ("a", "b"), ("b", "c"), ("a", "c")}


class TestAnswerEnumeration:
    def test_one_per_department_answer_set(self):
        engine = IdlogEngine(SELECT_ONE)
        answers = engine.answers(EMP, "select_emp")
        # 3 choices in toys x 2 choices in it
        assert len(answers) == 6
        for answer in answers:
            assert len(answer) == 2

    def test_two_per_department_answer_set(self):
        engine = IdlogEngine(SELECT_TWO)
        answers = engine.answers(EMP, "select_two_emp")
        # C(3,2) unordered pairs from toys x C(2,2) from it
        assert len(answers) == 3
        for answer in answers:
            assert len(answer) == 4

    def test_example2_man_woman(self):
        """Paper Example 2: man(r) = {∅, {a}, {b}, {a,b}}."""
        engine = IdlogEngine("""
            sex_guess(X, male) :- person(X).
            sex_guess(X, female) :- person(X).
            man(X) :- sex_guess[1](X, male, 1).
            woman(X) :- sex_guess[1](X, female, 1).
        """)
        db = Database.from_facts({"person": [("a",), ("b",)]})
        expected = {frozenset(), frozenset({("a",)}), frozenset({("b",)}),
                    frozenset({("a",), ("b",)})}
        assert engine.answers(db, "man") == expected
        assert engine.answers(db, "woman") == expected

    def test_example2_man_woman_complementary(self):
        """In each single model, man and woman partition person."""
        engine = IdlogEngine("""
            sex_guess(X, male) :- person(X).
            sex_guess(X, female) :- person(X).
            man(X) :- sex_guess[1](X, male, 1).
            woman(X) :- sex_guess[1](X, female, 1).
        """)
        db = Database.from_facts({"person": [("a",), ("b",)]})
        joint = engine.answer_relations(db, ("man", "woman"))
        assert len(joint) == 4
        for man, woman in joint:
            assert man | woman == {("a",), ("b",)}
            assert not (man & woman)

    def test_deterministic_query_single_answer(self):
        engine = IdlogEngine("""
            all_depts(D) :- emp[2](N, D, 0).
        """)
        answers = engine.answers(EMP, "all_depts")
        assert answers == {frozenset({("toys",), ("it",)})}

    def test_answers_dedup_assignments(self):
        # 5! = 120 assignments but only 5 distinct answers.
        engine = IdlogEngine("first(N) :- emp[](N, D, 0).")
        answers = engine.answers(EMP, "first")
        assert len(answers) == 5

    def test_budget_exceeded(self):
        engine = IdlogEngine("t(N, D, T) :- emp[2](N, D, T).",
                             use_group_limits=False)
        with pytest.raises(EvaluationError):
            engine.answers(EMP, "t", max_branches=3)

    def test_count_models_with_limits(self):
        engine = IdlogEngine(SELECT_ONE)
        # P(3,1) * P(2,1) = 6 distinct prefixes instead of 3! * 2! = 12.
        assert engine.count_models(EMP) == 6

    def test_count_models_without_limits(self):
        engine = IdlogEngine(SELECT_ONE, use_group_limits=False)
        assert engine.count_models(EMP) == 12

    def test_sampled_answer_in_answer_set(self):
        engine = IdlogEngine(SELECT_TWO)
        answers = engine.answers(EMP, "select_two_emp")
        for seed in range(10):
            assert engine.one(EMP, seed=seed).tuples("select_two_emp") \
                in answers

    def test_chained_id_predicates(self):
        """ID-relations over IDB predicates computed in lower strata."""
        engine = IdlogEngine("""
            pair(X, Y) :- p(X), p(Y).
            chosen(X, Y) :- pair[1](X, Y, 0).
        """)
        db = Database.from_facts({"p": [("a",), ("b",)]})
        answers = engine.answers(db, "chosen")
        # For each X one arbitrary Y: 2 choices for a x 2 for b.
        assert len(answers) == 4
        for answer in answers:
            assert len(answer) == 2

    def test_same_id_pair_used_twice_consistent(self):
        """One interpretation assigns ONE ID-relation per ID-predicate."""
        engine = IdlogEngine("""
            f(N) :- emp[](N, D, T), T = 0.
            g(N) :- emp[](N, D, T), T = 0.
            agree(N) :- f(N), g(N).
        """)
        answers = engine.answers(EMP, "agree")
        # f and g must pick the SAME first employee, so agree is never empty.
        assert all(len(a) == 1 for a in answers)
        assert len(answers) == 5

    def test_id_atom_negated(self):
        engine = IdlogEngine("""
            first(N) :- emp[2](N, D, 0).
            rest(N) :- emp(N, D), not first(N).
        """)
        answers = engine.answers(EMP, "rest")
        for answer in answers:
            assert len(answer) == 3  # 5 employees minus one per dept


class TestProgramValidation:
    def test_unstratified_id_recursion(self):
        from repro.errors import StratificationError
        with pytest.raises(StratificationError):
            IdlogProgram.compile("p(X) :- p[1](X, N).")

    def test_restrict_to(self):
        compiled = IdlogProgram.compile("""
            a(X) :- e(X).
            b(X) :- a[1](X, N).
            c(X) :- f(X).
        """)
        restricted = compiled.restrict_to("b")
        assert "c" not in restricted.program.predicates

    def test_input_output_predicates(self):
        compiled = IdlogProgram.compile("s(N) :- emp[2](N, D, 0).")
        assert compiled.input_predicates == {"emp"}
        assert compiled.output_predicates == {"s"}

    def test_genericity_constants(self):
        compiled = IdlogProgram.compile(
            "man(X) :- sex_guess[1](X, male, 1).")
        assert compiled.genericity_constants() == {"male"}


class TestAnswerProbabilities:
    def test_probabilities_sum_to_one(self):
        from fractions import Fraction
        engine = IdlogEngine(SELECT_ONE)
        probabilities = engine.answer_probabilities(EMP, "select_emp")
        assert sum(probabilities.values()) == Fraction(1)

    def test_uniform_over_selections(self):
        """One-per-department sampling: every selection equally likely."""
        from fractions import Fraction
        engine = IdlogEngine(SELECT_ONE)
        probabilities = engine.answer_probabilities(EMP, "select_emp")
        assert len(probabilities) == 6
        assert set(probabilities.values()) == {Fraction(1, 6)}

    def test_example2_probabilities(self):
        """Each person's guess is a fair coin: man = {a,b} has prob 1/4."""
        from fractions import Fraction
        engine = IdlogEngine("""
            sex_guess(X, male) :- person(X).
            sex_guess(X, female) :- person(X).
            man(X) :- sex_guess[1](X, male, 1).
        """)
        db = Database.from_facts({"person": [("a",), ("b",)]})
        probabilities = engine.answer_probabilities(db, "man")
        assert probabilities[frozenset({("a",), ("b",)})] == Fraction(1, 4)
        assert probabilities[frozenset()] == Fraction(1, 4)
        assert sum(probabilities.values()) == 1

    def test_deterministic_query_certain(self):
        from fractions import Fraction
        engine = IdlogEngine("all_depts(D) :- emp[2](N, D, 0).")
        probabilities = engine.answer_probabilities(EMP, "all_depts")
        assert probabilities == {
            frozenset({("toys",), ("it",)}): Fraction(1)}

    def test_group_limit_preserves_probabilities(self):
        """Prefix classes partition the full space evenly, so the limited
        and unlimited enumerations give identical probabilities."""
        limited = IdlogEngine(SELECT_ONE, use_group_limits=True)
        full = IdlogEngine(SELECT_ONE, use_group_limits=False)
        assert limited.answer_probabilities(EMP, "select_emp") == \
            full.answer_probabilities(EMP, "select_emp")

    def test_matches_empirical_distribution(self):
        from repro.core import IdlogQuery
        query = IdlogQuery("pick(X) :- item[](X, 0).", "pick")
        db = Database.from_facts({"item": [("a",), ("b",)]})
        exact = query.engine.answer_probabilities(db, "pick")
        empirical = query.answer_distribution(db, trials=400, seed=9)
        for answer, probability in exact.items():
            observed = empirical.get(answer, 0) / 400
            assert abs(observed - float(probability)) < 0.15
