"""Tests for the bottom-up evaluator: semi-naive vs naive cross-checks,
negation, arithmetic, and instrumentation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.datalog.seminaive import evaluate
from repro.errors import EvaluationError
from repro.testing import evaluate_naive

TC = parse_program("""
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
""")


def run(program_text, facts, pred, **db_kwargs):
    program = parse_program(program_text)
    db = Database.from_facts(facts, **db_kwargs)
    result, _ = evaluate(program, db)
    return result.relation(pred).frozen()


class TestBasics:
    def test_transitive_closure(self):
        db = Database.from_facts({"edge": [("a", "b"), ("b", "c"), ("c", "d")]})
        result, _ = evaluate(TC, db)
        assert result.relation("path").frozen() == {
            ("a", "b"), ("a", "c"), ("a", "d"),
            ("b", "c"), ("b", "d"), ("c", "d")}

    def test_cycle_terminates(self):
        db = Database.from_facts({"edge": [("a", "b"), ("b", "a")]})
        result, _ = evaluate(TC, db)
        assert result.relation("path").frozen() == {
            ("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")}

    def test_facts_in_program(self):
        out = run("""
            edge(a, b).
            edge(b, c).
            reach(X) :- edge(a, X).
            reach(Y) :- reach(X), edge(X, Y).
        """, {"seed": [("s",)]}, "reach")
        assert out == {("b",), ("c",)}

    def test_empty_edb_relation_defaults_empty(self):
        program = parse_program("p(X) :- q(X).")
        result, _ = evaluate(program, Database())
        assert result.relation("p").frozen() == frozenset()

    def test_constants_in_body(self):
        out = run("toy_emp(N) :- emp(N, toys).",
                  {"emp": [("ann", "toys"), ("bob", "it")]}, "toy_emp")
        assert out == {("ann",)}

    def test_constants_in_head(self):
        out = run("flag(yes) :- emp(N, toys).",
                  {"emp": [("ann", "toys")]}, "flag")
        assert out == {("yes",)}

    def test_idb_facts_from_database(self):
        # Facts for a head predicate supplied in the database are kept.
        out = run("p(X) :- q(X).\np(X) :- r(X).",
                  {"q": [("a",)], "p": [("seed",)]}, "p")
        assert out == {("a",), ("seed",)}


class TestNegation:
    def test_stratified_negation(self):
        out = run("""
            linked(X) :- edge(X, Y).
            linked(Y) :- edge(X, Y).
            lone(X) :- node(X), not linked(X).
        """, {"node": [("a",), ("b",), ("z",)], "edge": [("a", "b")]}, "lone")
        assert out == {("z",)}

    def test_double_negation(self):
        out = run("""
            a(X) :- e(X), not b(X).
            b(X) :- f(X).
            c(X) :- e(X), not a(X).
        """, {"e": [("x",), ("y",)], "f": [("x",)]}, "c")
        assert out == {("x",)}

    def test_negation_of_recursive_pred(self):
        out = run("""
            path(X, Y) :- edge(X, Y).
            path(X, Y) :- edge(X, Z), path(Z, Y).
            unreachable(X, Y) :- node(X), node(Y), not path(X, Y).
        """, {"edge": [("a", "b")], "node": [("a",), ("b",)]}, "unreachable")
        assert out == {("a", "a"), ("b", "a"), ("b", "b")}


class TestArithmetic:
    def test_succ_chain(self):
        out = run("""
            count(0) :- start(X).
            count(M) :- count(N), N < 3, succ(N, M).
        """, {"start": [("go",)]}, "count")
        assert out == {(0,), (1,), (2,), (3,)}

    def test_sum_via_infix(self):
        out = run("s(M) :- pair(A, B), M = A + B.",
                  {"pair": [(1, 2), (10, 5)]}, "s")
        assert out == {(3,), (15,)}

    def test_paper_nnb_plus(self):
        """p2(X, N) :- q(X, N), +(L, M, N): finite solutions enumerate."""
        out = run("p2(X, L, M) :- q(X, N), +(L, M, N).",
                  {"q": [("a", 1)]}, "p2")
        assert out == {("a", 0, 1), ("a", 1, 0)}

    def test_comparison_filters(self):
        out = run("small(X) :- val(X, N), N < 10.",
                  {"val": [("a", 5), ("b", 15)]}, "small")
        assert out == {("a",)}

    def test_fib_bounded(self):
        out = run("""
            fib(0, 0) :- go(X).
            fib(1, 1) :- go(X).
            fib(K, F) :- fib(I, A), fib(J, B), succ(I, J), succ(J, K),
                         K <= 10, F = A + B.
        """, {"go": [("x",)]}, "fib")
        assert (10, 55) in out


class TestSemiNaiveAgainstNaive:
    PROGRAMS = [
        """
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- edge(X, Z), path(Z, Y).
        """,
        """
        same_gen(X, X) :- person(X).
        same_gen(X, Y) :- parent(X, PX), parent(Y, PY), same_gen(PX, PY).
        """,
        """
        even(X) :- zero(X).
        odd(Y) :- even(X), next(X, Y).
        even(Y) :- odd(X), next(X, Y).
        """,
    ]

    @pytest.mark.parametrize("text", PROGRAMS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_agreement_on_random_edbs(self, text, data):
        program = parse_program(text)
        names = sorted(program.input_predicates)
        facts = {}
        domain = ["a", "b", "c", "d"]
        for name in names:
            arity = program.arity(name)
            rows = data.draw(st.lists(
                st.tuples(*[st.sampled_from(domain)] * arity), max_size=8))
            if rows:
                facts[name] = rows
        db = Database.from_facts(facts) if facts else Database()
        semi, _ = evaluate(program, db)
        naive, _ = evaluate_naive(program, db)
        for pred in program.head_predicates:
            assert semi.relation(pred).frozen() == naive.relation(pred).frozen()


class TestStats:
    def test_derived_counts(self):
        db = Database.from_facts({"edge": [("a", "b"), ("b", "c")]})
        _, stats = evaluate(TC, db)
        assert stats.derived == {"path": 3}
        assert stats.total_derived == 3
        assert stats.firings >= 3
        assert stats.probes > 0

    def test_merge(self):
        db = Database.from_facts({"edge": [("a", "b")]})
        _, s1 = evaluate(TC, db)
        _, s2 = evaluate(TC, db)
        s1.merge(s2)
        assert s1.derived["path"] == 2

    def test_seminaive_cheaper_than_naive_on_chain(self):
        edges = [(f"n{i}", f"n{i+1}") for i in range(30)]
        db = Database.from_facts({"edge": edges})
        _, semi = evaluate(TC, db)
        _, naive = evaluate_naive(TC, db)
        assert semi.probes < naive.probes

    def test_plan_counters(self):
        # Long enough for two delta rounds, so the compiled delta plan is
        # actually reused (a 2-edge chain converges in one round).
        db = Database.from_facts(
            {"edge": [("a", "b"), ("b", "c"), ("c", "d")]})
        _, stats = evaluate(TC, db)
        assert stats.plans_built >= 1
        assert stats.plans_reused >= 1
        _, merged = evaluate(TC, db)
        merged.merge(stats)
        assert merged.plans_built == 2 * stats.plans_built


class TestProbeAccounting:
    """The probe counter charges one probe per yielded tuple with a floor
    of one per lookup — so empty scans and missed index probes still cost,
    matching the planner's cost model."""

    def test_full_scan_charges_every_row(self):
        program = parse_program("p(X) :- q(X).")
        db = Database.from_facts({"q": [("a",), ("b",), ("c",)]})
        _, stats = evaluate(program, db)
        assert stats.probes == 3

    def test_empty_scan_charges_one(self):
        from repro.datalog.database import Relation
        program = parse_program("p(X) :- q(X).")
        db = Database()
        db.add_relation("q", Relation(1))
        _, stats = evaluate(program, db)
        assert stats.probes == 1

    def test_missed_index_probe_charges_one(self):
        # q yields 2 rows (2 probes); each row probes r's index on X and
        # finds an empty bucket — 1 probe each, not 0.
        program = parse_program("p(X) :- q(X), r(X).")
        db = Database.from_facts({"q": [("a",), ("b",)], "r": [("z",)]})
        _, stats = evaluate(program, db)
        assert stats.probes == 4


class TestErrors:
    def test_id_atom_without_provider(self):
        program = parse_program("s(X) :- emp[2](X, D, 0).")
        db = Database.from_facts({"emp": [("ann", "toys")]})
        with pytest.raises(EvaluationError):
            evaluate(program, db)

    def test_edb_arity_conflict(self):
        program = parse_program("p(X) :- q(X).")
        db = Database.from_facts({"q": [("a", "b")]})
        with pytest.raises(EvaluationError):
            evaluate(program, db)


class TestIterationGuard:
    def test_diverging_arithmetic_guarded(self):
        """times(0, M, 0) holds for every M: without a guard the fixpoint
        never terminates; with one, it raises."""
        program = parse_program("""
            t(N, 0) :- seed(N).
            t(N, M2) :- t(N, M), succ(M, M2).
        """)
        db = Database.from_facts({"seed": [(0,)]})
        with pytest.raises(EvaluationError):
            evaluate(program, db, max_iterations=50)

    def test_guard_permits_terminating_programs(self):
        db = Database.from_facts({"edge": [("a", "b"), ("b", "c")]})
        result, _ = evaluate(TC, db, max_iterations=50)
        assert len(result.relation("path").frozen()) == 3

    def test_engine_threads_guard(self):
        from repro.datalog.engine import DatalogEngine
        engine = DatalogEngine("""
            t(N, 0) :- seed(N).
            t(N, M2) :- t(N, M), succ(M, M2).
        """)
        db = Database.from_facts({"seed": [(0,)]})
        with pytest.raises(EvaluationError):
            engine.run(db, max_iterations=10)


class TestStoreMemoryStats:
    def test_covers_relations_and_id_cache(self):
        from repro.datalog.database import Relation
        from repro.datalog.seminaive import EvalStats, RelationStore

        class _Provider:
            def materialize(self, pred, group, base, stats):
                return Relation(base.arity + 1, tuples=[
                    row + (i,) for i, row in enumerate(sorted(base))])

        store = RelationStore(_Provider(), EvalStats())
        store.install("p", Relation(1, tuples=[("a",), ("b",)]))
        store.install("q", Relation(2, tuples=[("a", "x")]))
        before = store.memory_stats()
        assert before["relations"] == 2
        assert before["total_rows"] == 3
        assert before["id_relations"] == 0 and before["id_rows"] == 0

        store.id_relation("p", frozenset())
        after = store.memory_stats()
        assert after["id_relations"] == 1
        assert after["id_rows"] == 2
        # The cached ID-relation lives only in the store, so it raises
        # the store footprint above the visible-relation total.
        assert after["total_approx_bytes"] > before["total_approx_bytes"]
