"""A1 — ablation: semi-naive vs naive fixpoint evaluation.

The substitution table in DESIGN.md justifies semi-naive as "the canonical
evaluation strategy" the paper alludes to; this ablation quantifies what
it buys on recursive workloads (probes grow quadratically for naive on a
chain, linearly-ish for semi-naive).
"""

from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.datalog.seminaive import evaluate
from repro.testing import evaluate_naive

TC = parse_program("""
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
""")


def chain(n):
    return Database.from_facts(
        {"edge": [(f"n{i}", f"n{i+1}") for i in range(n)]})


def test_a1_probe_scaling(table, benchmark):
    rows = []
    for n in (10, 20, 40):
        db = chain(n)
        _, semi = evaluate(TC, db)
        _, naive = evaluate_naive(TC, db)
        assert semi.probes < naive.probes
        rows.append((n, semi.probes, naive.probes,
                     round(naive.probes / semi.probes, 1)))
    table("A1: semi-naive vs naive join probes (chain graph)",
          ["n", "semi-naive", "naive", "ratio"], rows)
    # The advantage grows with recursion depth.
    assert rows[-1][3] > rows[0][3]
    db = chain(40)
    benchmark(lambda: evaluate(TC, db))


def test_a1_naive_baseline(benchmark):
    db = chain(40)
    result, _ = benchmark(lambda: evaluate_naive(TC, db))
    assert len(result.relation("path")) == 40 * 41 // 2


def test_a1_agreement(benchmark):
    db = chain(25)
    semi, _ = evaluate(TC, db)
    naive, _ = benchmark(lambda: evaluate_naive(TC, db))
    assert semi.relation("path").frozen() == naive.relation("path").frozen()


REACH = parse_program("""
    reach(X, Y) :- edge(X, Y), source(X).
    reach(X, Y) :- reach(X, Z), edge(Z, Y).
""")


def reach_db(n):
    db = chain(n)
    db.add_fact("source", (f"n{n - 10}",))
    return db


def test_a1_planner_probes(table, benchmark):
    """Greedy vs cost-based planning on the reachability recursion: the
    greedy order scans every edge before the selective source filter; the
    cost plan starts from the 1-row source relation."""
    rows = []
    for n in (40, 80, 120):
        db = reach_db(n)
        greedy_db, greedy = evaluate(REACH, db, plan="greedy")
        cost_db, cost = evaluate(REACH, db, plan="cost")
        assert greedy_db.relation("reach").frozen() == \
            cost_db.relation("reach").frozen()
        assert 2 * cost.probes <= greedy.probes
        rows.append((n, greedy.probes, cost.probes,
                     round(greedy.probes / cost.probes, 1),
                     f"{cost.plans_built}/{cost.plans_reused}"))
    table("A1: greedy vs cost-based clause planning (reach, selective "
          "source)",
          ["n", "greedy probes", "cost probes", "ratio",
           "plans built/reused"], rows)
    db = reach_db(120)
    benchmark(lambda: evaluate(REACH, db, plan="cost"))
