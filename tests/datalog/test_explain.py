"""Tests for EXPLAIN rendering (repro.datalog.explain).

Golden-table coverage for :func:`explain_plan` across both planning
modes, with and without a database, plus the plan-quality side of the
renderer: a recorded :class:`~repro.datalog.trace.Profile` annotates
each literal with its executed actuals and q-error, and clauses past
the misestimate threshold are flagged ``MISESTIMATE``.
"""

import pytest

from repro.datalog import Database, TimingTracer, evaluate, parse_program
from repro.datalog.explain import explain_plan, explain_program
from repro.datalog.trace import (ClauseProfile, Profile, StageProfile,
                                 q_error)

SRC = """
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
reach(Y) :- source(X), path(X, Y).
"""

GOLDEN_COST = """\
program: program (plan=cost)
note: cardinalities from the fixpoint on the given database
strata: 1
stratum 0: defines path, reach
  path(X, Y) :-
    edge(X, Y)  [scan, pattern nn, est matches 3, est probes 3]
    => est cost 3 probes
  path(X, Y) :-
    edge(X, Z)  [scan, pattern nn, est matches 3, est probes 3]
    path(Z, Y)  [index probe, pattern bn, est matches 2, est probes 6]
    => est cost 9 probes
    Δ-variant (delta at body position 2): Δpath(Z, Y) -> edge(X, Z)  \
[est cost 12 probes]
  reach(Y) :-
    source(X)  [scan, pattern n, est matches 1, est probes 1]
    path(X, Y)  [index probe, pattern bn, est matches 2, est probes 2]
    => est cost 3 probes
    Δ-variant (delta at body position 2): Δpath(X, Y) -> source(X)  \
[est cost 12 probes]"""


def chain_db():
    return Database.from_facts({
        "edge": [("a", "b"), ("b", "c"), ("c", "d")],
        "source": [("a",)],
    })


class TestGoldenTables:
    def test_cost_plan_with_facts(self):
        assert explain_plan(SRC, chain_db(), plan="cost") == GOLDEN_COST

    def test_greedy_plan_with_facts(self):
        rendered = explain_plan(SRC, chain_db(), plan="greedy")
        # On this fixture greedy picks the same orders; only the header
        # differs — which is exactly what makes the diff readable.
        assert rendered == GOLDEN_COST.replace("(plan=cost)",
                                               "(plan=greedy)")

    def test_without_facts_relations_assumed_empty(self):
        rendered = explain_plan(SRC)
        assert "no database given; all relations assumed empty" in rendered
        assert "est matches 1, est probes 1" in rendered
        # Orders are still rendered even with no cardinalities behind
        # them: one line per body literal, scans before probes.
        assert rendered.index("edge(X, Z)") < rendered.index("path(Z, Y)")

    def test_unknown_plan_mode_rejected(self):
        with pytest.raises(Exception, match="plan"):
            explain_plan(SRC, chain_db(), plan="wat")

    def test_explain_program_structural(self):
        rendered = explain_program(SRC)
        assert "strata: 1" in rendered
        assert "stratum 0: defines path, reach" in rendered
        assert "[index probe, pattern bn]" in rendered


class TestRecordedActuals:
    """explain_plan(profile=...) renders actuals beside the estimates."""

    def recorded(self, plan="cost"):
        tracer = TimingTracer()
        _, stats = evaluate(parse_program(SRC), chain_db(), plan=plan,
                            tracer=tracer)
        return tracer.profile, stats

    def test_actual_annotations_present(self):
        profile, _ = self.recorded()
        rendered = explain_plan(SRC, chain_db(), plan="cost",
                                profile=profile)
        assert "actuals: from recorded profile, summed over " \
               "7 clause execution(s)" in rendered
        assert "{actual rows 3, actual probes 3, q-err 1.0}" in rendered
        assert "{actual 3 probes over 1 call(s), q-err 1.0}" in rendered

    def test_every_base_literal_is_annotated(self):
        profile, _ = self.recorded()
        rendered = explain_plan(SRC, chain_db(), plan="cost",
                                profile=profile)
        for line in rendered.splitlines():
            if "est matches" in line:
                assert "actual rows" in line, line

    def test_clause_tails_sum_to_stats_probes(self):
        profile, stats = self.recorded()
        rendered = explain_plan(SRC, chain_db(), plan="cost",
                                profile=profile)
        actual = sum(
            int(line.split("{actual ")[1].split(" probes")[0])
            for line in rendered.splitlines() if "=> est cost" in line)
        assert actual == stats.probes

    def test_without_profile_no_actuals(self):
        rendered = explain_plan(SRC, chain_db(), plan="cost")
        assert "actual" not in rendered
        assert "MISESTIMATE" not in rendered

    def test_misestimate_flagged(self):
        # A hand-built profile whose estimates missed by 50x: the
        # renderer must flag the clause, whatever the planner now says.
        clause = "path(X, Y) :- edge(X, Y)."
        row = ClauseProfile(clause=clause, stratum=0, calls=2,
                            probes=100, est_probes=2.0, estimated_calls=2)
        row.stages[0] = StageProfile(0, "edge(X, Y)", calls=2,
                                     est_rows=2.0, actual_rows=99,
                                     est_probes=2.0, actual_probes=100)
        profile = Profile()
        profile.clauses[(0, clause)] = row
        rendered = explain_plan(SRC, chain_db(), plan="cost",
                                profile=profile)
        line = next(l for l in rendered.splitlines()
                    if "MISESTIMATE" in l)
        assert f"q-err {q_error(2.0, 100):.1f}" in line
        assert "{actual rows 99, actual probes 100, q-err 33.3}" \
            in rendered
