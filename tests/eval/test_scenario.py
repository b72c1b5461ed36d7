"""Tests for the scenario/assertion vocabulary (repro.eval.scenario)."""

import pytest

from repro import workloads
from repro.eval.report import AssertionResult
from repro.eval.scenario import (AnswerInvariant, AnswerSetEquals,
                                 ChoiceStability, ExactAnswer,
                                 GroupCardinality, PerfEnvelope, Scenario,
                                 ScenarioContext, SelectionSpec,
                                 UniformSelection)


def emp_blocks(db):
    blocks = {}
    for name, dept in db.relation("emp"):
        blocks.setdefault((dept,), []).append((name, dept))
    return {key: tuple(sorted(items)) for key, items in blocks.items()}


def sample_scenario(k=2, per_dept=4, departments=3, seeds=tuple(range(25))):
    spec = SelectionSpec(
        blocks=emp_blocks,
        selected=lambda result, db: list(result.tuples("sample")),
        k=k)
    return Scenario(
        name="unit-sample",
        description="k-per-dept sampling for unit tests",
        program=f"sample(N, D) :- emp[2](N, D, T), T < {k}.",
        workload=lambda: workloads.employees(per_dept, departments, seed=1),
        queries=("sample",),
        assertions=(),
        seeds=seeds,
    ), spec


class BiasedContext(ScenarioContext):
    """A deliberately broken sampler: every 'draw' is the canonical
    (constant) assignment, whatever the seed — the negative control the
    statistical assertions must catch."""

    def sample(self, seed):
        return self.canonical()


class TestScenarioContext:
    def test_caches_database_and_runs(self):
        scenario, _ = sample_scenario()
        ctx = ScenarioContext(scenario)
        assert ctx.db is ctx.db
        assert ctx.canonical() is ctx.canonical()
        assert ctx.sample(3) is ctx.sample(3)
        assert ctx.sample(3) is not ctx.sample(4)

    def test_record_returns_fresh_log(self):
        scenario, _ = sample_scenario()
        ctx = ScenarioContext(scenario)
        result_a, log_a = ctx.record(5)
        result_b, log_b = ctx.record(5)
        assert log_a is not log_b
        assert log_a.digest() == log_b.digest()
        assert result_a.tuples("sample") == result_b.tuples("sample")


class TestExactAnswer:
    def test_pass_and_fail(self):
        scenario, _ = sample_scenario()
        ctx = ScenarioContext(scenario)
        expected = ctx.canonical().tuples("sample")
        assert ExactAnswer(expected).check(ctx).passed
        result = ExactAnswer(expected | {("ghost", "dept9")}).check(ctx)
        assert not result.passed
        assert "missing" in result.detail

    def test_callable_expected(self):
        scenario, _ = sample_scenario()
        ctx = ScenarioContext(scenario)
        assertion = ExactAnswer(
            lambda db: ctx.canonical().tuples("sample"))
        assert assertion.check(ctx).passed


class TestAnswerSetEquals:
    def test_exact_answer_set(self):
        scenario = Scenario(
            name="unit-subset", description="",
            program="""
                guess(X, yes) :- person(X).
                guess(X, no) :- person(X).
                subset(X) :- guess[1](X, yes, 1).
            """,
            workload=lambda: workloads.people(3),
            queries=("subset",), assertions=())
        ctx = ScenarioContext(scenario)
        from itertools import combinations
        names = [f"p{i}" for i in range(3)]
        all_subsets = [
            [(x,) for x in combo]
            for size in range(4) for combo in combinations(names, size)]
        assert AnswerSetEquals(lambda db: all_subsets).check(ctx).passed
        missing_one = AnswerSetEquals(lambda db: all_subsets[:-1])
        assert not missing_one.check(ctx).passed


class TestAnswerInvariant:
    def test_reports_failing_seed(self):
        scenario, _ = sample_scenario(seeds=(0, 1, 2))
        ctx = ScenarioContext(scenario)
        seen = []

        def predicate(result, db):
            seen.append(len(result.tuples("sample")))
            return "boom" if len(seen) == 3 else None

        result = AnswerInvariant("probe", predicate).check(ctx)
        assert not result.passed
        assert "seed 1" in result.detail  # canonical + seed0 passed

    def test_passes_over_all_runs(self):
        scenario, _ = sample_scenario(seeds=(0, 1))
        ctx = ScenarioContext(scenario)
        result = AnswerInvariant("ok", lambda r, db: None).check(ctx)
        assert result.passed
        assert result.measurements["runs"] == 3


class TestGroupCardinality:
    def test_exactly_k_holds(self):
        scenario, spec = sample_scenario(k=2)
        ctx = ScenarioContext(scenario)
        result = GroupCardinality(spec).check(ctx)
        assert result.passed
        assert result.measurements["blocks"] == 3

    def test_small_groups_contribute_everything(self):
        """k larger than a group: the whole group is selected."""
        scenario, spec = sample_scenario(k=5, per_dept=3)
        ctx = ScenarioContext(scenario)
        assert GroupCardinality(spec).check(ctx).passed

    def test_wrong_k_detected(self):
        scenario, spec = sample_scenario(k=2)
        wrong = SelectionSpec(blocks=spec.blocks, selected=spec.selected,
                              k=3)
        ctx = ScenarioContext(scenario)
        result = GroupCardinality(wrong).check(ctx)
        assert not result.passed
        assert "expected 3" in result.detail

    def test_foreign_item_detected(self):
        scenario, spec = sample_scenario(k=2)
        polluted = SelectionSpec(
            blocks=spec.blocks,
            selected=lambda r, db: list(r.tuples("sample"))
            + [("ghost", "dept9")],
            k=2)
        ctx = ScenarioContext(scenario)
        result = GroupCardinality(polluted).check(ctx)
        assert not result.passed
        assert "outside every block" in result.detail


class TestUniformSelection:
    def test_uniform_sampler_accepted(self):
        scenario, spec = sample_scenario(k=2, seeds=tuple(range(40)))
        ctx = ScenarioContext(scenario)
        result = UniformSelection(spec).check(ctx)
        assert result.passed, result.detail
        assert result.measurements["trials"] == 40

    def test_biased_sampler_rejected(self):
        """Acceptance negative control: the constant sampler fails the
        chi-square tolerance check decisively."""
        scenario, spec = sample_scenario(k=2, seeds=tuple(range(40)))
        ctx = BiasedContext(scenario)
        result = UniformSelection(spec).check(ctx)
        assert not result.passed
        assert result.measurements["p_value"] < 1e-12

    def test_refuses_too_few_seeds(self):
        from repro.errors import ReproError
        scenario, spec = sample_scenario(seeds=tuple(range(5)))
        ctx = ScenarioContext(scenario)
        with pytest.raises(ReproError, match=">= 20 seeds"):
            UniformSelection(spec).check(ctx)


class TestChoiceStability:
    def test_stable_sampler_passes(self):
        scenario, _ = sample_scenario()
        ctx = ScenarioContext(scenario)
        result = ChoiceStability().check(ctx)
        assert result.passed, result.detail

    def test_constant_sampler_flagged(self):
        """Every seed drawing identical choices (over a big space) is a
        broken sampler, not luck."""
        scenario, _ = sample_scenario(per_dept=6, departments=4)
        ctx = BiasedContext(scenario)

        class ConstantContext(BiasedContext):
            def record(self, seed):
                log_result = ScenarioContext.record(self, 0)
                return log_result

        result = ChoiceStability().check(ConstantContext(scenario))
        assert not result.passed
        assert "constant" in result.detail

    def test_no_id_atoms_trivially_stable(self):
        scenario = Scenario(
            name="unit-datalog", description="",
            program="reach(X, Y) :- edge(X, Y).",
            workload=lambda: workloads.chain_graph(3),
            queries=("reach",), assertions=())
        result = ChoiceStability().check(ScenarioContext(scenario))
        assert result.passed
        assert "trivially" in result.detail


class TestPerfEnvelope:
    def test_within_envelope(self):
        scenario, _ = sample_scenario()
        ctx = ScenarioContext(scenario)
        result = PerfEnvelope(max_wall_s=60.0, max_derived=10_000).check(ctx)
        assert result.passed
        assert result.measurements["derived"] > 0

    def test_derived_bound_violated(self):
        scenario, _ = sample_scenario()
        ctx = ScenarioContext(scenario)
        result = PerfEnvelope(max_derived=1).check(ctx)
        assert not result.passed
        assert "derived" in result.detail

    def test_firings_bound_violated(self):
        scenario, _ = sample_scenario()
        ctx = ScenarioContext(scenario)
        result = PerfEnvelope(max_firings=0).check(ctx)
        assert not result.passed


class TestAssertionResultShape:
    def test_as_dict_round_trips_json(self):
        import json
        result = AssertionResult("x", True, "ok", {"n": 1})
        assert json.loads(json.dumps(result.as_dict()))["name"] == "x"
