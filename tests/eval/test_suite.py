"""End-to-end tests of the built-in suite (repro.eval.suite).

These are the differential satellite's teeth: every built-in scenario is
exercised under both plan modes, deterministic queries must agree
exactly with the reference oracle, and non-deterministic ones must
replay one recorded choice log to identical answers under every plan
and through the oracle.
"""

import pytest

from repro.eval.runner import ScenarioRunner
from repro.eval.scenario import PLANS
from repro.eval.suite import builtin_suite


@pytest.fixture(scope="module")
def quick_report():
    """One quick run of the suite under both plans, shared by the
    module (the suite itself caches per-case evaluations)."""
    return ScenarioRunner(builtin_suite(), quick=True).run()


class TestSuiteShape:
    def test_scenario_names_unique_and_documented(self):
        suite = builtin_suite()
        names = [s.name for s in suite]
        assert len(names) == len(set(names))
        assert len(suite) >= 8
        for scenario in suite:
            assert scenario.description, scenario.name
            assert scenario.queries, scenario.name
            assert scenario.assertions, scenario.name

    def test_slow_scenarios_are_tagged(self):
        suite = builtin_suite()
        assert any("slow" in s.tags for s in suite)

    def test_statistical_coverage(self):
        """Skewed-workload sampling scenarios carry statistical checks."""
        suite = {s.name: s for s in builtin_suite()}
        for name in ("zipf-stratified-k2", "mixture-one-rep",
                     "man-woman-ab"):
            kinds = {type(a).__name__ for a in suite[name].assertions}
            assert "UniformSelection" in kinds, name


class TestQuickRunPasses:
    def test_whole_quick_suite_passes(self, quick_report):
        failures = [
            f"{case.scenario} [{case.plan}] "
            f"{assertion.name}: {assertion.detail}"
            for case, assertion in quick_report.failures()]
        assert quick_report.passed, "\n".join(failures)
        assert quick_report.complete

    def test_every_fast_scenario_covers_full_matrix(self, quick_report):
        combos_by_scenario: dict = {}
        for case in quick_report.cases:
            combos_by_scenario.setdefault(case.scenario, set()).add(
                case.plan)
        expected = set(PLANS)
        for scenario, combos in combos_by_scenario.items():
            assert expected <= combos, scenario

    def test_differential_case_per_scenario(self, quick_report):
        """The satellite: the oracle's answers under every plan for
        deterministic queries; identical replayed answers (digest-checked
        choice logs) under every plan and the oracle for
        non-deterministic ones."""
        diff = {case.scenario: case for case in quick_report.cases
                if case.plan == "differential"}
        fast = [s for s in builtin_suite() if "slow" not in s.tags]
        assert set(diff) == {s.name for s in fast}
        for case in diff.values():
            assert case.passed, (case.scenario, case.error)
            names = [a.name for a in case.assertions]
            assert "differential-canonical" in names
        # ID-using scenarios additionally carry the replay cross-check.
        replay_checked = {s for s, c in diff.items()
                         if any(a.name == "differential-replay"
                                for a in c.assertions)}
        assert "zipf-stratified-k2" in replay_checked
        assert "man-woman-ab" in replay_checked
        assert "chain-reach" not in replay_checked  # pure Datalog

    def test_statistical_results_recorded_with_p_values(self, quick_report):
        seen = [
            assertion
            for case in quick_report.cases
            for assertion in case.assertions
            if assertion.name == "uniform-selection"]
        assert len(seen) >= 3
        for assertion in seen:
            assert assertion.passed, assertion.detail
            assert 0.0 <= assertion.measurements["p_value"] <= 1.0
            assert assertion.measurements["trials"] >= 20


@pytest.mark.slow
class TestFullSuite:
    def test_full_suite_with_default_seeds(self):
        report = ScenarioRunner(builtin_suite()).run()
        failures = [
            f"{case.scenario} [{case.plan}] "
            f"{assertion.name}: {assertion.detail}"
            for case, assertion in report.failures()]
        assert report.passed, "\n".join(failures)
        scenarios = {case.scenario for case in report.cases}
        assert "zipf-large-k3" in scenarios
