"""Tests for ScenarioRunner: matrix partitioning, differential cases,
report flushing (repro.eval.runner / repro.eval.report)."""

import io
import json

import pytest

from repro import workloads
from repro.errors import ReproError
from repro.eval.report import EvalReport, format_report
from repro.eval.runner import QUICK_SEEDS, ScenarioRunner, run_suite
from repro.eval.scenario import Assertion, AnswerInvariant, Scenario


class SpyAssertion(Assertion):
    """Records which plan modes it ran under."""

    def __init__(self, name, matrix=True, fail=False, explode=False):
        self.name = name
        self.matrix = matrix
        self._fail = fail
        self._explode = explode
        self.ran_on = []

    def check(self, ctx):
        self.ran_on.append(ctx.plan_mode)
        if self._explode:
            raise RuntimeError("assertion blew up")
        if self._fail:
            return self._fail_result()
        return self._pass("ok")

    def _fail_result(self):
        return super()._fail("forced failure")


def make_scenario(assertions, name="spy", program=None, tags=()):
    return Scenario(
        name=name,
        description="runner unit scenario",
        program=program or "sample(N, D) :- emp[2](N, D, T), T < 2.",
        workload=lambda: workloads.employees(4, 2, seed=3),
        queries=("sample",),
        assertions=tuple(assertions),
        seeds=tuple(range(4)),
        tags=frozenset(tags),
    )


class TestMatrixPartitioning:
    def test_matrix_assertion_runs_everywhere(self):
        spy = SpyAssertion("everywhere", matrix=True)
        report = ScenarioRunner([make_scenario([spy])],
                                differential=False).run()
        assert spy.ran_on == ["greedy", "cost"]
        assert len(report.cases) == 2
        assert report.passed

    def test_non_matrix_assertion_runs_on_primary_only(self):
        spy = SpyAssertion("once", matrix=False)
        runner = ScenarioRunner([make_scenario([spy])], differential=False)
        runner.run()
        assert spy.ran_on == ["greedy"]

    def test_engine_plan_subset(self):
        spy = SpyAssertion("sub", matrix=True)
        runner = ScenarioRunner([make_scenario([spy])], plans=("cost",),
                                differential=False)
        report = runner.run()
        assert spy.ran_on == ["cost"]
        assert len(report.cases) == 1
        # plans are the only axis; the retired engines= axis is rejected
        with pytest.raises(TypeError):
            ScenarioRunner([make_scenario([spy])], engines=("batch",))

    def test_invalid_modes_rejected(self):
        with pytest.raises(ReproError):
            ScenarioRunner([make_scenario([])], plans=("psychic",))


class TestRunnerBehaviour:
    def test_duplicate_names_rejected(self):
        scenarios = [make_scenario([], name="dup"),
                     make_scenario([], name="dup")]
        with pytest.raises(ReproError, match="duplicate scenario"):
            ScenarioRunner(scenarios)

    def test_quick_profile_trims_seeds_and_skips_slow(self):
        fast = make_scenario([], name="fast")
        slow = make_scenario([], name="slow-one", tags=("slow",))
        runner = ScenarioRunner([fast, slow], quick=True,
                                differential=False)
        report = runner.run()
        assert runner.seeds == tuple(range(QUICK_SEEDS))
        assert {c.scenario for c in report.cases} == {"fast"}
        assert report.meta["quick"] is True

    def test_explicit_seeds_override_quick(self):
        runner = ScenarioRunner([make_scenario([])], quick=True,
                                seeds=(7, 8))
        assert runner.seeds == (7, 8)

    def test_assertion_error_becomes_case_error(self):
        boom = SpyAssertion("boom", explode=True)
        report = ScenarioRunner([make_scenario([boom])],
                                plans=("greedy",),
                                differential=False).run()
        (case,) = report.cases
        assert not case.passed
        assert "RuntimeError" in case.error
        assert not report.passed

    def test_failing_assertion_recorded_not_raised(self):
        bad = SpyAssertion("bad", fail=True)
        report = ScenarioRunner([make_scenario([bad])],
                                plans=("greedy",),
                                differential=False).run()
        (case,) = report.cases
        assert case.error is None
        assert not case.passed
        assert report.failures()[0][1].detail == "forced failure"

    def test_progress_callback_sees_every_case(self):
        notes = []
        ScenarioRunner([make_scenario([])],
                       progress=notes.append).run()
        assert len(notes) == 3  # 2 plan cases + differential
        assert any("differential" in n for n in notes)


class TestDifferentialCase:
    def test_emitted_per_scenario(self):
        report = ScenarioRunner([make_scenario([])]).run()
        diff = [c for c in report.cases if c.plan == "differential"]
        assert len(diff) == 1
        (case,) = diff
        names = [a.name for a in case.assertions]
        assert names == ["differential-canonical", "differential-replay"]
        assert case.passed, case.assertions

    def test_pure_datalog_skips_replay_check(self):
        scenario = Scenario(
            name="datalog", description="no ID-atoms",
            program="reach(X, Y) :- edge(X, Y).\n"
                    "reach(X, Z) :- edge(X, Y), reach(Y, Z).",
            workload=lambda: workloads.chain_graph(6),
            queries=("reach",), assertions=())
        report = ScenarioRunner([scenario]).run()
        (diff,) = [c for c in report.cases if c.plan == "differential"]
        assert [a.name for a in diff.assertions] == [
            "differential-canonical"]
        assert diff.passed

    def test_single_plan_still_checked_against_oracle(self):
        report = ScenarioRunner([make_scenario([])],
                                plans=("greedy",)).run()
        (diff,) = [c for c in report.cases if c.plan == "differential"]
        assert diff.passed, diff.assertions
        canonical = diff.assertions[0]
        assert "agree with the oracle" in canonical.detail


class TestReportFlushing:
    def test_report_flushed_on_mid_run_failure(self, tmp_path):
        """The regression: a scenario whose workload explodes mid-suite
        must still leave a valid, schema-stamped partial report."""
        ok = make_scenario([SpyAssertion("fine")], name="ok-one")
        def dead_workload():
            raise OSError("disk gone")

        exploding = Scenario(
            name="kaboom", description="workload dies",
            program="p(X) :- q(X).",
            workload=dead_workload,
            queries=("p",),
            # db is built lazily, so an assertion must touch it for the
            # workload failure to surface
            assertions=(AnswerInvariant("touch", lambda r, db: None),))
        out = str(tmp_path / "partial.json")
        report = ScenarioRunner([ok, exploding],
                                differential=False).run(out)
        # The workload error is contained per-case, so the suite itself
        # completes; the kaboom cases carry the error.
        data = json.loads(open(out).read())
        assert data["kind"] == "eval_report"
        assert data["complete"] is True
        kaboom = [c for c in data["cases"] if c["scenario"] == "kaboom"]
        assert kaboom and all("OSError" in c["error"] for c in kaboom)
        assert not report.passed

    def test_report_flushed_when_runner_itself_dies(self, tmp_path):
        """Even an error *outside* case isolation (e.g. the progress
        callback raising) flushes the partial report in the finally."""
        ok = make_scenario([], name="first")
        second = make_scenario([], name="second")
        calls = []

        def progress(msg):
            calls.append(msg)
            if len(calls) == 3:  # after scenario 'first' finishes
                raise KeyboardInterrupt

        out = str(tmp_path / "aborted.json")
        runner = ScenarioRunner([ok, second], progress=progress)
        with pytest.raises(KeyboardInterrupt):
            runner.run(out)
        data = json.loads(open(out).read())
        assert data["complete"] is False
        assert {c["scenario"] for c in data["cases"]} == {"first"}
        assert data["schema"] == 1

    def test_save_to_file_object(self):
        buffer = io.StringIO()
        run_suite([make_scenario([])], out=buffer,
                  plans=("greedy",), differential=False)
        data = json.loads(buffer.getvalue())
        assert data["kind"] == "eval_report"
        assert data["summary"]["cases"] == 1


class TestReportRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "report.json")
        report = ScenarioRunner([make_scenario([SpyAssertion("x")])],
                                meta={"suite": "unit"}).run(path)
        loaded = EvalReport.load(path)
        assert loaded.complete
        assert loaded.meta["suite"] == "unit"

        def stable(summary):
            # wall_s is rounded per-case at serialization, so the summed
            # total can differ in the last digit across the round trip
            return {k: v for k, v in summary.items() if k != "wall_s"}

        def stable_case(case):
            return {k: v for k, v in case.as_dict().items()
                    if k != "wall_s"}

        assert stable(loaded.summary()) == stable(report.summary())
        assert [stable_case(c) for c in loaded.cases] \
            == [stable_case(c) for c in report.cases]

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999, "kind": "eval_report"}))
        with pytest.raises(ReproError, match="schema"):
            EvalReport.load(str(path))

    def test_load_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 1, "kind": "bench"}))
        with pytest.raises(ReproError, match="not an eval report"):
            EvalReport.load(str(path))

    def test_format_report_mentions_failures(self):
        report = ScenarioRunner([make_scenario(
            [SpyAssertion("bad", fail=True)])],
            plans=("greedy",), differential=False).run()
        text = format_report(report)
        assert "FAIL" in text
        assert "forced failure" in text

    def test_incomplete_report_labelled(self):
        report = EvalReport()
        text = format_report(report)
        assert "incomplete run" in text
