"""Tests for the benchmark trajectory comparator (benchmarks/compare.py).

The comparator is a script, not a package module; it is loaded here via
importlib so the regression rules (hard counter equality, digest
exemptions, coverage) are unit-testable.
"""

import copy
import importlib.util
import io
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_compare():
    spec = importlib.util.spec_from_file_location(
        "bench_compare", REPO_ROOT / "benchmarks" / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_mod = _load_compare()


def make_report(quick=False, probes=100, digest="abc123"):
    return {
        "schema": 1, "quick": quick,
        "benchmarks": {
            "bench_x": {
                "batch/greedy": {
                    "wall_s": 0.01, "answer_digest": digest,
                    "answer_size": 10, "probes": probes,
                    "iterations": 5, "derived": 42, "firings": 50,
                    "pipelines_compiled": 2, "pipelines_reused": 3,
                },
            },
        },
    }


class TestCompareRules:
    def test_identical_reports_are_clean(self):
        base = make_report()
        problems, notes = compare_mod.compare(base, copy.deepcopy(base))
        assert problems == [] and notes == []

    def test_counter_drift_is_a_regression(self):
        cand = make_report(probes=101)
        problems, _ = compare_mod.compare(make_report(), cand)
        assert len(problems) == 1
        assert "probes 100 -> 101" in problems[0]

    def test_digest_change_is_a_regression(self):
        cand = make_report(digest="fff000")
        problems, _ = compare_mod.compare(make_report(), cand)
        assert any("answer_digest" in p for p in problems)

    def test_nondeterministic_kernel_digest_is_exempt(self):
        base, cand = make_report(), make_report(digest="fff000")
        for report in (base, cand):
            report["benchmarks"]["bench_e4_sampling_one"] = \
                report["benchmarks"].pop("bench_x")
        problems, notes = compare_mod.compare(base, cand)
        assert problems == []
        # The exemption is a documented fallback, flagged as a note.
        assert any("fallback" in n for n in notes)
        # ... unless strict digests are requested.
        problems, _ = compare_mod.compare(base, cand, strict_digests=True)
        assert any("answer_digest" in p for p in problems)

    def test_replay_pinned_record_gets_hard_digest_equality(self):
        base, cand = make_report(), make_report(digest="fff000")
        for report in (base, cand):
            report["benchmarks"]["bench_e4_sampling_one"] = \
                report["benchmarks"].pop("bench_x")
        record = cand["benchmarks"]["bench_e4_sampling_one"]["batch/greedy"]
        record["replay_pinned"] = True
        problems, notes = compare_mod.compare(base, cand)
        assert any("answer_digest" in p for p in problems)
        assert any("replaying the baseline's choice log" in p
                   for p in problems)
        assert not any("fallback" in n for n in notes)

    def test_replay_pinned_matching_digest_is_clean(self):
        base, cand = make_report(), make_report()
        for report in (base, cand):
            report["benchmarks"]["bench_e4_sampling_one"] = \
                report["benchmarks"].pop("bench_x")
        record = cand["benchmarks"]["bench_e4_sampling_one"]["batch/greedy"]
        record["replay_pinned"] = True
        problems, notes = compare_mod.compare(base, cand,
                                              strict_digests=True)
        assert problems == []
        assert not any("fallback" in n for n in notes)

    def test_missing_kernel_and_mode_are_regressions(self):
        cand = copy.deepcopy(make_report())
        del cand["benchmarks"]["bench_x"]["batch/greedy"]
        problems, _ = compare_mod.compare(make_report(), cand)
        assert any("mode batch/greedy missing" in p for p in problems)
        cand["benchmarks"] = {}
        problems, _ = compare_mod.compare(make_report(), cand)
        assert any("missing from candidate" in p for p in problems)

    def test_new_kernel_is_a_note_not_a_problem(self):
        cand = make_report()
        cand["benchmarks"]["bench_new"] = {"batch/greedy": {"wall_s": 1.0}}
        problems, notes = compare_mod.compare(make_report(), cand)
        assert problems == []
        assert any("bench_new" in n for n in notes)


class TestCompareMain:
    def run_main(self, tmp_path, base, cand, *flags):
        base_path = tmp_path / "base.json"
        cand_path = tmp_path / "cand.json"
        base_path.write_text(json.dumps(base))
        cand_path.write_text(json.dumps(cand))
        out = io.StringIO()
        rc = compare_mod.main(
            [str(base_path), str(cand_path), *flags], out=out)
        return rc, out.getvalue()

    def test_clean_pair_exits_zero(self, tmp_path):
        rc, text = self.run_main(tmp_path, make_report(), make_report())
        assert rc == 0
        assert text.startswith("ok:")

    def test_synthetic_regression_exits_nonzero(self, tmp_path):
        rc, text = self.run_main(tmp_path, make_report(),
                                 make_report(probes=999, digest="bad"))
        assert rc == 1
        assert "REGRESSION" in text
        assert "probes 100 -> 999" in text

    def test_quick_flag_mismatch_refused(self, tmp_path):
        rc, _ = self.run_main(tmp_path, make_report(quick=True),
                              make_report(quick=False))
        assert rc == 2


#: Counter drifts a committed history step made on purpose: pr7's a4
#: batch modes really use the batch executor (pr5 fell back to
#: tuple-at-a-time), so its pipeline counters moved.
ACCEPTED_DRIFT = {
    ("BENCH_pr5.json", "BENCH_pr7.json"): (
        "bench_a4_incremental:pipelines_compiled",
        "bench_a4_incremental:pipelines_reused"),
}


class TestCommittedTrajectories:
    """The committed BENCH_*.json history must satisfy its own gate."""

    @pytest.mark.parametrize("base,cand", [
        ("BENCH_pr2.json", "BENCH_pr3.json"),
        ("BENCH_pr3.json", "BENCH_pr4.json"),
        ("BENCH_pr4.json", "BENCH_pr5.json"),
        ("BENCH_pr5.json", "BENCH_pr7.json"),
        ("BENCH_pr7.json", "BENCH_pr8.json"),
        ("BENCH_pr8.json", "BENCH_pr10.json"),
    ])
    def test_history_compares_clean(self, base, cand):
        base_path, cand_path = REPO_ROOT / base, REPO_ROOT / cand
        if not (base_path.exists() and cand_path.exists()):
            pytest.skip(f"{base} / {cand} not present")
        out = io.StringIO()
        # Committed files may come from different machines: counters are
        # machine-independent and enforced exactly.
        args = [str(base_path), str(cand_path)]
        for accepted in ACCEPTED_DRIFT.get((base, cand), ()):
            args += ["--accept", accepted]
        rc = compare_mod.main(args, out=out)
        assert rc == 0, out.getvalue()

    def test_quick_baseline_is_quick(self):
        path = REPO_ROOT / "benchmarks" / "BENCH_quick_baseline.json"
        report = json.loads(path.read_text())
        assert report["quick"] is True
        assert report["schema"] == 1
        assert len(report["benchmarks"]) >= 19

    def test_quick_baseline_embeds_replayable_choice_log(self):
        """The committed baseline must carry the bench_e4 choice log so
        the CI perf gate can replay-pin it (--replay-from)."""
        from repro.core.choicelog import ChoiceLog
        path = REPO_ROOT / "benchmarks" / "BENCH_quick_baseline.json"
        report = json.loads(path.read_text())
        logs = report.get("choice_logs", {})
        assert "bench_e4_sampling_one" in logs
        log = ChoiceLog.from_jsonable(logs["bench_e4_sampling_one"])
        assert len(log) > 0
        assert log.answers  # answer snapshot for end-to-end verification
        # The recorded digest must match the baseline's own e4 record:
        # the log *is* the run the baseline timed.
        assert report["benchmarks"]["bench_e4_sampling_one"][
            "batch/greedy"]["answer_size"] == sum(
                len(rows) for rows in log.answers.values())

    def test_quick_baseline_carries_plan_quality(self):
        """Since PR 10 the committed quick baseline measures estimate
        quality, so the CI q-error ceiling actually engages."""
        path = REPO_ROOT / "benchmarks" / "BENCH_quick_baseline.json"
        report = json.loads(path.read_text())
        gated = [(kernel, mode)
                 for kernel, modes in report["benchmarks"].items()
                 for mode, rec in modes.items()
                 if isinstance(rec, dict) and rec.get("plan_quality")]
        assert len(gated) >= 10, gated
        kernel, mode = gated[0]
        block = report["benchmarks"][kernel][mode]["plan_quality"]
        assert block["median_q_error"] >= 1.0
        assert block["clauses"]


def with_plan_quality(report, median=1.5, maximum=3.0):
    report = copy.deepcopy(report)
    record = report["benchmarks"]["bench_x"]["batch/greedy"]
    record["plan_quality"] = {
        "schema": 1, "median_q_error": median, "max_q_error": maximum,
        "misestimates": 0, "misestimate_threshold": 4.0,
        "plan_drifts": 0, "clauses": [{"clause": "p(X) :- q(X)."}],
    }
    return report


class TestPlanQualityGate:
    """The estimated-vs-actual q-error ceiling (compare_plan_quality)."""

    def test_stable_median_is_clean_and_noted(self):
        base = with_plan_quality(make_report())
        problems, notes = compare_mod.compare(base, copy.deepcopy(base))
        assert problems == []
        assert any("plan quality: median q-error gated on 1 record(s)"
                   in n for n in notes)

    def test_worsened_median_is_a_regression(self):
        base = with_plan_quality(make_report(), median=1.5)
        cand = with_plan_quality(make_report(), median=3.1)
        problems, _ = compare_mod.compare(base, cand)
        assert len(problems) == 1
        assert "median q-error 1.5 -> 3.1" in problems[0]
        assert "drifted from executed actuals" in problems[0]

    def test_tolerance_flag_widens_the_ceiling(self):
        base = with_plan_quality(make_report(), median=1.5)
        cand = with_plan_quality(make_report(), median=3.1)
        problems, _ = compare_mod.compare(base, cand,
                                          q_error_tolerance=3.0)
        assert problems == []

    def test_lost_estimate_capture_is_a_regression(self):
        base = with_plan_quality(make_report())
        problems, _ = compare_mod.compare(base, make_report())
        assert any("estimate capture lost" in p for p in problems)

    def test_pre_pr10_baseline_is_a_noop(self):
        # Trajectories before estimate capture carry no blocks; a
        # candidate that adds them must not trip the gate.
        problems, notes = compare_mod.compare(
            make_report(), with_plan_quality(make_report()))
        assert problems == []
        assert not any("plan quality" in n for n in notes)

    def test_main_flag_reaches_the_gate(self, tmp_path):
        runner = TestCompareMain()
        base = with_plan_quality(make_report(), median=1.5)
        cand = with_plan_quality(make_report(), median=3.1)
        rc, text = runner.run_main(tmp_path, base, cand)
        assert rc == 1 and "median q-error" in text
        rc, text = runner.run_main(tmp_path, base, cand,
                                   "--q-error-tolerance", "3.0")
        assert rc == 0
