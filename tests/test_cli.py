"""Tests for the command-line interface and the EXPLAIN renderer."""

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.datalog.explain import explain_program

PROGRAM = """
    select_two_emp(Name) :- emp[2](Name, Dept, N), N < 2.
"""

FACTS = """
    emp(ann, toys).
    emp(bob, toys).
    emp(dee, it).
"""

CHOICE_PROGRAM = """
    select_emp(N) :- emp(N, D), choice((D), (N)).
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.dl"
    path.write_text(PROGRAM)
    return str(path)


@pytest.fixture
def facts_file(tmp_path):
    path = tmp_path / "facts.dl"
    path.write_text(FACTS)
    return str(path)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCheck:
    def test_valid_program(self, program_file):
        code, output = run_cli("check", program_file)
        assert code == 0
        assert "ok: 1 clauses" in output
        assert "emp[2]" in output

    def test_unsafe_program(self, tmp_path):
        path = tmp_path / "bad.dl"
        path.write_text("p(X, Y) :- q(X).")
        code, _ = run_cli("check", str(path))
        assert code == 1

    def test_missing_file(self):
        code, _ = run_cli("check", "/nonexistent/prog.dl")
        assert code == 2

    def test_choice_program_reported(self, tmp_path):
        path = tmp_path / "choice.dl"
        path.write_text(CHOICE_PROGRAM)
        code, output = run_cli("check", str(path))
        assert code == 0
        assert "choice operator" in output


class TestExplain:
    def test_plan_rendered(self, program_file):
        code, output = run_cli("explain", program_file)
        assert code == 0
        assert "tid < 2" in output
        assert "builtin, pattern bb" in output

    def test_choice_translated_first(self, tmp_path):
        path = tmp_path / "choice.dl"
        path.write_text(CHOICE_PROGRAM)
        code, output = run_cli("explain", str(path))
        assert code == 0
        assert "Theorem 2" in output
        assert "choice_sel_1" in output

    def test_cost_explain_with_facts(self, program_file, facts_file):
        code, output = run_cli("explain", program_file, "-f", facts_file)
        assert code == 0
        assert "(plan=cost)" in output
        assert "est cost" in output

    def test_plan_flag_without_facts(self, program_file):
        code, output = run_cli("explain", program_file, "--plan", "greedy")
        assert code == 0
        assert "(plan=greedy)" in output
        assert "all relations assumed empty" in output


class TestRun:
    def test_canonical_run(self, program_file, facts_file):
        code, output = run_cli("run", program_file, "-f", facts_file)
        assert code == 0
        assert "select_two_emp:" in output
        assert "dee" in output

    def test_one_mode_seeded(self, program_file, facts_file):
        _, first = run_cli("run", program_file, "-f", facts_file,
                           "--mode", "one", "--seed", "5")
        _, second = run_cli("run", program_file, "-f", facts_file,
                            "--mode", "one", "--seed", "5")
        assert first == second

    def test_answers_mode(self, program_file, facts_file):
        code, output = run_cli("run", program_file, "-f", facts_file,
                               "--mode", "answers")
        assert code == 0
        assert "possible answer" in output

    def test_stats_flag(self, program_file, facts_file):
        _, output = run_cli("run", program_file, "-f", facts_file,
                            "--stats")
        assert "stats: derived=" in output
        assert "plans_built=" in output

    def test_plan_flag_same_answers(self, program_file, facts_file):
        _, greedy = run_cli("run", program_file, "-f", facts_file)
        code, cost = run_cli("run", program_file, "-f", facts_file,
                             "--plan", "cost")
        assert code == 0
        assert cost == greedy

    def test_plan_flag_noted_for_choice_programs(self, tmp_path,
                                                 facts_file):
        path = tmp_path / "choice.dl"
        path.write_text(CHOICE_PROGRAM)
        code, output = run_cli("run", str(path), "-f", facts_file,
                               "--plan", "cost")
        assert code == 0
        assert "--plan applies to Datalog/IDLOG evaluation" in output

    def test_query_selection(self, program_file, facts_file):
        code, output = run_cli("run", program_file, "-f", facts_file,
                               "-q", "select_two_emp")
        assert code == 0
        _, err_output = run_cli("run", program_file, "-f", facts_file,
                                "-q", "nonexistent")

    def test_unknown_query_errors(self, program_file, facts_file):
        code, _ = run_cli("run", program_file, "-f", facts_file,
                          "-q", "nope")
        assert code == 1

    def test_choice_program_runs(self, tmp_path, facts_file):
        path = tmp_path / "choice.dl"
        path.write_text(CHOICE_PROGRAM)
        code, output = run_cli("run", str(path), "-f", facts_file,
                               "--mode", "answers")
        assert code == 0
        assert "2 possible answer(s)" in output

    def test_facts_file_with_rules_rejected(self, program_file, tmp_path):
        path = tmp_path / "notfacts.dl"
        path.write_text("p(X) :- q(X).")
        code, _ = run_cli("run", program_file, "-f", str(path))
        assert code == 1

    def test_no_facts_runs_on_empty_db(self, program_file):
        code, output = run_cli("run", program_file)
        assert code == 0
        assert "0 tuple(s)" in output


class TestExplainRenderer:
    def test_negation_annotated(self):
        text = explain_program("""
            linked(X) :- edge(X, Y).
            lone(X) :- node(X), not linked(X).
        """)
        assert "anti-join" in text
        assert "strata: 2" in text

    def test_plain_program_no_id_section(self):
        text = explain_program("p(X) :- q(X).")
        assert "id-predicates" not in text

    def test_facts_rendered(self):
        text = explain_program("p(a).")
        assert "(fact)" in text

    def test_index_probe_annotation(self):
        text = explain_program("p(X, Y) :- q(X, Z), r(Z, Y).")
        # The second literal joins on the bound Z: an index probe.
        assert "index probe" in text


class TestLintCommand:
    def test_findings_printed(self, tmp_path):
        path = tmp_path / "lintme.dl"
        path.write_text("all_depts(D) :- emp(N, D).")
        code, output = run_cli("lint", str(path))
        assert code == 0
        assert "W01" in output  # singleton N
        assert "H01" in output  # existential argument hint

    def test_no_hints_flag(self, tmp_path):
        path = tmp_path / "lintme.dl"
        path.write_text("all_depts(D) :- emp(N, D).")
        _, output = run_cli("lint", str(path), "--no-hints")
        assert "H01" not in output

    def test_clean_program(self, tmp_path):
        path = tmp_path / "clean.dl"
        path.write_text("p(X, Y) :- q(X, Y).")
        code, output = run_cli("lint", str(path))
        assert code == 0


class TestCheckSignatures:
    def test_signatures_printed(self, tmp_path):
        path = tmp_path / "sig.dl"
        path.write_text("small(X) :- val(X, N), N < 10.")
        code, output = run_cli("check", str(path))
        assert code == 0
        assert "val/2: ?1" in output

    def test_sort_conflict_fails_check(self, tmp_path):
        path = tmp_path / "conflict.dl"
        path.write_text("p(a).\np(3).")
        code, _ = run_cli("check", str(path))
        assert code == 1


TC_PROGRAM = """
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
"""

TC_FACTS = """
    edge(a, b).
    edge(b, c).
    edge(c, d).
"""


@pytest.fixture
def tc_files(tmp_path):
    prog = tmp_path / "tc.dl"
    prog.write_text(TC_PROGRAM)
    facts = tmp_path / "tc_facts.dl"
    facts.write_text(TC_FACTS)
    return str(prog), str(facts)


class TestProfileCommand:
    def test_table_shape(self, tc_files):
        prog, facts = tc_files
        code, output = run_cli("profile", prog, "-f", facts)
        assert code == 0
        # The golden skeleton of the EXPLAIN ANALYZE table; times vary,
        # structure and counters must not.
        assert "path: 6 tuple(s)" in output
        assert "EXPLAIN ANALYZE" in output
        assert "plan=greedy, wall=" in output
        assert "stratum 0: defines path" in output
        assert "clause" in output and "probes" in output \
            and "pipelines" in output
        assert "path(X, Y) :- edge(X, Z), path(Z, Y)." in output
        assert "path(X, Y) :- edge(X, Y)." in output
        assert output.rstrip().splitlines()[-1].startswith("total: ")

    def test_plan_and_engine_knobs(self, tc_files):
        prog, facts = tc_files
        code, output = run_cli("profile", prog, "-f", facts,
                               "--plan", "cost")
        assert code == 0
        assert "plan=cost, wall=" in output
        # The engine knob was retired with the interpreter.
        args = build_parser().parse_args(["profile", prog, "--plan", "cost"])
        assert not hasattr(args, "engine")
        assert "cost:" in output

    def test_seed_profiles_one_run(self, program_file, facts_file):
        code, output = run_cli("profile", program_file, "-f", facts_file,
                               "--seed", "3")
        assert code == 0
        assert "select_two_emp: 3 tuple(s)" in output
        assert "EXPLAIN ANALYZE" in output

    def test_trace_flag_writes_jsonl(self, tc_files, tmp_path):
        import json
        prog, facts = tc_files
        trace = tmp_path / "out.jsonl"
        code, output = run_cli("profile", prog, "-f", facts,
                               "--trace", str(trace))
        assert code == 0
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert records[0]["event"] == "eval_start"
        assert f"(trace: {len(records)} event(s) written)" in output


class TestRunObservabilityFlags:
    def test_profile_flag_appends_table(self, tc_files):
        prog, facts = tc_files
        code, output = run_cli("run", prog, "-f", facts, "--profile")
        assert code == 0
        assert "path: 6 tuple(s)" in output
        assert output.index("path: 6 tuple(s)") \
            < output.index("EXPLAIN ANALYZE")

    def test_results_identical_with_and_without_tracing(self, tc_files):
        prog, facts = tc_files
        _, plain = run_cli("run", prog, "-f", facts, "--stats")
        _, traced = run_cli("run", prog, "-f", facts, "--stats",
                            "--profile")
        assert traced.startswith(plain)

    def test_trace_flag_on_answers_mode(self, program_file, facts_file,
                                        tmp_path):
        import json
        trace = tmp_path / "answers.jsonl"
        code, output = run_cli("run", program_file, "-f", facts_file,
                               "--mode", "answers",
                               "--trace", str(trace))
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines  # enumeration evaluations were traced
        kinds = {json.loads(line)["event"] for line in lines}
        assert "clause_fire" in kinds


class TestMetricsFlags:
    def test_prometheus_export_matches_stats_counters(self, tc_files,
                                                      tmp_path):
        prog, facts = tc_files
        metrics = tmp_path / "metrics.prom"
        code, output = run_cli("run", prog, "-f", facts, "--stats",
                               "--metrics", str(metrics))
        assert code == 0
        assert f"written to {metrics}" in output
        # Parse the counters out of both outputs: the Prometheus totals
        # must equal the EvalStats the run printed, exactly.
        stats_line = next(line for line in output.splitlines()
                          if line.startswith("stats: "))
        stats = dict(part.split("=") for part in stats_line[7:].split())
        text = metrics.read_text()
        exposed = {}
        for line in text.splitlines():
            if line.startswith("#") or "{" in line:
                continue
            name, value = line.rsplit(" ", 1)
            exposed[name] = float(value)
        assert exposed["idlog_probes_total"] == float(stats["probes"])
        assert exposed["idlog_firings_total"] == float(stats["firings"])
        assert exposed["idlog_derived_tuples_total"] \
            == float(stats["derived"])
        assert "# TYPE idlog_probes_total counter" in text
        assert 'idlog_relation_tuples{predicate="path"} 6' in text

    def test_json_format(self, tc_files, tmp_path):
        import json
        prog, facts = tc_files
        metrics = tmp_path / "metrics.json"
        code, _ = run_cli("run", prog, "-f", facts,
                          "--metrics", str(metrics),
                          "--metrics-format", "json")
        assert code == 0
        snapshot = json.loads(metrics.read_text())
        assert snapshot["schema"] == 1
        names = {m["name"] for m in snapshot["metrics"]}
        assert "idlog_probes_total" in names

    def test_metrics_to_stdout(self, tc_files):
        prog, facts = tc_files
        code, output = run_cli("run", prog, "-f", facts, "--metrics", "-")
        assert code == 0
        assert "# TYPE idlog_evaluations_total counter" in output
        assert 'idlog_evaluations_total{plan="greedy"} 1' in output

    def test_results_unchanged_by_metrics(self, tc_files):
        prog, facts = tc_files
        _, plain = run_cli("run", prog, "-f", facts, "--stats")
        _, with_metrics = run_cli("run", prog, "-f", facts, "--stats",
                                  "--metrics", "-")
        assert with_metrics.startswith(plain)


class TestProgressFlag:
    def test_heartbeats_go_to_stderr(self, tc_files, capsys):
        prog, facts = tc_files
        code, output = run_cli("run", prog, "-f", facts, "--progress")
        assert code == 0
        assert "[progress]" not in output  # stdout stays clean
        err = capsys.readouterr().err
        assert "[progress] eval start" in err
        assert "[progress] eval done" in err


class TestTraceClosedOnError:
    @pytest.fixture
    def failing_run(self, tmp_path):
        # q(1). forces sort i into q while q(X) :- p(X). feeds it sort u:
        # the conflict surfaces mid-evaluation, AFTER events are emitted.
        prog = tmp_path / "conflict.dl"
        prog.write_text("q(X) :- p(X).\nq(1).\n")
        facts = tmp_path / "facts.dl"
        facts.write_text("p(a).\n")
        return str(prog), str(facts)

    def test_partial_trace_survives_evaluation_error(self, failing_run,
                                                     tmp_path):
        import json
        prog, facts = failing_run
        trace = tmp_path / "partial.jsonl"
        code, _ = run_cli("run", prog, "-f", facts, "--trace", str(trace))
        assert code == 1  # the evaluation failed...
        lines = trace.read_text().splitlines()
        assert lines  # ...but the trace was flushed and closed
        records = [json.loads(line) for line in lines]  # all valid JSON
        assert records[0]["event"] == "eval_start"
        assert all(r["schema"] == 1 for r in records)
        # No eval_end: the file shows exactly how far the run got.
        assert all(r["event"] != "eval_end" for r in records)


class TestWhyCommand:
    def test_derivation_tree(self, tc_files):
        prog, facts = tc_files
        code, output = run_cli("why", prog, "path(a, c).", "-f", facts)
        assert code == 0
        assert output.startswith("path(a, c)")
        assert "path(X, Y) :- edge(X, Z), path(Z, Y)." in output
        assert "edge(a, b)   [edb]" in output

    def test_goal_without_period(self, tc_files):
        prog, facts = tc_files
        code, _ = run_cli("why", prog, "path(a, b)", "-f", facts)
        assert code == 0

    def test_underivable_fact_errors(self, tc_files):
        prog, facts = tc_files
        code, _ = run_cli("why", prog, "path(d, a).", "-f", facts)
        assert code == 1

    def test_non_ground_goal_rejected(self, tc_files):
        prog, facts = tc_files
        code, _ = run_cli("why", prog, "path(a, Y).", "-f", facts)
        assert code == 1

    def test_idlog_why_with_seed(self, program_file, facts_file):
        # Find a sampled employee under seed 3, then explain it under the
        # same seed: the ID-relations must reproduce the derivation.
        _, output = run_cli("run", program_file, "-f", facts_file,
                            "--mode", "one", "--seed", "3")
        name = next(line.strip() for line in output.splitlines()
                    if line.startswith("  "))
        code, tree = run_cli("why", program_file,
                             f"select_two_emp({name}).",
                             "-f", facts_file, "--seed", "3")
        assert code == 0
        assert "emp[2]" in tree

    def test_choice_program_rejected(self, tmp_path, facts_file):
        path = tmp_path / "choice.dl"
        path.write_text(CHOICE_PROGRAM)
        code, _ = run_cli("why", str(path), "select_emp(ann).",
                          "-f", facts_file)
        assert code == 1


class TestStatsCommand:
    def test_facts_only_report(self, facts_file):
        code, output = run_cli("stats", "-f", facts_file)
        assert code == 0
        assert "facts file" in output
        assert "emp: " in output and "rows=3" in output
        assert "total_rows=3" in output

    def test_evaluated_program_report(self, tc_files):
        prog, facts = tc_files
        code, output = run_cli("stats", prog, "-f", facts)
        assert code == 0
        assert "path: " in output
        assert "rows=6" in output  # transitive closure of the 3-chain
        assert "counters: " in output and "probes=" in output

    def test_json_output(self, tc_files):
        import json
        prog, facts = tc_files
        code, output = run_cli("stats", prog, "-f", facts, "--json")
        assert code == 0
        report = json.loads(output)
        assert report["relations"]["path"]["rows"] == 6
        assert report["counters"]["derived"] > 0
        assert report["total_approx_bytes"] > 0

    def test_directory_report(self, tmp_path, facts_file):
        from repro.cli import _load_facts
        from repro.datalog.storage import save_database
        directory = tmp_path / "snap"
        save_database(_load_facts(facts_file), str(directory))
        code, output = run_cli("stats", "--dir", str(directory))
        assert code == 0
        assert "csv_bytes=" in output
        assert "total_rows=3" in output

    def test_dir_conflicts_with_program(self, tc_files, tmp_path):
        prog, _ = tc_files
        code, _ = run_cli("stats", prog, "--dir", str(tmp_path))
        assert code == 1

    def test_no_source_errors(self):
        code, _ = run_cli("stats")
        assert code == 1


class TestRecordReplay:
    def record(self, program_file, facts_file, tmp_path, *extra):
        log = tmp_path / "run.jsonl"
        code, output = run_cli("run", program_file, "-f", facts_file,
                               "--mode", "one", "--seed", "5",
                               "--record", str(log), *extra)
        return code, output, log

    def test_record_then_replay_round_trip(self, program_file, facts_file,
                                           tmp_path):
        code, recorded_out, log = self.record(program_file, facts_file,
                                              tmp_path)
        assert code == 0
        assert "recorded" in recorded_out and log.exists()
        code, replayed_out = run_cli("run", program_file, "-f", facts_file,
                                     "--replay", str(log))
        assert code == 0
        assert "answers match the recorded run" in replayed_out
        # The answer block itself is byte-identical.
        answers = lambda text: [l for l in text.splitlines()
                                if l.startswith("  ")]
        assert answers(replayed_out) == answers(recorded_out)

    def test_replay_detects_drift(self, program_file, facts_file, tmp_path,
                                  capsys):
        code, _, log = self.record(program_file, facts_file, tmp_path)
        assert code == 0
        drifted = tmp_path / "drifted.dl"
        drifted.write_text(FACTS + "emp(zoe, toys).\n")
        code, _ = run_cli("run", program_file, "-f", str(drifted),
                          "--replay", str(log))
        assert code == 1
        assert "database drifted under emp[2]" in capsys.readouterr().err

    def test_replay_with_edited_answers_fails(self, program_file,
                                              facts_file, tmp_path, capsys):
        code, _, log = self.record(program_file, facts_file, tmp_path)
        assert code == 0
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        lines[-1]["answers"] = {"select_two_emp": [["zzz"]]}
        edited = tmp_path / "edited.jsonl"
        edited.write_text("".join(json.dumps(l) + "\n" for l in lines))
        code, _ = run_cli("run", program_file, "-f", facts_file,
                          "--replay", str(edited))
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: replayed answers for select_two_emp differ")

    def test_malformed_log_is_a_typed_error(self, program_file, facts_file,
                                            tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"event":"id_choice","pred":"emp"}\n')
        code, _ = run_cli("run", program_file, "-f", facts_file,
                          "--replay", str(bad))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: choice log event 1: id_choice field")
        assert "Traceback" not in err

    def test_canonical_mode_records_too(self, program_file, facts_file,
                                        tmp_path):
        log = tmp_path / "canonical.jsonl"
        code, _ = run_cli("run", program_file, "-f", facts_file,
                          "--record", str(log))
        assert code == 0
        code, output = run_cli("run", program_file, "-f", facts_file,
                               "--replay", str(log))
        assert code == 0
        assert "answers match" in output

    def test_record_and_replay_mutually_exclusive(self, program_file,
                                                  facts_file, tmp_path,
                                                  capsys):
        log = tmp_path / "x.jsonl"
        code, _ = run_cli("run", program_file, "-f", facts_file,
                          "--record", str(log), "--replay", str(log))
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_record_refused_on_answers_mode(self, program_file, facts_file,
                                            tmp_path, capsys):
        code, _ = run_cli("run", program_file, "-f", facts_file,
                          "--mode", "answers",
                          "--record", str(tmp_path / "x.jsonl"))
        assert code == 1
        assert "enumerates every run" in capsys.readouterr().err

    def test_record_refused_on_choice_program(self, tmp_path, facts_file,
                                              capsys):
        prog = tmp_path / "choice.dl"
        prog.write_text(CHOICE_PROGRAM)
        code, _ = run_cli("run", str(prog), "-f", facts_file,
                          "--record", str(tmp_path / "x.jsonl"))
        assert code == 1
        assert "translate the choice program first" in capsys.readouterr().err

    def test_failed_validation_leaves_no_artifacts(self, program_file,
                                                   facts_file, tmp_path):
        log = tmp_path / "x.jsonl"
        trace = tmp_path / "t.jsonl"
        code, _ = run_cli("run", program_file, "-f", facts_file,
                          "--mode", "answers", "--record", str(log),
                          "--trace", str(trace))
        assert code == 1
        assert not log.exists() and not trace.exists()


class TestDivergeCommand:
    def record_seeded(self, program_file, facts_file, tmp_path, seed, name):
        log = tmp_path / name
        code, _ = run_cli("run", program_file, "-f", facts_file,
                          "--mode", "one", "--seed", str(seed),
                          "--record", str(log))
        assert code == 0
        return str(log)

    def test_identical_runs_exit_zero(self, program_file, facts_file,
                                      tmp_path):
        a = self.record_seeded(program_file, facts_file, tmp_path, 5, "a.jsonl")
        b = self.record_seeded(program_file, facts_file, tmp_path, 5, "b.jsonl")
        code, output = run_cli("diverge", a, b)
        assert code == 0
        assert "identical" in output

    def test_diverging_runs_exit_one_and_name_the_site(self, program_file,
                                                       facts_file, tmp_path):
        a = self.record_seeded(program_file, facts_file, tmp_path, 5, "a.jsonl")
        for seed in range(6, 30):
            b = self.record_seeded(program_file, facts_file, tmp_path,
                                   seed, "b.jsonl")
            code, output = run_cli("diverge", a, b)
            if code == 1:
                break
        else:  # pragma: no cover - would mean all seeds agree
            pytest.fail("no diverging seed found")
        assert "first divergent choice" in output
        assert "emp[2]" in output
        assert "a.jsonl" in output and "b.jsonl" in output

    def test_unreadable_log_is_a_usage_error(self, tmp_path):
        missing = str(tmp_path / "nope.jsonl")
        code, _ = run_cli("diverge", missing, missing)
        assert code == 2  # OSError, same as any missing input file


class TestMetricsWrittenOnError:
    @pytest.fixture
    def failing_run(self, tmp_path):
        # Same mid-evaluation sort conflict as TestTraceClosedOnError.
        prog = tmp_path / "conflict.dl"
        prog.write_text("q(X) :- p(X).\nq(1).\n")
        facts = tmp_path / "facts.dl"
        facts.write_text("p(a).\n")
        return str(prog), str(facts)

    def test_partial_metrics_survive_evaluation_error(self, failing_run,
                                                      tmp_path):
        prog, facts = failing_run
        metrics = tmp_path / "partial.prom"
        code, _ = run_cli("run", prog, "-f", facts,
                          "--metrics", str(metrics))
        assert code == 1  # the evaluation failed...
        text = metrics.read_text()
        assert text  # ...but the metrics were still flushed
        assert "# HELP idlog_" in text and "# TYPE idlog_" in text


class TestEvalCommand:
    def test_list_names_the_suite(self):
        code, output = run_cli("eval", "--list")
        assert code == 0
        assert "zipf-stratified-k2" in output
        assert "man-woman-ab" in output
        assert "[slow]" in output  # slow tag surfaced

    def test_only_filter(self):
        code, output = run_cli("eval", "--list", "--only", "zipf")
        assert code == 0
        assert "zipf-stratified-k2" in output
        assert "man-woman-ab" not in output

    def test_only_without_match_is_an_error(self):
        code, _ = run_cli("eval", "--only", "no-such-scenario")
        assert code == 1

    def test_single_scenario_runs_and_passes(self):
        code, output = run_cli("eval", "--only", "chain-reach")
        assert code == 0
        assert "EVAL REPORT" in output
        assert "PASS" in output
        assert "differential" in output

    def test_quick_suite_writes_schema_stamped_report(self, tmp_path):
        out_path = tmp_path / "report.json"
        code, output = run_cli("eval", "--quick", "--out", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["schema"] == 1
        assert data["kind"] == "eval_report"
        assert data["complete"] is True
        assert data["summary"]["failed"] == 0
        assert data["meta"]["quick"] is True
        # slow-tagged scenarios are excluded from the quick profile
        assert "zipf-large-k3" not in {c["scenario"] for c in data["cases"]}
        assert str(out_path) in output

    def test_report_to_stdout(self):
        code, output = run_cli("eval", "--only", "subset", "--out", "-",
                               "--no-differential")
        assert code == 0
        data = json.loads(output)
        assert data["kind"] == "eval_report"

    def test_engine_plan_restriction(self, tmp_path):
        out_path = tmp_path / "r.json"
        code, _ = run_cli("eval", "--only", "chain-reach",
                          "--plan", "cost", "--out", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        # one plan case plus the differential case against the oracle
        assert [c["plan"] for c in data["cases"]] == ["cost",
                                                      "differential"]
        # plans are the only axis of the matrix
        args = build_parser().parse_args(["eval", "--plan", "cost"])
        assert not hasattr(args, "engine")

    def test_failing_suite_exits_nonzero(self, tmp_path, monkeypatch):
        from repro.eval.scenario import ExactAnswer, Scenario
        from repro.workloads import chain_graph
        broken = Scenario(
            name="broken", description="always fails",
            program="reach(X, Y) :- edge(X, Y).",
            workload=lambda: chain_graph(2),
            queries=("reach",),
            assertions=(ExactAnswer([("ghost", "ghost")]),))
        monkeypatch.setattr("repro.eval.builtin_suite", lambda: [broken])
        out_path = tmp_path / "fail.json"
        code, output = run_cli("eval", "--out", str(out_path))
        assert code == 1
        assert "FAIL" in output
        data = json.loads(out_path.read_text())
        assert data["summary"]["failed"] > 0

    def test_partial_report_flushed_on_crash(self, tmp_path, monkeypatch):
        """The regression: a crash mid-suite (not a mere assertion
        failure) still leaves a valid schema-stamped partial report at
        --out, matching the run --trace/--metrics contract."""
        from repro.eval.scenario import Assertion, Scenario
        from repro.workloads import chain_graph

        class Die(Assertion):
            name = "die"

            def check(self, ctx):
                raise KeyboardInterrupt  # escapes case isolation

        def scenario(name, assertions=()):
            return Scenario(
                name=name, description="", queries=("reach",),
                program="reach(X, Y) :- edge(X, Y).",
                workload=lambda: chain_graph(2),
                assertions=tuple(assertions))

        monkeypatch.setattr(
            "repro.eval.builtin_suite",
            lambda: [scenario("first"), scenario("dies", [Die()])])
        out_path = tmp_path / "partial.json"
        with pytest.raises(KeyboardInterrupt):
            run_cli("eval", "--no-differential", "--plan", "greedy",
                    "--out", str(out_path))
        data = json.loads(out_path.read_text())
        assert data["schema"] == 1
        assert data["complete"] is False
        assert {c["scenario"] for c in data["cases"]} == {"first"}


class TestPlansCommand:
    """repro-idlog plans: plan-quality report from a recorded trace."""

    @pytest.fixture
    def traced(self, tc_files, tmp_path):
        prog, facts = tc_files
        trace = tmp_path / "tc_trace.jsonl"
        code, _ = run_cli("profile", prog, "-f", facts,
                          "--trace", str(trace))
        assert code == 0
        return str(trace)

    def test_ranks_clauses_from_trace(self, traced):
        code, output = run_cli("plans", traced)
        assert code == 0
        assert f"plan quality: {traced}" in output
        assert "span event(s))" in output
        assert "median q-err" in output and "max q-err" in output
        assert "misestimate(s) at threshold 4" in output
        # The ranked table: header plus one row per clause, worst first.
        assert "q-err" in output and "est probes" in output \
            and "clause" in output
        assert "path(X, Y) :- edge(X, Z), path(Z, Y)." in output
        assert "path(X, Y) :- edge(X, Y)." in output
        lines = [l for l in output.splitlines() if " :- " in l]
        worsts = [float(l.split()[0].rstrip("!")) for l in lines]
        assert worsts == sorted(worsts, reverse=True)

    def test_limit_truncates_with_note(self, traced):
        code, output = run_cli("plans", traced, "--limit", "1")
        assert code == 0
        assert sum(" :- " in l for l in output.splitlines()) == 1
        assert "more clause(s); --limit raises the cut" in output

    @pytest.mark.parametrize("bad, message", [
        ("not json", "not valid JSON"),
        ('{"round": 1}', "no 'event' field"),
        ('{"event": "round", "schema": 99}', "schema 99"),
    ])
    def test_bad_line_is_named(self, traced, tmp_path, capsys, bad,
                               message):
        lines = open(traced).read().splitlines()
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines[:2] + [bad] + lines[2:]) + "\n")
        code, _ = run_cli("plans", str(broken))
        assert code == 1
        err = capsys.readouterr().err
        assert f"{broken}:3: " in err and message in err

    def test_trace_without_estimates(self, traced, tmp_path):
        stripped = tmp_path / "stageless.jsonl"
        records = [json.loads(line) for line in open(traced)]
        for record in records:
            record.pop("stages", None)
        stripped.write_text("".join(json.dumps(r) + "\n" for r in records))
        code, output = run_cli("plans", str(stripped))
        assert code == 0
        assert "no estimate-bearing clause executions" in output

    def test_bad_jsonl_reports_line(self, tmp_path):
        path = tmp_path / "mangled.jsonl"
        path.write_text('{"event": "eval_start"}\nnot json\n')
        code, output = run_cli("plans", str(path))
        assert code == 1
        assert output == ""  # error goes to the structured log, not out

    def test_non_span_record_rejected(self, tmp_path):
        path = tmp_path / "plain.jsonl"
        path.write_text('{"rows": 3}\n')
        code, _ = run_cli("plans", str(path))
        assert code == 1

    def test_missing_source_is_an_error(self):
        code, output = run_cli("plans")
        assert code == 1
        assert output == ""

    def test_limit_must_be_positive(self, traced):
        code, _ = run_cli("plans", traced, "--limit", "0")
        assert code == 1

    def test_bad_server_target_rejected(self):
        code, _ = run_cli("plans", "--server", "noport")
        assert code == 1


class TestTopQErrColumn:
    """The top table's q-err cell folds a ring-buffer roll-up."""

    def test_fmt_q_err_cells(self):
        from repro.cli import _fmt_q_err
        assert _fmt_q_err(None) == "-"
        assert _fmt_q_err({}) == "-"
        assert _fmt_q_err({"max_q_error": 7.25, "misestimates": 0}) \
            == "7.2"
        assert _fmt_q_err({"max_q_error": 50.5, "misestimates": 2}) \
            == "50.5!"
