"""Tests for the observability layer (repro.datalog.trace).

Three properties matter:

1. event streams have the documented shape and ordering;
2. tracing is observation only — results and counters are identical
   with tracing on or off, under every plan;
3. the profile fold and its table rendering agree with the raw
   counters.
"""

import io
import json

import pytest

from repro.core import IdlogEngine
from repro.datalog import (
    CallbackTracer, Database, EvalStats, IncrementalEngine, JsonTracer,
    NullTracer, TeeTracer, TimingTracer, TopDownEngine, current_tracer,
    evaluate, format_profile, parse_program, use_tracer)
from repro.datalog.trace import (CONTEXT_FIELDS, MISESTIMATE_THRESHOLD,
                                 SCHEMA_VERSION, ContextTracer,
                                 q_error, resolve_tracer, worst_q_error)

STRATIFIED = """
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
    lone(X) :- node(X), not path(X, X).
"""


def graph_db():
    return Database.from_facts({
        "edge": [("a", "b"), ("b", "c"), ("c", "a"), ("d", "d")],
        "node": [("a",), ("b",), ("c",), ("d",), ("e",)],
    })


class TestEventStream:
    def test_event_order_on_stratified_program(self):
        tracer = CallbackTracer()
        program = parse_program(STRATIFIED)
        evaluate(program, graph_db(), tracer=tracer)
        kinds = tracer.kinds()

        assert kinds[0] == "eval_start"
        assert kinds[-1] == "eval_end"
        # One stratum span per stratum, properly nested and ordered.
        starts = [i for i, k in enumerate(kinds) if k == "stratum_start"]
        ends = [i for i, k in enumerate(kinds) if k == "stratum_end"]
        assert len(starts) == len(ends) == 2
        assert starts[0] < ends[0] < starts[1] < ends[1]
        # Every clause_fire falls inside a stratum span.
        for i, kind in enumerate(kinds):
            if kind == "clause_fire":
                assert any(s < i < e for s, e in zip(starts, ends))
        # A plan is built before the clause first fires.
        assert kinds.index("plan_built") < kinds.index("clause_fire")

    def test_stratum_events_carry_heads_and_cardinalities(self):
        tracer = CallbackTracer()
        evaluate(parse_program(STRATIFIED), graph_db(), tracer=tracer)
        starts = [e for e in tracer.events if e.kind == "stratum_start"]
        ends = [e for e in tracer.events if e.kind == "stratum_end"]
        assert starts[0].get("heads") == ("path",)
        assert starts[1].get("heads") == ("lone",)
        assert ends[0].get("cardinalities") == {"path": 10}
        assert ends[1].get("cardinalities") == {"lone": 1}
        assert ends[0].get("stratum") == 0

    def test_clause_fire_deltas_sum_to_stats_totals(self):
        tracer = CallbackTracer()
        _, stats = evaluate(parse_program(STRATIFIED), graph_db(),
                            tracer=tracer)
        fires = [e for e in tracer.events if e.kind == "clause_fire"]
        assert sum(e.get("probes") for e in fires) == stats.probes
        assert sum(e.get("firings") for e in fires) == stats.firings
        assert sum(e.get("new") for e in fires) == stats.total_derived

    def test_round_events_count_iterations(self):
        tracer = CallbackTracer()
        _, stats = evaluate(parse_program(STRATIFIED), graph_db(),
                            tracer=tracer)
        rounds = [e for e in tracer.events if e.kind == "round"]
        # iterations counts round 0 of each stratum too; round events
        # cover only the delta rounds.
        assert len(rounds) == stats.iterations - 2

    def test_callback_hook_invoked_per_event(self):
        seen = []
        tracer = CallbackTracer(callback=lambda e: seen.append(e.kind))
        evaluate(parse_program(STRATIFIED), graph_db(), tracer=tracer)
        assert seen == tracer.kinds()

    def test_idlog_engine_emits_id_materialized(self):
        tracer = CallbackTracer()
        engine = IdlogEngine(
            "pick(X) :- item[](X, 0).", tracer=tracer)
        db = Database.from_facts({"item": [("i1",), ("i2",)]})
        engine.run(db)
        event = next(e for e in tracer.events
                     if e.kind == "id_materialized")
        assert event.get("pred") == "item"
        assert event.get("base_size") == 2
        assert tracer.kinds()[0] == "eval_start"
        assert tracer.kinds()[-1] == "eval_end"

    def test_incremental_engine_reports_paths(self):
        tracer = CallbackTracer()
        engine = IncrementalEngine(
            "path(X, Y) :- edge(X, Y).\n"
            "path(X, Y) :- edge(X, Z), path(Z, Y).", tracer=tracer)
        engine.start(Database.from_facts({"edge": [("a", "b")]}))
        engine.add_fact("edge", ("b", "c"))
        engine.delete_fact("edge", ("a", "b"))
        ops = [(e.get("op"), e.get("path")) for e in tracer.events
               if e.kind == "incremental"]
        assert ops == [("materialize", None), ("insert", "delta"),
                       ("delete", "dred")]

    def test_incremental_fallback_on_negation(self):
        tracer = CallbackTracer()
        engine = IncrementalEngine(
            "lone(X) :- node(X), not hub(X).", tracer=tracer)
        engine.start(Database.from_facts(
            {"node": [("a",), ("b",)], "hub": [("a",)]}))
        engine.add_fact("hub", ("b",))
        event = next(e for e in tracer.events
                     if e.kind == "incremental" and e.get("op") == "insert")
        assert event.get("path") == "fallback"
        assert "recomputation" in event.get("reason")

    def test_topdown_query_events(self):
        tracer = CallbackTracer()
        engine = TopDownEngine(
            "path(X, Y) :- edge(X, Y).\n"
            "path(X, Y) :- path(X, Z), edge(Z, Y).", tracer=tracer)
        db = Database.from_facts({"edge": [("a", "b"), ("b", "c")]})
        answers = engine.query(db, "path(a, Y)")
        assert len(answers) == 2
        summary = tracer.events[-1]
        assert summary.kind == "topdown_query"
        assert summary.get("goal") == "path(a, Y)"
        assert summary.get("answers") == 2
        rounds = [e for e in tracer.events if e.kind == "topdown_round"]
        assert len(rounds) == summary.get("rounds") >= 2


class TestTracingIsPure:
    """Tracing on vs off: identical relations and identical counters."""

    def assert_same(self, plan):
        program = parse_program(STRATIFIED)
        plain_db, plain_stats = evaluate(program, graph_db(), plan=plan)
        tracer = CallbackTracer()
        traced_db, traced_stats = evaluate(program, graph_db(), plan=plan,
                                           tracer=tracer)
        for pred in ("path", "lone"):
            assert plain_db.relation(pred).frozen() \
                == traced_db.relation(pred).frozen()
        assert plain_stats == traced_stats
        assert tracer.events  # the traced run did emit

    @pytest.mark.parametrize("plan", ["greedy", "cost"],
                             ids=["batch-greedy", "batch-cost"])
    def test_differential_all_modes(self, plan):
        self.assert_same(plan)

    def test_idlog_answers_unchanged_under_tracing(self):
        program = "pick(X) :- item[](X, 0)."
        db = Database.from_facts({"item": [("i1",), ("i2",), ("i3",)]})
        plain = IdlogEngine(program).answers(db, "pick")
        with use_tracer(TimingTracer()):
            traced = IdlogEngine(program).answers(db, "pick")
        assert plain == traced


class TestAmbientTracer:
    def test_use_tracer_scopes_and_nests(self):
        assert current_tracer() is None
        outer, inner = CallbackTracer(), CallbackTracer()
        with use_tracer(outer):
            assert current_tracer() is outer
            with use_tracer(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is None

    def test_ambient_tracer_reaches_evaluation(self):
        tracer = CallbackTracer()
        with use_tracer(tracer):
            evaluate(parse_program(STRATIFIED), graph_db())
        assert "clause_fire" in tracer.kinds()

    def test_explicit_tracer_wins_over_ambient(self):
        ambient, explicit = CallbackTracer(), CallbackTracer()
        with use_tracer(ambient):
            evaluate(parse_program(STRATIFIED), graph_db(),
                     tracer=explicit)
        assert not ambient.events
        assert explicit.events

    def test_null_tracer_resolves_to_none(self):
        assert resolve_tracer(NullTracer()) is None
        with use_tracer(NullTracer()):
            assert resolve_tracer(None) is None


class TestJsonTracer:
    def test_writes_valid_jsonl_with_sequence(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonTracer(str(path)) as tracer:
            evaluate(parse_program(STRATIFIED), graph_db(),
                     tracer=tracer)
            written = tracer.events_written
        lines = path.read_text().splitlines()
        assert len(lines) == written > 0
        records = [json.loads(line) for line in lines]
        assert [r["seq"] for r in records] == list(range(len(records)))
        assert records[0]["event"] == "eval_start"
        assert records[-1]["event"] == "eval_end"
        kinds = {r["event"] for r in records}
        assert {"stratum_start", "clause_fire", "round"} <= kinds

    def test_caller_owned_file_object_stays_open(self):
        buf = io.StringIO()
        tracer = JsonTracer(buf)
        tracer.emit("round", stratum=0, deltas={"p": 1})
        tracer.close()
        assert json.loads(buf.getvalue()) == {
            "event": "round", "seq": 0, "schema": 1, "stratum": 0,
            "deltas": {"p": 1}}

    def test_every_event_carries_schema_version(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonTracer(str(path)) as tracer:
            evaluate(parse_program(STRATIFIED), graph_db(), tracer=tracer)
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert records and all(r["schema"] == SCHEMA_VERSION
                               for r in records)

    def test_close_is_idempotent(self):
        buf = io.StringIO()
        tracer = JsonTracer(buf)
        tracer.emit("round", stratum=0)
        tracer.close()
        tracer.close()  # second close must not fail or re-flush
        assert len(buf.getvalue().splitlines()) == 1

    def test_non_primitive_fields_are_stringified(self):
        buf = io.StringIO()
        JsonTracer(buf).emit("plan_built", group=frozenset([2, 1]),
                             cost=3.5)
        record = json.loads(buf.getvalue())
        assert sorted(record["group"]) == [1, 2]
        assert record["cost"] == 3.5


class TestTeeTracer:
    def test_fans_out_to_all(self):
        a, b = CallbackTracer(), CallbackTracer()
        TeeTracer([a, b]).emit("round", stratum=1)
        assert a.kinds() == b.kinds() == ["round"]
        assert a.events[0].get("stratum") == 1


class TestContextTracer:
    def test_stamps_context_on_every_event(self):
        inner = CallbackTracer()
        tracer = ContextTracer(inner, request_id="r7", session_id="s1")
        tracer.emit("eval_start", strata=2)
        tracer.emit("eval_end")
        assert all(e.get("request_id") == "r7" and e.get("session_id") == "s1"
                   for e in inner.events)
        assert inner.events[0].get("strata") == 2

    def test_none_context_values_are_dropped(self):
        inner = CallbackTracer()
        ContextTracer(inner, request_id="r1", session_id=None).emit("round")
        assert "session_id" not in inner.events[0].fields
        assert inner.events[0].get("request_id") == "r1"

    def test_event_fields_win_on_collision(self):
        inner = CallbackTracer()
        ContextTracer(inner, request_id="outer").emit(
            "round", request_id="inner")
        assert inner.events[0].get("request_id") == "inner"

    def test_context_fields_constant_names_the_stamps(self):
        inner = CallbackTracer()
        context = {name: f"v_{name}" for name in CONTEXT_FIELDS}
        ContextTracer(inner, **context).emit("round")
        for name in CONTEXT_FIELDS:
            assert inner.events[0].get(name) == f"v_{name}"

    def test_whole_engine_stream_is_stamped(self):
        inner = CallbackTracer()
        evaluate(parse_program(STRATIFIED), graph_db(),
                 tracer=ContextTracer(inner, request_id="r9"))
        assert inner.events  # a real stream, not a stub
        assert all(e.get("request_id") == "r9" for e in inner.events)


class TestProfile:
    def profile_of(self, plan="greedy"):
        timing = TimingTracer()
        _, stats = evaluate(parse_program(STRATIFIED), graph_db(),
                            plan=plan, tracer=timing)
        return timing.profile, stats

    def test_profile_totals_match_stats(self):
        profile, stats = self.profile_of()
        assert sum(c.probes for c in profile.clauses.values()) \
            == stats.probes
        assert sum(c.new for c in profile.clauses.values()) \
            == stats.total_derived
        assert sum(c.pipelines_compiled
                   for c in profile.clauses.values()) \
            == stats.pipelines_compiled

    def test_profile_shape(self):
        profile, _ = self.profile_of()
        assert sorted(profile.strata) == [0, 1]
        assert profile.strata[0].heads == ("path",)
        assert profile.strata[0].cardinalities == {"path": 10}
        rows = profile.clause_rows()
        assert [r.stratum for r in rows] == [0, 0, 1]
        recursive = next(r for r in rows if "path(Z, Y)" in r.clause)
        assert recursive.calls > 1
        assert recursive.pipeline_hits \
            == recursive.calls - recursive.pipelines_compiled
        assert profile.meta["plan"] == "greedy"
        assert "engine" not in profile.meta
        assert profile.meta["evaluations"] == 1

    def test_as_dict_is_json_ready(self):
        profile, _ = self.profile_of()
        data = json.loads(json.dumps(profile.as_dict()))
        assert data["schema"] == SCHEMA_VERSION
        assert {c["clause"] for c in data["clauses"]} \
            == {c.clause for c in profile.clauses.values()}
        assert data["strata"][0]["cardinalities"] == {"path": 10}

    def test_format_profile_table(self):
        profile, stats = self.profile_of(plan="cost")
        table = format_profile(profile)
        assert table.startswith("EXPLAIN ANALYZE")
        assert "stratum 0: defines path" in table
        assert "stratum 1: defines lone" in table
        assert f"{stats.probes} probes" in table
        assert "cost:" in table  # the estimated-cost suffix
        header_count = table.count("clause  ")
        assert header_count >= 2  # one column header per stratum section

    def test_format_profile_empty(self):
        assert "no clause executions" in format_profile(
            TimingTracer().profile)

    def test_accumulates_across_evaluations(self):
        timing = TimingTracer()
        program = parse_program(STRATIFIED)
        with use_tracer(timing):
            evaluate(program, graph_db())
            evaluate(program, graph_db())
        assert timing.profile.meta["evaluations"] == 2


class TestWholeCallSpans:
    """Enumeration and incremental materialization are one eval span per
    call, so their profiles carry ``meta["wall_s"]``."""

    ITEMS = Database.from_facts({"item": [("i1",), ("i2",), ("i3",)]})

    def test_traced_answers_report_wall_s(self):
        timing = TimingTracer()
        engine = IdlogEngine("pick(X) :- item[](X, 0).", tracer=timing)
        assert len(engine.answers(self.ITEMS, "pick")) == 3
        assert timing.profile.meta["wall_s"] > 0
        assert timing.profile.meta["evaluations"] == 1

    def test_traced_answer_probabilities_report_wall_s(self):
        timing = TimingTracer()
        engine = IdlogEngine("pick(X) :- item[](X, 0).", tracer=timing)
        engine.answer_probabilities(self.ITEMS, "pick")
        assert timing.profile.meta["wall_s"] > 0
        assert timing.profile.meta["evaluations"] == 1

    def test_traced_incremental_start_reports_wall_s(self):
        tracer = CallbackTracer()
        timing = TimingTracer()
        engine = IncrementalEngine(STRATIFIED,
                                   tracer=TeeTracer([tracer, timing]))
        engine.start(graph_db())
        assert timing.profile.meta["wall_s"] > 0
        assert timing.profile.meta["evaluations"] == 1
        kinds = [e.kind for e in tracer.events]
        assert kinds[0] == "eval_start" and kinds[-1] == "eval_end"


def _synthetic_fire(tracer, clause="p(X) :- q(X).", est_rows=1.0,
                    actual_rows=99, est_probes=1.0, actual_probes=100):
    """One clause_fire with a deliberately wrong single-stage estimate."""
    tracer.emit("clause_fire", clause=clause, stratum=0, wall_s=0.001,
                probes=actual_probes, firings=actual_rows, new=actual_rows,
                stages=[{"literal": "q(X)", "kind": "scan",
                         "est_rows": est_rows, "actual_rows": actual_rows,
                         "est_probes": est_probes,
                         "actual_probes": actual_probes}])


def _stageless_fire(tracer):
    """One clause_fire carrying no stage estimates (e.g. a replayed
    trace from an older producer)."""
    tracer.emit("clause_fire", clause="path(X, Y) :- edge(X, Y).",
                stratum=0, wall_s=0.001, probes=3, firings=3, new=3)


class TestPlanQuality:
    """Estimated-vs-actual capture: the tentpole of the plan-quality PR."""

    def profile_of(self, plan="greedy"):
        timing = TimingTracer()
        _, stats = evaluate(parse_program(STRATIFIED), graph_db(),
                            plan=plan, tracer=timing)
        return timing.profile, stats

    def test_q_error_is_symmetric_and_smoothed(self):
        assert q_error(10, 10) == 1.0
        assert q_error(10, 1000) == q_error(1000, 10)
        assert q_error(0, 0) == 1.0
        assert q_error(9, 0) == 10.0

    @pytest.mark.parametrize("plan", ["greedy", "cost"])
    def test_batch_engine_captures_stages(self, plan):
        profile, _ = self.profile_of(plan=plan)
        for row in profile.clause_rows():
            assert row.estimated_calls == row.calls
            assert row.stages
            # Per-stage actual probes partition the clause's probe total.
            assert sum(s.actual_probes for s in row.stages.values()) \
                == row.probes
            assert row.probe_q_error >= 1.0
            assert row.worst_stage_q_error >= 1.0

    def test_as_dict_carries_stage_breakdown(self):
        profile, _ = self.profile_of()
        data = json.loads(json.dumps(profile.as_dict()))
        row = next(c for c in data["clauses"]
                   if "path(Z, Y)" in c["clause"])
        assert row["est_probes"] > 0
        assert row["q_error"] >= 1.0
        assert isinstance(row["misestimated"], bool)
        stage = row["stages"][0]
        assert {"index", "literal", "calls", "est_rows", "actual_rows",
                "est_probes", "actual_probes", "q_error"} <= set(stage)

    def test_plan_quality_block_shape(self):
        profile, _ = self.profile_of()
        quality = profile.plan_quality()
        assert quality["schema"] == SCHEMA_VERSION
        assert quality["misestimate_threshold"] == MISESTIMATE_THRESHOLD
        assert len(quality["clauses"]) == len(profile.clauses)
        worsts = [max(r["q_error"], r["worst_stage_q_error"])
                  for r in quality["clauses"]]
        assert worsts == sorted(worsts, reverse=True)  # worst first
        top = quality["clauses"][0]
        assert quality["max_q_error"] == max(top["q_error"],
                                             top["worst_stage_q_error"])
        assert quality["median_q_error"] is not None

    def test_plan_quality_empty_without_estimates(self):
        timing = TimingTracer()
        _stageless_fire(timing)
        row = next(iter(timing.profile.clauses.values()))
        assert row.estimated_calls == 0
        assert row.probe_q_error is None
        assert row.misestimated is False
        quality = timing.profile.plan_quality()
        assert quality["clauses"] == []
        assert quality["median_q_error"] is None
        assert quality["max_q_error"] is None
        assert quality["misestimates"] == 0

    def test_clause_q_error_is_the_worst_of_probes_and_stages(self):
        timing = TimingTracer()
        # Probes est 1 vs 100 (q 50.5); the stage's rows est 98 vs 99.
        _synthetic_fire(timing, est_rows=98.0, actual_rows=99)
        row = next(iter(timing.profile.clauses.values()))
        assert row.q_error == row.probe_q_error == q_error(1.0, 100)
        # Rows est 1 vs 99 (q 50) with accurate probes: the stage wins.
        timing = TimingTracer()
        _synthetic_fire(timing, est_probes=100.0)
        row = next(iter(timing.profile.clauses.values()))
        assert row.q_error == row.worst_stage_q_error == q_error(1.0, 99)
        assert worst_q_error(row.probe_q_error, [row.worst_stage_q_error]) \
            == row.q_error
        timing = TimingTracer()
        _stageless_fire(timing)
        assert next(iter(timing.profile.clauses.values())).q_error is None

    def test_misestimate_flagged_past_threshold(self):
        timing = TimingTracer()
        _synthetic_fire(timing)  # est 1 row vs actual 99 -> q-error 50
        row = next(iter(timing.profile.clauses.values()))
        assert row.misestimated
        quality = timing.profile.plan_quality()
        assert quality["misestimates"] == 1
        assert quality["clauses"][0]["misestimated"] is True

    def test_accurate_estimate_not_flagged(self):
        timing = TimingTracer()
        _synthetic_fire(timing, est_rows=100.0, actual_rows=99,
                        est_probes=100.0, actual_probes=100)
        row = next(iter(timing.profile.clauses.values()))
        assert not row.misestimated

    def test_plan_drift_events_fold_into_the_clause_row(self):
        timing = TimingTracer()
        _synthetic_fire(timing)
        timing.emit("plan_drift", clause="p(X) :- q(X).", stratum=0,
                    mode="cost", old_cost=5.0, new_cost=3.0,
                    old_order="q -> r", new_order="r -> q")
        row = next(iter(timing.profile.clauses.values()))
        assert row.plan_drifts == 1
        data = timing.profile.as_dict()
        assert data["clauses"][0]["plan_drifts"] == 1
        assert timing.profile.plan_quality()["plan_drifts"] == 1

    def test_plan_drift_alone_still_creates_a_row(self):
        timing = TimingTracer()
        timing.emit("plan_drift", clause="p(X) :- q(X).", stratum=0,
                    mode="cost")
        data = timing.profile.as_dict()
        assert data["clauses"][0]["plan_drifts"] == 1
        assert "q_error" not in data["clauses"][0]

    def test_format_profile_renders_estimate_columns(self):
        profile, _ = self.profile_of()
        table = format_profile(profile)
        header = next(line for line in table.splitlines()
                      if "est probes" in line)
        assert "q-err" in header
        for line in table.splitlines():
            if line.lstrip().startswith(("path(", "lone(")):
                assert " - " not in f" {line.split()[-4]} "  # q-err filled

    def test_format_profile_flags_misestimates(self):
        timing = TimingTracer()
        _synthetic_fire(timing)
        table = format_profile(timing.profile)
        assert "50.5!" in table  # q_error(1, 100) probes, '!'-flagged

    def test_format_profile_dashes_without_estimates(self):
        timing = TimingTracer()
        _stageless_fire(timing)
        table = format_profile(timing.profile)
        row = next(line for line in table.splitlines()
                   if line.lstrip().startswith("path("))
        # est probes and q-err both render "-" without stage estimates.
        cells = row.split()
        assert cells[-6] == "-" and cells[-5] == "-"


class TestFormatProfileWidth:
    """The clause column widens to the longest clause (satellite fix)."""

    def test_long_clauses_are_not_truncated_by_default(self):
        timing = TimingTracer()
        clause = ("very_long_predicate_name(X, Y, Z) :- " +
                  ", ".join(f"wide_body_literal_{i}(X, Y, Z)"
                            for i in range(4)) + ".")
        assert len(clause) > 44
        _synthetic_fire(timing, clause=clause)
        table = format_profile(timing.profile)
        assert clause in table
        assert "…" not in table

    def test_explicit_width_still_clips(self):
        timing = TimingTracer()
        clause = "p(X) :- " + ", ".join(
            f"q{i}(X)" for i in range(20)) + "."
        _synthetic_fire(timing, clause=clause)
        table = format_profile(timing.profile, clause_width=30)
        assert clause not in table
        assert "…" in table
