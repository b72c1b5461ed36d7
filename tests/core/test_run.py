"""Tests for the shared run entry point (repro.core.run) and the typed
errors a malformed choice log raises."""

import io
import json
import re

import pytest

from repro.choice import ChoiceEngine
from repro.core import ChoiceLog, IdlogEngine, pick_queries, run_program
from repro.core import run as run_module
from repro.datalog import trace as trace_module
from repro.datalog.database import Database
from repro.datalog.seminaive import EvalStats
from repro.datalog.trace import CallbackTracer
from repro.errors import InputError, ReplayError

SAMPLE = "pick(N, D) :- emp[2](N, D, T), T < 1.\n"


def employees() -> Database:
    return Database.from_facts({"emp": [
        ("ann", "toys"), ("bob", "toys"), ("eli", "toys"),
        ("joe", "shoes"), ("sue", "shoes")]})


def recorded(seed=4):
    return run_program(IdlogEngine(SAMPLE), employees(), "one", seed,
                       ["pick"], record={"seed": seed})


class TestRunProgram:
    def test_record_attaches_the_query_answers(self):
        outcome = recorded()
        assert outcome.log.meta == {"seed": 4}
        assert len(outcome.log) == 2
        assert outcome.log.answer_tuples("pick") \
            == outcome.result.tuples("pick")
        assert outcome.digest == outcome.log.digest()

    def test_replay_reproduces_and_checks_the_answers(self):
        first = recorded()
        again = run_program(IdlogEngine(SAMPLE), employees(),
                            replay=first.log)
        assert again.log is first.log
        assert again.result.tuples("pick") == first.result.tuples("pick")

    def test_replay_with_edited_answers_is_a_replay_error(self):
        log = recorded().log
        log.answers = {"pick": (("zzz", "d9"),)}
        with pytest.raises(ReplayError,
                           match="replayed answers for pick differ"):
            run_program(IdlogEngine(SAMPLE), employees(), replay=log)

    def test_answers_of_an_underived_predicate_are_a_replay_error(self):
        log = recorded().log
        log.answers = {"nope": ()}
        with pytest.raises(ReplayError, match="does not derive"):
            run_program(IdlogEngine(SAMPLE), employees(), replay=log)

    def test_record_and_replay_are_exclusive(self):
        with pytest.raises(InputError, match="mutually exclusive"):
            run_program(IdlogEngine(SAMPLE), employees(), record={},
                        replay=ChoiceLog())

    def test_unknown_mode_is_an_input_error(self):
        with pytest.raises(InputError, match="mode"):
            run_program(IdlogEngine(SAMPLE), employees(), "answers")

    def test_digest_log_without_record(self):
        outcome = run_program(IdlogEngine(SAMPLE), employees(), "one", 4,
                              digest=True)
        assert outcome.digest == recorded().digest
        assert outcome.log.answers == {}

    def test_profile_and_sinks_see_the_events_and_tracer_is_restored(self):
        engine = IdlogEngine(SAMPLE)
        own = CallbackTracer()
        sink = CallbackTracer()
        engine.tracer = own
        outcome = run_program(engine, employees(), profile=True,
                              sinks=[sink])
        assert engine.tracer is own
        assert [e.kind for e in own.events] == [e.kind for e in sink.events]
        assert outcome.profile.meta["evaluations"] == 1
        assert outcome.plan_quality() == outcome.profile.plan_quality()

    def test_tracer_restored_when_evaluation_fails(self):
        engine = IdlogEngine(SAMPLE)
        log = recorded().log
        with pytest.raises(ReplayError):
            run_program(engine, Database.from_facts(
                {"emp": [("new", "toys")]}), replay=log, profile=True)
        assert engine.tracer is None

    def test_plain_run_builds_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a plain run built an observer")
        monkeypatch.setattr(run_module, "ChoiceLog", refuse)
        monkeypatch.setattr(run_module, "TimingTracer", refuse)
        monkeypatch.setattr(trace_module, "TeeTracer", refuse)
        outcome = run_program(IdlogEngine(SAMPLE), employees(), "one", 2)
        assert outcome.log is None and outcome.profile is None
        assert outcome.digest is None and outcome.plan_quality() is None

    def test_choice_engine_front_end_is_profiled(self):
        engine = ChoiceEngine("pick(N) :- emp(N, D), choice((D), (N)).")
        outcome = run_program(engine, employees(), "one", 1, profile=True)
        assert len(outcome.result.tuples("pick")) == 2
        assert outcome.profile.meta["evaluations"] >= 2
        assert engine.tracer is None


class TestPickQueries:
    def test_defaults_to_every_output_sorted(self):
        program = IdlogEngine("b(X) :- a(X).\nc(X) :- a(X).").program
        assert pick_queries(program) == ["b", "c"]
        assert pick_queries(program, ["c"]) == ["c"]

    @pytest.mark.parametrize("requested", [["nope"], [3]])
    def test_rejects_what_is_not_an_output(self, requested):
        program = IdlogEngine(SAMPLE).program
        with pytest.raises(InputError):
            pick_queries(program, requested)


class TestMalformedLogs:
    @pytest.mark.parametrize("data, named", [
        ({"choices": [{"pred": "emp"}]}, "choices[0]"),
        ({"choices": [1]}, "choices[0]"),
        ({"groupings": [{"x": 1}]}, "groupings[0]"),
        ({"groupings": [{"pred": "emp", "group": [2], "tid_limit": "x"}]},
         "groupings[0]"),
        ({"choices": [{"kind": 1}]}, "choices[0]"),
        ({"choices": "abc"}, "choices"),
        ({"meta": 3}, "meta"),
        ({"answers": {"pick": [[["nested"]]]}}, "answers"),
    ])
    def test_from_jsonable_names_the_entry(self, data, named):
        with pytest.raises(InputError, match=re.escape(named)):
            ChoiceLog.from_jsonable(data)

    def test_duplicate_block_is_an_input_error(self):
        data = recorded().log.to_jsonable()
        data["choices"].append(data["choices"][0])
        with pytest.raises(InputError, match="one log records one"):
            ChoiceLog.from_jsonable(data)

    def test_load_names_the_event(self):
        stream = io.StringIO(json.dumps(
            {"event": "id_choice", "pred": "emp"}) + "\n")
        with pytest.raises(InputError, match="event 1"):
            ChoiceLog.load(stream)


def test_counters_are_ordered_like_the_reports():
    stats = EvalStats(firings=2, probes=3, iterations=4, id_tuples=5,
                      plans_built=6, plans_reused=7, pipelines_compiled=8,
                      pipelines_reused=9)
    stats.count_derived("p", 1)
    assert list(stats.counters().items()) == [
        ("derived", 1), ("firings", 2), ("probes", 3), ("iterations", 4),
        ("id_tuples", 5), ("plans_built", 6), ("plans_reused", 7),
        ("pipelines_compiled", 8), ("pipelines_reused", 9)]
