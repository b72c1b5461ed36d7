"""Tests for the ID-choice audit log (repro.core.choicelog).

Covers the tentpole observability surface: recording choices during
evaluation, byte-exact replay, drift diagnosis, JSONL round-trips
(including loading a ``--trace`` file as a log), and the run-divergence
differ.
"""

import io
import random

import pytest

from repro.core import IdlogEngine, ReplayIdProvider
from repro.core.choicelog import (ChoiceLog, ChoiceRecord, block_digest,
                                  choice_records, diverge,
                                  format_divergence)
from repro.core.idrelations import (canonical_id_function, make_id_relation,
                                    random_id_function)
from repro.datalog.database import Database, Relation
from repro.datalog.seminaive import EvalStats
from repro.datalog.trace import (EV_ID_CHOICE, EV_ID_MATERIALIZED,
                                 JsonTracer, SCHEMA_VERSION, use_tracer)
from repro.errors import ReplayError, ReproError

SELECT_ONE = "select_emp(N) :- emp[2](N, D, T), T < 1.\n"


def employees() -> Database:
    return Database.from_facts({"emp": [
        ("ann", "toys"), ("bob", "toys"), ("eli", "toys"),
        ("joe", "shoes"), ("sue", "shoes"),
    ]})


def record_run(seed=3, db=None):
    engine = IdlogEngine(SELECT_ONE)
    db = db or employees()
    log = ChoiceLog(meta={"seed": seed})
    result = engine.one(db, seed=seed, record=log)
    log.set_answers({"select_emp": result.tuples("select_emp")})
    return engine, db, log, result


class TestBlockDigest:
    def test_order_independent(self):
        assert block_digest([("a",), ("b",)]) == block_digest([("b",), ("a",)])

    def test_content_sensitive(self):
        assert block_digest([("a",)]) != block_digest([("b",)])
        assert block_digest([]) != block_digest([("a",)])

    def test_sixteen_hex_chars(self):
        digest = block_digest([("x", 1)])
        assert len(digest) == 16
        int(digest, 16)  # valid hex


class TestChoiceRecords:
    def test_one_record_per_block_in_sorted_key_order(self):
        base = Relation(2, tuples=[("a", "c"), ("a", "d"), ("b", "c")])
        records = choice_records(
            "r", frozenset({1}), canonical_id_function(base, frozenset({1})))
        assert [rec.block for rec in records] == [("a",), ("b",)]
        assert [rec.block_size for rec in records] == [2, 1]
        assert records[0].ordering == (("a", "c"), ("a", "d"))

    def test_limit_truncates_ordering_not_block_identity(self):
        base = Relation(2, tuples=[("a", "c"), ("a", "d")])
        group = frozenset({1})
        [rec] = choice_records(
            "r", group, canonical_id_function(base, group), limit=1)
        assert rec.ordering == (("a", "c"),)
        assert rec.block_size == 2  # full block, for drift detection
        assert rec.tid_limit == 1

    def test_describe_names_the_site(self):
        rec = ChoiceRecord("emp", (2,), ("toys",), "00" * 8, 3,
                           (("ann", "toys"),), 1)
        assert rec.describe() == "emp[2] block ('toys',)"
        assert rec.key == ("emp", (2,), ("toys",))


class TestRecordAndReplay:
    def test_record_then_replay_is_byte_identical(self):
        engine, db, log, result = record_run()
        replayed = engine.replay(db, log)
        assert replayed.tuples("select_emp") == result.tuples("select_emp")

    def test_recording_does_not_change_the_answer(self):
        engine, db = IdlogEngine(SELECT_ONE), employees()
        plain = engine.one(db, seed=11)
        recorded = engine.one(db, seed=11, record=ChoiceLog())
        assert plain.tuples("select_emp") == recorded.tuples("select_emp")
        assert plain.stats == recorded.stats

    def test_one_log_per_evaluation(self):
        engine, db, log, _ = record_run()
        with pytest.raises(ReproError, match="one log records"):
            engine.one(db, seed=4, record=log)

    def test_canonical_run_records_too(self):
        engine, db = IdlogEngine(SELECT_ONE), employees()
        log = ChoiceLog()
        result = engine.run(db, record=log)
        assert len(log) == 2  # toys + shoes blocks
        assert engine.replay(db, log).tuples("select_emp") \
            == result.tuples("select_emp")

    def test_replay_detects_changed_block(self):
        engine, db, log, _ = record_run()
        drifted = employees()
        drifted.add_fact("emp", ("zed", "toys"))
        with pytest.raises(ReplayError, match=r"drifted under emp\[2\]"):
            engine.replay(drifted, log)

    def test_replay_detects_new_block(self):
        engine, db, log, _ = record_run()
        drifted = employees()
        drifted.add_fact("emp", ("kim", "books"))
        with pytest.raises(ReplayError,
                           match="new block.*absent from the log"):
            engine.replay(drifted, log)

    def test_replay_detects_vanished_block(self):
        engine, _, log, _ = record_run()
        shrunk = Database.from_facts({"emp": [
            ("ann", "toys"), ("bob", "toys"), ("eli", "toys")]})
        with pytest.raises(ReplayError, match="no longer present"):
            engine.replay(shrunk, log)

    def test_replay_without_any_recording_fails_precisely(self):
        engine, db = IdlogEngine(SELECT_ONE), employees()
        empty = ChoiceLog()
        with pytest.raises(ReplayError, match="holds no decision"):
            engine.replay(db, empty)

    def test_empty_base_relation_replays(self):
        engine = IdlogEngine(SELECT_ONE)
        db = Database({"emp": Relation(2)})
        log = ChoiceLog()
        engine.one(db, seed=0, record=log)
        assert len(log) == 0
        assert log.records_for("emp", frozenset({2})) == {}
        # Round-trip through JSONL must preserve the empty grouping.
        buf = io.StringIO()
        log.save(buf)
        restored = ChoiceLog.load(io.StringIO(buf.getvalue()))
        assert restored.records_for("emp", frozenset({2})) == {}
        assert engine.replay(db, restored).tuples("select_emp") \
            == frozenset()

    def test_tid_limited_replay_round_trip(self):
        base, group = employees().relation("emp"), frozenset({2})
        drawn = random_id_function(base, group, random.Random(5))
        log = ChoiceLog()
        for rec in choice_records("emp", group, drawn, limit=2):
            log.emit(EV_ID_CHOICE, **rec.as_event_fields())
        log.emit(EV_ID_MATERIALIZED, pred="emp", group=[2], tid_limit=2)
        assert log.limit_for("emp", group) == 2
        restored = ChoiceLog.from_jsonable(log.to_jsonable())
        replayed = ReplayIdProvider(restored).materialize(
            "emp", group, base, EvalStats())
        assert replayed.frozen() == \
            make_id_relation(base, drawn, limit=2).frozen()
        assert len(replayed) == 4  # two tids in each of two blocks

    @pytest.mark.parametrize("extra", [["zed", "toys"], None])
    def test_replay_rejects_corrupt_ordering(self, extra):
        """An ordering listing a tuple outside its block, or one tuple
        twice, is refused even though the block digest matches."""
        engine, db, log, _ = record_run()
        data = log.to_jsonable()
        ordering = data["choices"][0]["ordering"]
        ordering.append(extra or ordering[0])
        with pytest.raises(ReplayError, match="choice log is corrupt"):
            engine.replay(db, ChoiceLog.from_jsonable(data))

    def test_records_for_distinguishes_never_recorded(self):
        log = ChoiceLog()
        assert log.records_for("emp", frozenset({2})) is None


class TestSerialization:
    def test_jsonl_round_trip(self):
        _, _, log, _ = record_run()
        buf = io.StringIO()
        log.save(buf)
        restored = ChoiceLog.load(io.StringIO(buf.getvalue()))
        assert restored.meta == log.meta
        assert restored.records == log.records
        assert restored.answers == log.answers

    def test_jsonl_lines_carry_schema_and_event(self):
        import json
        _, _, log, _ = record_run()
        buf = io.StringIO()
        log.save(buf)
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert lines[0]["event"] == "choice_log"
        assert all(line["schema"] == SCHEMA_VERSION for line in lines)
        choice_lines = [l for l in lines if l["event"] == EV_ID_CHOICE]
        assert len(choice_lines) == len(log)
        assert [l["seq"] for l in choice_lines] == list(range(len(log)))
        # Key order is part of the file format.
        assert list(lines[0]) == ["event", "schema", "meta", "groupings"]
        assert list(choice_lines[0]) == [
            "event", "seq", "schema", "pred", "group", "block",
            "block_digest", "block_size", "ordering", "tid_limit"]

    def test_trace_file_loads_as_choice_log(self):
        """A run --trace JSONL doubles as a choice log: the same
        groupings (the empty ``mgr[]`` one included) and records as the
        ``record=`` log of the same run."""
        engine = IdlogEngine(SELECT_ONE + "boss(N) :- mgr[](N, T), T < 1.\n")
        db = Database({"emp": employees().relation("emp"),
                       "mgr": Relation(1)})
        buf = io.StringIO()
        tracer = JsonTracer(buf)
        with use_tracer(tracer):
            result = engine.one(db, seed=3)
        tracer.close()
        log = ChoiceLog.load(io.StringIO(buf.getvalue()))
        assert len(log) == 2
        assert log.records_for("mgr", frozenset()) == {}
        recorded = ChoiceLog()
        engine.one(db, seed=3, record=recorded)
        for part in ("groupings", "choices"):
            assert log.to_jsonable()[part] == recorded.to_jsonable()[part]
        assert engine.replay(db, log).tuples("select_emp") \
            == result.tuples("select_emp")

    def test_jsonable_round_trip(self):
        _, _, log, _ = record_run()
        restored = ChoiceLog.from_jsonable(log.to_jsonable())
        assert restored.records == log.records
        assert restored.answers == log.answers

    def test_wrong_schema_rejected(self):
        with pytest.raises(ReproError, match="schema"):
            ChoiceLog.from_jsonable({"schema": 99})
        bad = io.StringIO('{"event": "choice_log", "schema": 99}\n')
        with pytest.raises(ReproError, match="schema"):
            ChoiceLog.load(bad)

    def test_garbage_rejected(self):
        with pytest.raises(ReproError, match="not valid JSON"):
            ChoiceLog.load(io.StringIO("not json\n"))
        with pytest.raises(ReproError, match="not a choice log"):
            ChoiceLog.load(io.StringIO('{"event": "round"}\n'))


class TestDiverge:
    def two_logs(self, seed_a=3, seed_b=4):
        *_, log_a, _ = record_run(seed=seed_a)
        *_, log_b, _ = record_run(seed=seed_b)
        return log_a, log_b

    def test_identical_logs(self):
        log_a, _ = self.two_logs()
        report = diverge(log_a, log_a)
        assert report.identical
        assert report.first is None
        assert "identical" in format_divergence(report)

    def test_different_seeds_diverge_on_an_ordering(self):
        # Seeds 3 and 4 shuffle the toys block differently (5 rows,
        # 2 blocks — verified stable for random.Random across CPython).
        log_a, log_b = self.two_logs()
        report = diverge(log_a, log_b)
        if report.identical:  # pragma: no cover - seed-dependent guard
            pytest.skip("seeds happened to agree; divergence not forced")
        first = report.first
        assert first.kind == "ordering"
        assert first.pred == "emp" and first.group == (2,)
        text = format_divergence(report, a_name="runA", b_name="runB")
        assert "first divergent choice" in text
        assert "runA ordering" in text and "runB ordering" in text

    def test_answer_delta_attributed_to_first_divergence(self):
        log_a, log_b = self.two_logs()
        report = diverge(log_a, log_b)
        if not report.answer_deltas:  # pragma: no cover - seed guard
            pytest.skip("sampled answers happened to coincide")
        only_a, only_b = report.answer_deltas["select_emp"]
        assert only_a or only_b
        text = format_divergence(report)
        assert "answer delta select_emp" in text
        assert "attributed to first divergent choice" in text

    def test_input_drift_reported_as_input_kind(self):
        *_, log_a, _ = record_run()
        drifted_db = employees()
        drifted_db.add_fact("emp", ("zed", "toys"))
        _, _, log_b, _ = record_run(db=drifted_db)
        report = diverge(log_a, log_b)
        kinds = {d.kind for d in report.divergences}
        assert "input" in kinds

    def test_only_a_only_b_kinds(self):
        *_, log_a, _ = record_run()
        small = Database.from_facts({"emp": [
            ("ann", "toys"), ("bob", "toys"), ("eli", "toys")]})
        _, _, log_b, _ = record_run(db=small)
        report = diverge(log_a, log_b)
        kinds = {d.kind for d in report.divergences}
        assert "only-A" in kinds  # the shoes block vanished in B
