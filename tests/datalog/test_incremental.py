"""Tests for incremental maintenance under fact insertion."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.database import Database
from repro.datalog.engine import DatalogEngine
from repro.datalog.incremental import IncrementalEngine
from repro.errors import EvaluationError, SchemaError

TC = """
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
"""

WEIGHTED = """
    hop(X, Y, W) :- wedge(X, Y, W).
    hop(X, Y, W) :- wedge(X, Z, W), hop(Z, Y, V).
    heavy(X, Y) :- hop(X, Y, W), W > 1.
"""

#: (program, base predicate, first tuple, per-column value choices) for
#: the random update sequences.
UPDATE_PROGRAMS = [
    (TC, "edge", ("a", "b"), ("abcd", "abcd")),
    (WEIGHTED, "wedge", ("a", "b", 0), ("abcd", "abcd", (0, 1, 2, 3))),
]

NEGATION = """
    linked(X) :- edge(X, Y).
    lone(X) :- node(X), not linked(X).
"""


class TestLifecycle:
    def test_reads_before_start_rejected(self):
        engine = IncrementalEngine(TC)
        with pytest.raises(EvaluationError):
            engine.relation("path")
        with pytest.raises(EvaluationError):
            engine.add_fact("edge", ("a", "b"))

    def test_start_materializes(self):
        engine = IncrementalEngine(TC)
        engine.start(Database.from_facts({"edge": [("a", "b"), ("b", "c")]}))
        assert engine.relation("path") == {
            ("a", "b"), ("b", "c"), ("a", "c")}

    def test_callers_database_untouched(self):
        engine = IncrementalEngine(TC)
        db = Database.from_facts({"edge": [("a", "b")]})
        engine.start(db)
        engine.add_fact("edge", ("b", "c"))
        assert db.relation("edge").frozen() == {("a", "b")}

    def test_incremental_flag(self):
        assert IncrementalEngine(TC).incremental
        assert not IncrementalEngine(NEGATION).incremental
        assert not IncrementalEngine("p(X) :- e[](X, 0).").incremental


class TestPositivePath:
    def test_single_insert_propagates(self):
        engine = IncrementalEngine(TC)
        engine.start(Database.from_facts({"edge": [("a", "b")]}))
        added = engine.add_fact("edge", ("b", "c"))
        # edge(b,c) itself + path(b,c) + path(a,c).
        assert added == 3
        assert engine.relation("path") == {
            ("a", "b"), ("b", "c"), ("a", "c")}

    def test_duplicate_insert_is_noop(self):
        engine = IncrementalEngine(TC)
        engine.start(Database.from_facts({"edge": [("a", "b")]}))
        assert engine.add_fact("edge", ("a", "b")) == 0

    def test_bridge_edge_connects_components(self):
        engine = IncrementalEngine(TC)
        engine.start(Database.from_facts({"edge": [
            ("a", "b"), ("c", "d")]}))
        engine.add_fact("edge", ("b", "c"))
        assert ("a", "d") in engine.relation("path")

    def test_insert_into_derived_pred(self):
        engine = IncrementalEngine(TC)
        engine.start(Database.from_facts({"edge": [("a", "b")]}))
        engine.add_fact("path", ("z", "a"))
        # The seeded path tuple joins with existing edges... path is the
        # second body literal of the recursive clause.
        assert ("z", "a") in engine.relation("path")

    def test_database_snapshot(self):
        engine = IncrementalEngine(TC)
        engine.start(Database.from_facts({"edge": [("a", "b")]}))
        engine.add_fact("edge", ("b", "c"))
        snap = engine.database()
        assert snap.relation("path").frozen() == engine.relation("path")

    def test_unknown_predicate_rejected(self):
        engine = IncrementalEngine(TC)
        engine.start(Database.from_facts({"edge": [("a", "b")]}))
        with pytest.raises(SchemaError):
            engine.add_fact("ghost", ("a",))

    @given(st.lists(st.tuples(st.sampled_from("abcde"),
                              st.sampled_from("abcde")),
                    min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_matches_from_scratch(self, edges):
        """Insert edges one at a time; final state must equal a fresh
        evaluation over all of them."""
        engine = IncrementalEngine(TC)
        engine.start(Database.from_facts({"edge": [edges[0]]}))
        for edge in edges[1:]:
            engine.add_fact("edge", edge)
        scratch = DatalogEngine(TC).query(
            Database.from_facts({"edge": edges}), "path")
        assert engine.relation("path") == scratch


class TestRecomputePath:
    def test_negation_maintained_by_recompute(self):
        engine = IncrementalEngine(NEGATION)
        engine.start(Database.from_facts({
            "node": [("a",), ("b",)], "edge": [("a", "x")]}))
        assert engine.relation("lone") == {("b",)}
        # Insertion RETRACTS a derived tuple — only recompute gets this.
        engine.add_fact("edge", ("b", "y"))
        assert engine.relation("lone") == frozenset()

    def test_recompute_duplicate_noop(self):
        engine = IncrementalEngine(NEGATION)
        engine.start(Database.from_facts({
            "node": [("a",)], "edge": [("a", "x")]}))
        assert engine.add_fact("edge", ("a", "x")) == 0

    def test_recompute_rejects_derived_insert(self):
        engine = IncrementalEngine(NEGATION)
        engine.start(Database.from_facts({"node": [("a",)]}))
        with pytest.raises(SchemaError):
            engine.add_fact("lone", ("z",))

    @given(st.lists(st.tuples(st.sampled_from("ab"),
                              st.sampled_from("xy")),
                    min_size=1, max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_recompute_matches_from_scratch(self, edges):
        engine = IncrementalEngine(NEGATION)
        engine.start(Database.from_facts({
            "node": [("a",), ("b",)], "edge": [edges[0]]}))
        for edge in edges[1:]:
            engine.add_fact("edge", edge)
        scratch = DatalogEngine(NEGATION).query(
            Database.from_facts({"node": [("a",), ("b",)],
                                 "edge": edges}), "lone")
        assert engine.relation("lone") == scratch


class TestCost:
    def test_incremental_cheaper_than_recompute(self):
        edges = [(f"n{i}", f"n{i+1}") for i in range(30)]
        engine = IncrementalEngine(TC)
        engine.start(Database.from_facts({"edge": edges}))
        before = engine.stats.probes
        engine.add_fact("edge", ("n30", "n31"))
        incremental_probes = engine.stats.probes - before

        scratch_engine = DatalogEngine(TC)
        scratch_db = Database.from_facts(
            {"edge": edges + [("n30", "n31")]})
        scratch_probes = scratch_engine.run(scratch_db).stats.probes
        assert incremental_probes < scratch_probes


class TestDeletion:
    def test_delete_cascades(self):
        engine = IncrementalEngine(TC)
        engine.start(Database.from_facts({"edge": [
            ("a", "b"), ("b", "c"), ("c", "d")]}))
        gone = engine.delete_fact("edge", ("b", "c"))
        # edge(b,c), path(b,c), path(a,c), path(b,d), path(a,d) all die.
        assert gone == 5
        assert engine.relation("path") == {("a", "b"), ("c", "d")}

    def test_delete_with_alternative_support_rederives(self):
        engine = IncrementalEngine(TC)
        engine.start(Database.from_facts({"edge": [
            ("a", "b"), ("b", "c"), ("a", "c")]}))
        engine.delete_fact("edge", ("a", "b"))
        # path(a,c) survives through the direct edge(a,c).
        assert ("a", "c") in engine.relation("path")
        assert ("a", "b") not in engine.relation("path")

    def test_delete_diamond_keeps_far_reach(self):
        engine = IncrementalEngine(TC)
        engine.start(Database.from_facts({"edge": [
            ("s", "l"), ("s", "r"), ("l", "t"), ("r", "t"), ("t", "z")]}))
        engine.delete_fact("edge", ("s", "l"))
        # s still reaches t and z through r.
        assert ("s", "t") in engine.relation("path")
        assert ("s", "z") in engine.relation("path")
        assert ("s", "l") not in engine.relation("path")

    def test_delete_missing_is_noop(self):
        engine = IncrementalEngine(TC)
        engine.start(Database.from_facts({"edge": [("a", "b")]}))
        assert engine.delete_fact("edge", ("x", "y")) == 0

    def test_delete_derived_rejected(self):
        engine = IncrementalEngine(TC)
        engine.start(Database.from_facts({"edge": [("a", "b")]}))
        with pytest.raises(SchemaError):
            engine.delete_fact("path", ("a", "b"))

    def test_delete_then_insert_roundtrip(self):
        engine = IncrementalEngine(TC)
        edges = [("a", "b"), ("b", "c")]
        engine.start(Database.from_facts({"edge": edges}))
        snapshot = engine.relation("path")
        engine.delete_fact("edge", ("b", "c"))
        engine.add_fact("edge", ("b", "c"))
        assert engine.relation("path") == snapshot

    def test_delete_negation_falls_back_to_recompute(self):
        engine = IncrementalEngine(NEGATION)
        engine.start(Database.from_facts({
            "node": [("a",), ("b",)], "edge": [("a", "x"), ("b", "y")]}))
        assert engine.relation("lone") == frozenset()
        gone = engine.delete_fact("edge", ("b", "y"))
        assert gone >= 1
        assert engine.relation("lone") == {("b",)}

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_update_sequences_match_scratch(self, data):
        """Interleaved inserts/deletes end in the same state as a fresh
        evaluation of the surviving facts, and every update returns the
        base tuple plus the derived tuples that appeared or disappeared.
        ``WEIGHTED`` has int columns, and its ``heavy`` starts empty."""
        for program, pred, start, columns in UPDATE_PROGRAMS:
            engine = IncrementalEngine(program)
            engine.start(Database.from_facts({pred: [start]}))
            heads = sorted(engine.program.head_predicates)
            live = {start}
            for _ in range(data.draw(st.integers(min_value=1,
                                                 max_value=10))):
                row = tuple(data.draw(st.sampled_from(column))
                            for column in columns)
                before = {p: engine.relation(p) for p in heads}
                if data.draw(st.booleans()) or row not in live:
                    changed = engine.add_fact(pred, row)
                    base_changed = row not in live
                    live.add(row)
                else:
                    changed = engine.delete_fact(pred, row)
                    base_changed = True
                    live.discard(row)
                flipped = sum(len(before[p] ^ engine.relation(p))
                              for p in heads)
                assert changed == (1 + flipped if base_changed else 0)
            scratch = DatalogEngine(program).run(
                Database.from_facts({pred: sorted(live)})) if live else None
            for p in heads:
                assert engine.relation(p) == (
                    scratch.tuples(p) if scratch is not None else frozenset())
                if engine.relation(p):
                    assert engine.database().relation(p).schema == \
                        scratch.relation(p).schema
