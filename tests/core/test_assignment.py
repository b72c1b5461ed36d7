"""Tests for tid-assignment strategies."""

import pytest

from repro.core.assignment import (CanonicalAssignment, OracleAssignment,
                                   RandomAssignment)
from repro.core.engine import IdlogEngine
from repro.core.idrelations import validate_id_function
from repro.datalog.database import Database, Relation
from repro.errors import EvaluationError, SchemaError

R = Relation(2, tuples=[("a", "c"), ("a", "d"), ("b", "c")])
G1 = frozenset({1})


class TestCanonical:
    def test_deterministic(self):
        strategy = CanonicalAssignment()
        assert strategy.id_function("r", G1, R) == \
            strategy.id_function("r", G1, R)

    def test_valid(self):
        fn = CanonicalAssignment().id_function("r", G1, R)
        validate_id_function(R, G1, fn)


class TestRandom:
    def test_seeded_reproducible(self):
        a = RandomAssignment(5).id_function("r", G1, R)
        b = RandomAssignment(5).id_function("r", G1, R)
        assert a == b

    def test_always_valid(self):
        strategy = RandomAssignment(0)
        for _ in range(20):
            validate_id_function(R, G1, strategy.id_function("r", G1, R))

    def test_successive_calls_vary(self):
        strategy = RandomAssignment(0)
        results = {tuple(sorted(strategy.id_function("r", frozenset(), R)
                                .items()))
                   for _ in range(40)}
        assert len(results) > 1


class TestOracle:
    def test_lookup(self):
        fn = {("a",): [("a", "d"), ("a", "c")], ("b",): [("b", "c")]}
        oracle = OracleAssignment({("r", G1): fn})
        assert oracle.id_function("r", G1, R) is fn

    def test_missing_raises(self):
        oracle = OracleAssignment({})
        with pytest.raises(EvaluationError):
            oracle.id_function("r", G1, R)

    def test_fallback(self):
        oracle = OracleAssignment({}, fallback=CanonicalAssignment())
        validate_id_function(R, G1, oracle.id_function("r", G1, R))

    def test_table_ordering_is_validated(self):
        # ("zz",) is no tuple of emp: no ID-function numbers it, so no
        # answer may contain pick(zz).
        db = Database.from_facts({"emp": [("a",), ("b",)]})
        table = {("emp", frozenset()): {(): (("a",), ("b",), ("zz",))}}
        engine = IdlogEngine("pick(N) :- emp[](N, T), T < 5.")
        with pytest.raises(SchemaError, match="bijection"):
            engine.run(db, OracleAssignment(table))
