"""Tests for relations, indexes and databases."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datalog.database import (Database, Relation, relation_from_csv,
                                    relation_to_csv)
from repro.datalog.terms import Sort
from repro.errors import SchemaError

rows3 = st.lists(
    st.tuples(st.sampled_from("abcde"),
              st.sampled_from("xyz"),
              st.integers(min_value=0, max_value=5)),
    max_size=30)


class TestRelation:
    def test_add_and_contains(self):
        r = Relation(2)
        assert r.add(("a", "b"))
        assert not r.add(("a", "b"))  # duplicate
        assert ("a", "b") in r
        assert len(r) == 1

    def test_arity_mismatch(self):
        r = Relation(2)
        with pytest.raises(SchemaError):
            r.add(("a",))

    def test_schema_inferred_then_enforced(self):
        r = Relation(2)
        r.add(("a", 1))
        assert r.schema == (Sort.U, Sort.I)
        with pytest.raises(SchemaError):
            r.add(("a", "b"))

    def test_declared_schema_enforced(self):
        r = Relation(1, schema=(Sort.I,))
        with pytest.raises(SchemaError):
            r.add(("a",))

    def test_match_wildcards(self):
        r = Relation(2, tuples=[("a", "x"), ("a", "y"), ("b", "x")])
        assert sorted(r.match(("a", None))) == [("a", "x"), ("a", "y")]
        assert sorted(r.match((None, "x"))) == [("a", "x"), ("b", "x")]
        assert sorted(r.match((None, None))) == sorted(r)
        assert list(r.match(("c", None))) == []

    def test_index_sees_later_inserts(self):
        r = Relation(2, tuples=[("a", "x")])
        assert len(list(r.match(("a", None)))) == 1
        r.add(("a", "y"))
        assert len(list(r.match(("a", None)))) == 2

    def test_project(self):
        r = Relation(2, tuples=[("a", "x"), ("b", "x")])
        assert r.project((1,)).frozen() == {("x",)}

    def test_u_constants(self):
        r = Relation(2, tuples=[("a", 1), ("b", 2)])
        assert r.u_constants() == {"a", "b"}

    def test_copy_independent(self):
        r = Relation(1, tuples=[("a",)])
        c = r.copy()
        c.add(("b",))
        assert len(r) == 1 and len(c) == 2

    def test_relation_not_hashable(self):
        with pytest.raises(TypeError):
            hash(Relation(1))

    def test_equality(self):
        assert Relation(1, tuples=[("a",)]) == Relation(1, tuples=[("a",)])
        assert Relation(1, tuples=[("a",)]) != Relation(1, tuples=[("b",)])

    @given(rows3)
    def test_match_agrees_with_filter(self, rows):
        r = Relation(3, tuples=rows)
        for pattern in [(None, None, None), ("a", None, None),
                        (None, "x", 1), ("a", "x", None)]:
            expected = {row for row in set(rows)
                        if all(p is None or p == v
                               for p, v in zip(pattern, row))}
            assert set(r.match(pattern)) == expected


class TestDatabase:
    def test_from_facts(self):
        db = Database.from_facts({"emp": [("ann", "toys")]})
        assert db.relation("emp").arity == 2

    def test_from_facts_empty_relation_rejected(self):
        with pytest.raises(SchemaError):
            Database.from_facts({"emp": []})

    def test_udomain_inferred(self):
        db = Database.from_facts({"emp": [("ann", "toys"), ("bob", "toys")]})
        assert db.udomain == {"ann", "bob", "toys"}

    def test_udomain_declared_extends(self):
        db = Database.from_facts({"p": [("a",)]}, udomain=["a", "b"])
        assert db.udomain == {"a", "b"}

    def test_add_fact_creates_relation(self):
        db = Database()
        db.add_fact("p", ("a", 1))
        assert ("a", 1) in db.relation("p")

    def test_add_relation_no_clobber(self):
        db = Database.from_facts({"p": [("a",)]})
        with pytest.raises(SchemaError):
            db.add_relation("p", Relation(1))
        db.add_relation("p", Relation(1), replace=True)
        assert len(db.relation("p")) == 0

    def test_relation_or_empty(self):
        db = Database()
        r = db.relation_or_empty("ghost", 3)
        assert r.arity == 3 and len(r) == 0

    def test_copy_isolated(self):
        db = Database.from_facts({"p": [("a",)]})
        clone = db.copy()
        clone.add_fact("p", ("b",))
        assert len(db.relation("p")) == 1

    def test_snapshot_hashable(self):
        db = Database.from_facts({"p": [("a",)]})
        snap = db.snapshot()
        assert snap == {"p": frozenset({("a",)})}


class TestCsv:
    def test_roundtrip(self):
        r = Relation(2, tuples=[("ann", 3), ("bob", 1)])
        text = relation_to_csv(r)
        back = relation_from_csv(text, numeric_columns=[1])
        assert back == r

    def test_numeric_columns(self):
        r = relation_from_csv("a,1\nb,2\n", numeric_columns=[1])
        assert ("a", 1) in r

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            relation_from_csv("")

    def test_deterministic_order(self):
        r = Relation(1, tuples=[("b",), ("a",)])
        assert relation_to_csv(r) == "a\nb\n"


class TestDiscard:
    def test_discard_removes(self):
        r = Relation(2, tuples=[("a", "x"), ("b", "y")])
        assert r.discard(("a", "x"))
        assert ("a", "x") not in r
        assert len(r) == 1

    def test_discard_missing_false(self):
        r = Relation(1, tuples=[("a",)])
        assert not r.discard(("z",))

    def test_discard_maintains_indexes(self):
        r = Relation(2, tuples=[("a", "x"), ("a", "y")])
        assert len(list(r.match(("a", None)))) == 2  # builds the index
        r.discard(("a", "x"))
        assert list(r.match(("a", None))) == [("a", "y")]
        r.discard(("a", "y"))
        assert list(r.match(("a", None))) == []

    def test_discard_then_add_round_trip(self):
        r = Relation(1, tuples=[("a",)])
        r.index_on_coded((0,))
        r.discard(("a",))
        r.add(("a",))
        assert list(r.match(("a",))) == [("a",)]


class TestBulkPaths:
    """The trusted fast paths added for the batch executor: copy without
    re-validation and bulk-update index invalidation."""

    def test_copy_preserves_schema_without_revalidation(self):
        r = Relation(2, tuples=[("a", 1), ("b", 2)])
        clone = r.copy()
        assert clone.schema == r.schema
        assert clone.frozen() == r.frozen()
        clone.add(("c", 3))
        assert ("c", 3) not in r
        with pytest.raises(SchemaError):
            clone.add((1, "oops"))  # schema still enforced on the clone

    def test_copy_of_empty_keeps_declared_schema(self):
        r = Relation(1, schema=(1,))
        clone = r.copy()
        with pytest.raises(SchemaError):
            clone.add(("u-value",))

    def test_bulk_update_invalidates_then_rebuilds_indexes(self):
        r = Relation(1, tuples=[("a",)])
        r.index_on_coded((0,))
        burst = [(f"v{i}",) for i in range(Relation.BULK_REINDEX_THRESHOLD)]
        added = r.update(burst)
        assert added == len(burst)
        # Lazily rebuilt index sees both old and new rows.
        assert list(r.match(("a",))) == [("a",)]
        assert list(r.match(("v7",))) == [("v7",)]

    def test_small_update_keeps_indexes_live(self):
        r = Relation(1, tuples=[("a",)])
        r.index_on_coded((0,))
        r.update([("b",), ("c",)])
        assert list(r.match(("b",))) == [("b",)]


class TestMemoryStats:
    def test_relation_shape(self):
        r = Relation(2, tuples=[("a", "x"), ("b", "y")])
        r.index_on_coded((0,))
        report = r.memory_stats()
        assert report["rows"] == 2
        assert report["arity"] == 2
        assert report["indexes"] == 1
        assert report["index_buckets"] == 2  # two distinct first columns
        assert report["approx_bytes"] > 0

    def test_bytes_grow_with_content(self):
        small = Relation(1, tuples=[("a",)])
        big = Relation(1, tuples=[(f"value{i}",) for i in range(100)])
        assert big.memory_stats()["approx_bytes"] \
            > small.memory_stats()["approx_bytes"]

    def test_shared_objects_counted_once(self):
        # Both relations hold the SAME tuple objects; an id-deduplicating
        # fold must not double them when indexes alias the tuple set.
        r = Relation(2, tuples=[("a", "x")])
        no_index = r.memory_stats()["approx_bytes"]
        r.index_on_coded((0,))
        with_index = r.memory_stats()["approx_bytes"]
        # The index adds dict/set/key overhead but NOT a second copy of
        # the tuples themselves (they are shared by identity).
        assert with_index > no_index
        assert with_index - no_index < no_index + 500

    def test_database_stats_totals(self):
        db = Database.from_facts({
            "emp": [("ann", "toys"), ("bob", "it")],
            "dept": [("toys",), ("it",)],
        }, udomain=["ann", "bob", "toys", "it"])
        report = db.stats()
        assert report["relation_count"] == 2
        assert report["total_rows"] == 4
        assert report["udomain_size"] == 4
        assert set(report["relations"]) == {"emp", "dept"}
        assert report["total_approx_bytes"] == sum(
            s["approx_bytes"] for s in report["relations"].values())

    def test_stats_is_json_ready(self):
        import json
        db = Database.from_facts({"p": [("a",)]})
        assert json.loads(json.dumps(db.stats()))["total_rows"] == 1


class TestCodedApi:
    """The executor-facing coded surface of the columnar Relation."""

    def test_coded_rows_decode_back(self):
        from repro.datalog.pool import GLOBAL_POOL
        r = Relation(2, tuples=[("ann", 10), ("bob", 7)])
        decoded = {GLOBAL_POOL.decode_row(row) for row in r.coded_rows()}
        assert decoded == {("ann", 10), ("bob", 7)}

    def test_coded_columns_are_int_arrays(self):
        from array import array
        r = Relation(2, tuples=[("ann", 10)])
        cols = r.coded_columns()
        assert len(cols) == 2
        assert all(isinstance(col, array) and col.typecode == "q"
                   for col in cols)

    def test_index_on_coded_uses_bare_scalar_keys(self):
        from repro.datalog.pool import GLOBAL_POOL
        r = Relation(2, tuples=[("ann", "toys"), ("bob", "toys"),
                                ("cat", "it")])
        index = r.index_on_coded((1,))
        toys = GLOBAL_POOL.encode("toys")
        assert len(index[toys]) == 2
        assert set(index) == {toys, GLOBAL_POOL.encode("it")}

    def test_contains_coded(self):
        from repro.datalog.pool import GLOBAL_POOL
        r = Relation(1, tuples=[("x",)])
        assert r.contains_coded((GLOBAL_POOL.encode("x"),))
        assert not r.contains_coded((GLOBAL_POOL.encode("unseen-xyz"),))

    def test_extend_coded_appends_known_new_rows(self):
        from repro.datalog.pool import GLOBAL_POOL
        r = Relation(2, tuples=[("a", 1)])
        fresh = [GLOBAL_POOL.encode_row(("b", 2)),
                 GLOBAL_POOL.encode_row(("c", 3))]
        r.extend_coded(fresh)
        assert len(r) == 3
        assert ("b", 2) in r and ("c", 3) in r

    def test_extend_coded_maintains_live_indexes(self):
        from repro.datalog.pool import GLOBAL_POOL
        r = Relation(2, tuples=[("a", "g"), ("b", "g")])
        index = r.index_on_coded((1,))
        g = GLOBAL_POOL.encode("g")
        assert len(index[g]) == 2
        r.extend_coded([GLOBAL_POOL.encode_row(("c", "g"))])
        assert len(r.index_on_coded((1,))[g]) == 3

    def test_extend_coded_validates_first_row_sorts(self):
        from repro.datalog.pool import GLOBAL_POOL
        r = Relation(2, tuples=[("a", 1)])  # schema inferred as u, i
        with pytest.raises(SchemaError):
            r.extend_coded([GLOBAL_POOL.encode_row((5, "oops"))])

    def test_drop_indexes_rebuilds_lazily(self):
        from repro.datalog.pool import GLOBAL_POOL
        r = Relation(2, tuples=[("a", "g")])
        r.index_on_coded((0,))
        assert r.memory_stats()["indexes"] == 1
        r.drop_indexes()
        assert r.memory_stats()["indexes"] == 0
        a = GLOBAL_POOL.encode("a")
        assert r.index_on_coded((0,))[a] == [0]

    def test_match_after_extend(self):
        from repro.datalog.pool import GLOBAL_POOL
        r = Relation(2, tuples=[("a", "g")])
        assert set(r.match(("a", None))) == {("a", "g")}
        r.extend_coded([GLOBAL_POOL.encode_row(("a", "h"))])
        assert set(r.match(("a", None))) == {("a", "g"), ("a", "h")}

    def test_discard_then_extend_roundtrip(self):
        from repro.datalog.pool import GLOBAL_POOL
        r = Relation(1, tuples=[("a",), ("b",), ("c",)])
        assert r.discard(("b",))
        r.extend_coded([GLOBAL_POOL.encode_row(("d",))])
        assert r.frozen() == frozenset({("a",), ("c",), ("d",)})


class TestCodedDelta:
    def test_wraps_rows_without_copying(self):
        from repro.datalog.database import CodedDelta
        from repro.datalog.pool import GLOBAL_POOL
        rows = [GLOBAL_POOL.encode_row(("a", "b")),
                GLOBAL_POOL.encode_row(("c", "d"))]
        delta = CodedDelta(rows)
        assert len(delta) == 2
        assert delta.coded_rows() is rows

    def test_lazy_coded_columns(self):
        from repro.datalog.database import CodedDelta
        from repro.datalog.pool import GLOBAL_POOL
        rows = [GLOBAL_POOL.encode_row(("a", "b"))]
        delta = CodedDelta(rows)
        cols = delta.coded_columns()
        assert [GLOBAL_POOL.decode(col[0]) for col in cols] == ["a", "b"]
        assert delta.coded_columns() is cols

    def test_index_on_coded_matches_relation_semantics(self):
        from repro.datalog.database import CodedDelta
        from repro.datalog.pool import GLOBAL_POOL
        rows = [GLOBAL_POOL.encode_row(("a", "g")),
                GLOBAL_POOL.encode_row(("b", "g"))]
        delta = CodedDelta(rows)
        g = GLOBAL_POOL.encode("g")
        assert delta.index_on_coded((1,))[g] == [0, 1]
        key = (GLOBAL_POOL.encode("a"), g)
        assert delta.index_on_coded((0, 1))[key] == [0]
