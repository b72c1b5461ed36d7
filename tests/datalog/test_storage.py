"""Tests for directory-based database persistence."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.database import Database, Relation
from repro.datalog.storage import (SCHEMA_FILE, directory_stats,
                                   load_database, save_database)
from repro.datalog.terms import Sort
from repro.errors import SchemaError


def sample_db():
    return Database.from_facts({
        "emp": [("ann", "toys"), ("bob", "it")],
        "score": [("ann", 10), ("bob", 7)],
    }, udomain=["ann", "bob", "toys", "it", "spare"])


class TestRoundTrip:
    def test_snapshot_identical(self, tmp_path):
        db = sample_db()
        save_database(db, str(tmp_path / "snap"))
        back = load_database(str(tmp_path / "snap"))
        assert back.snapshot() == db.snapshot()

    def test_udomain_preserved(self, tmp_path):
        db = sample_db()
        save_database(db, str(tmp_path / "snap"))
        back = load_database(str(tmp_path / "snap"))
        assert "spare" in back.udomain

    def test_numeric_columns_stay_numeric(self, tmp_path):
        db = sample_db()
        save_database(db, str(tmp_path / "snap"))
        back = load_database(str(tmp_path / "snap"))
        assert ("ann", 10) in back.relation("score")
        assert back.relation("score").schema == (Sort.U, Sort.I)

    def test_empty_relation_preserved(self, tmp_path):
        db = Database({"ghost": Relation(3, schema=(Sort.U,) * 3)})
        save_database(db, str(tmp_path / "snap"))
        back = load_database(str(tmp_path / "snap"))
        assert back.relation("ghost").arity == 3
        assert len(back.relation("ghost")) == 0

    @given(rows=st.lists(st.tuples(st.sampled_from("abc"),
                                   st.integers(min_value=0, max_value=99)),
                         min_size=1, max_size=10))
    @settings(max_examples=15, deadline=None)
    def test_random_roundtrip(self, rows, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("snap"))
        db = Database.from_facts({"r": rows})
        save_database(db, directory)
        assert load_database(directory).snapshot() == db.snapshot()


class TestFormat1Reader:
    def test_hand_written_v1_directory_loads(self, tmp_path):
        # The legacy layout: no "format" key, value-level CSVs, sort-i
        # columns named only by the type string.
        (tmp_path / SCHEMA_FILE).write_text(json.dumps({
            "relations": {"emp": {"arity": 2, "type": "00"},
                          "score": {"arity": 2, "type": "01"},
                          "ghost": {"arity": 1, "type": "0"}},
            "udomain": ["ann", "bob", "it", "spare", "toys"]}))
        (tmp_path / "emp.csv").write_text("ann,toys\nbob,it\n")
        (tmp_path / "score.csv").write_text("ann,10\nbob,7\n")
        (tmp_path / "ghost.csv").write_text("")
        back = load_database(str(tmp_path))
        assert back.snapshot() == {
            "emp": frozenset({("ann", "toys"), ("bob", "it")}),
            "score": frozenset({("ann", 10), ("bob", 7)}),
            "ghost": frozenset()}
        assert back.udomain == {"ann", "bob", "it", "spare", "toys"}
        assert back.relation("score").schema == (Sort.U, Sort.I)


class TestErrors:
    def test_missing_schema_file(self, tmp_path):
        with pytest.raises(SchemaError):
            load_database(str(tmp_path))

    def test_unsafe_relation_name(self, tmp_path):
        db = Database({"../evil": Relation(1)})
        with pytest.raises(SchemaError):
            save_database(db, str(tmp_path / "snap"))

    def test_corrupted_schema_arity(self, tmp_path):
        directory = tmp_path / "snap"
        save_database(sample_db(), str(directory))
        schema_path = directory / SCHEMA_FILE
        schema = json.loads(schema_path.read_text())
        schema["relations"]["emp"]["arity"] = 5
        schema_path.write_text(json.dumps(schema))
        with pytest.raises(SchemaError):
            load_database(str(directory))

    def test_schema_file_lists_relations(self, tmp_path):
        directory = tmp_path / "snap"
        save_database(sample_db(), str(directory))
        schema = json.loads((directory / SCHEMA_FILE).read_text())
        assert set(schema["relations"]) == {"emp", "score"}
        assert schema["relations"]["score"]["type"] == "01"
        assert os.path.exists(directory / "emp.csv")


class TestDirectoryStats:
    def test_reports_rows_and_bytes(self, tmp_path):
        directory = tmp_path / "snap"
        save_database(sample_db(), str(directory))
        report = directory_stats(str(directory))
        assert report["relation_count"] == 2
        assert report["relations"]["emp"] == {
            "arity": 2, "rows": 2,
            "csv_bytes": os.path.getsize(directory / "emp.csv")}
        assert report["total_rows"] == 4
        assert report["total_csv_bytes"] == sum(
            s["csv_bytes"] for s in report["relations"].values())
        assert report["udomain_size"] == 5

    def test_counts_match_loaded_database(self, tmp_path):
        directory = tmp_path / "snap"
        save_database(sample_db(), str(directory))
        report = directory_stats(str(directory))
        loaded = load_database(str(directory))
        for name, info in report["relations"].items():
            assert info["rows"] == len(loaded.relation(name))
            assert info["arity"] == loaded.relation(name).arity

    def test_empty_relation_counts_zero_rows(self, tmp_path):
        directory = tmp_path / "snap"
        save_database(Database({"empty": Relation(2)}), str(directory))
        report = directory_stats(str(directory))
        assert report["relations"]["empty"]["rows"] == 0

    def test_missing_schema_raises(self, tmp_path):
        with pytest.raises(SchemaError):
            directory_stats(str(tmp_path))

    def test_missing_csv_raises(self, tmp_path):
        directory = tmp_path / "snap"
        save_database(sample_db(), str(directory))
        os.remove(directory / "emp.csv")
        with pytest.raises(SchemaError):
            directory_stats(str(directory))
