"""Tests for ID-functions and ID-relations (paper Section 2.1, Example 1)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.choicelog import block_digest, choice_records
from repro.core.idrelations import (canonical_id_function,
                                    count_id_functions,
                                    enumerate_id_functions, group_key,
                                    id_relations_of, make_id_relation,
                                    random_id_function, sub_relations,
                                    validate_id_function)
from repro.datalog.database import Relation
from repro.errors import SchemaError

# The paper's Example 1 relation r = {(a,c), (a,d), (b,c)}.
R_EXAMPLE1 = Relation(2, tuples=[("a", "c"), ("a", "d"), ("b", "c")])

relations = st.lists(
    st.tuples(st.sampled_from("ab"), st.sampled_from("cdef")),
    min_size=0, max_size=8).map(lambda rows: Relation(2, tuples=rows))
groupings = st.sampled_from([frozenset(), frozenset({1}), frozenset({2}),
                             frozenset({1, 2})])


class TestSubRelations:
    def test_example1_blocks(self):
        """Sub-relations of r grouped by the first attribute (Example 1)."""
        blocks = sub_relations(R_EXAMPLE1, frozenset({1}))
        assert blocks == {
            ("a",): [("a", "c"), ("a", "d")],
            ("b",): [("b", "c")]}

    def test_empty_grouping_single_block(self):
        blocks = sub_relations(R_EXAMPLE1, frozenset())
        assert list(blocks) == [()]
        assert len(blocks[()]) == 3

    def test_full_grouping_singleton_blocks(self):
        blocks = sub_relations(R_EXAMPLE1, frozenset({1, 2}))
        assert all(len(rows) == 1 for rows in blocks.values())

    def test_bad_position_rejected(self):
        with pytest.raises(SchemaError):
            sub_relations(R_EXAMPLE1, frozenset({3}))

    def test_group_key_orders_positions(self):
        assert group_key(("x", "y", "z"), frozenset({3, 1})) == ("x", "z")

    @given(relations, groupings)
    def test_blocks_partition_relation(self, relation, group):
        blocks = sub_relations(relation, group)
        rows = [row for block in blocks.values() for row in block]
        assert sorted(map(repr, rows)) == sorted(map(repr, relation))


class TestIdFunctions:
    def test_canonical_is_valid(self):
        fn = canonical_id_function(R_EXAMPLE1, frozenset({1}))
        validate_id_function(R_EXAMPLE1, frozenset({1}), fn)

    def test_canonical_deterministic(self):
        g = frozenset({1})
        assert canonical_id_function(R_EXAMPLE1, g) == \
            canonical_id_function(R_EXAMPLE1, g)

    def test_random_is_valid(self):
        rng = random.Random(7)
        for _ in range(20):
            fn = random_id_function(R_EXAMPLE1, frozenset(), rng)
            validate_id_function(R_EXAMPLE1, frozenset(), fn)

    def test_random_covers_all_functions(self):
        rng = random.Random(0)
        seen = set()
        for _ in range(200):
            fn = random_id_function(R_EXAMPLE1, frozenset({1}), rng)
            seen.add(tuple(sorted(fn.items())))
        assert len(seen) == 2  # Example 1: exactly two ID-relations on {1}

    def test_validate_rejects_non_bijection(self):
        fn = {("a",): [("a", "c")], ("b",): [("b", "c")]}
        with pytest.raises(SchemaError, match="not a bijection"):
            validate_id_function(R_EXAMPLE1, frozenset({1}), fn)

    def test_explicit_orderings_valid(self):
        fn = {("a",): [("a", "c"), ("a", "d")], ("b",): [("b", "c")]}
        validate_id_function(R_EXAMPLE1, frozenset({1}), fn)
        assert ("a", "c", 0) in make_id_relation(R_EXAMPLE1, fn)

    @pytest.mark.parametrize("fn", [
        {("a",): [("a", "c"), ("a", "d")]},
        {("a",): [("a", "c"), ("a", "d")], ("b",): [("b", "c")],
         ("z",): [("z", "c")]},
        {("a",): [("a", "c"), ("a", "d"), ("a", "c")], ("b",): [("b", "c")]},
        {("a",): [("a", "c"), ("b", "c")], ("b",): [("b", "c")]},
    ], ids=["missing_block", "extra_block", "duplicate_tuple",
            "foreign_tuple"])
    def test_validate_rejects_malformed(self, fn):
        with pytest.raises(SchemaError):
            validate_id_function(R_EXAMPLE1, frozenset({1}), fn)

    @given(relations, groupings)
    @settings(max_examples=50)
    def test_random_always_valid(self, relation, group):
        fn = random_id_function(relation, group, random.Random(3))
        validate_id_function(relation, group, fn)

    @given(relations, groupings,
           st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
           st.integers(min_value=0, max_value=99))
    @settings(max_examples=60)
    def test_choice_records_match_partitioned_blocks(self, relation, group,
                                                     limit, seed):
        """Records built from a draw digest and size each block as a
        re-partition of the base would, and keep the drawn prefix."""
        fn = random_id_function(relation, group, random.Random(seed))
        blocks = sub_relations(relation, group)
        records = choice_records("r", group, fn, limit)
        assert [rec.block for rec in records] == sorted(blocks, key=repr)
        for rec in records:
            assert rec.block_digest == block_digest(blocks[rec.block])
            assert rec.block_size == len(blocks[rec.block])
            assert rec.ordering == fn[rec.block][:limit]


class TestCounting:
    def test_example1_count(self):
        """Example 1: two ID-relations of r on {1}."""
        assert count_id_functions(R_EXAMPLE1, frozenset({1})) == 2

    def test_empty_grouping_count(self):
        assert count_id_functions(R_EXAMPLE1, frozenset()) == math.factorial(3)

    def test_limit_reduces_count(self):
        r = Relation(1, tuples=[(c,) for c in "abcde"])
        assert count_id_functions(r, frozenset()) == 120
        assert count_id_functions(r, frozenset(), limit=1) == 5
        assert count_id_functions(r, frozenset(), limit=2) == 20

    def test_limit_beyond_block_size(self):
        assert count_id_functions(R_EXAMPLE1, frozenset({1}), limit=10) == 2

    def test_empty_relation(self):
        assert count_id_functions(Relation(2), frozenset({1})) == 1

    @given(relations, groupings)
    @settings(max_examples=40)
    def test_enumeration_matches_count(self, relation, group):
        functions = list(enumerate_id_functions(relation, group))
        assert len(functions) == count_id_functions(relation, group)

    @given(relations, groupings, st.integers(min_value=1, max_value=3))
    @settings(max_examples=40)
    def test_limited_enumeration_matches_count(self, relation, group, limit):
        functions = list(enumerate_id_functions(relation, group, limit))
        assert len(functions) == count_id_functions(relation, group, limit)


class TestEnumeration:
    def test_example1_two_id_relations(self):
        """The paper lists both ID-relations of r on {1} explicitly."""
        found = {rel.frozen()
                 for rel in id_relations_of(R_EXAMPLE1, frozenset({1}))}
        assert found == {
            frozenset({("a", "c", 1), ("a", "d", 0), ("b", "c", 0)}),
            frozenset({("a", "c", 0), ("a", "d", 1), ("b", "c", 0)})}

    def test_functions_distinct(self):
        fns = [tuple(sorted(fn.items()))
               for fn in enumerate_id_functions(R_EXAMPLE1, frozenset())]
        assert len(fns) == len(set(fns)) == 6

    def test_empty_relation_yields_empty_function(self):
        assert list(enumerate_id_functions(Relation(1), frozenset())) == [{}]

    @given(relations, groupings)
    @settings(max_examples=25)
    def test_every_enumerated_function_valid(self, relation, group):
        for fn in enumerate_id_functions(relation, group):
            validate_id_function(relation, group, fn)

    def test_limited_functions_are_prefixes(self):
        r = Relation(1, tuples=[("a",), ("b",), ("c",)])
        for fn in enumerate_id_functions(r, frozenset(), limit=2):
            assert list(fn) == [()]
            assert len(fn[()]) == 2


class TestMakeIdRelation:
    def test_arity_extended(self):
        fn = canonical_id_function(R_EXAMPLE1, frozenset({1}))
        rel = make_id_relation(R_EXAMPLE1, fn)
        assert rel.arity == 3
        assert len(rel) == 3

    def test_tids_within_blocks(self):
        fn = canonical_id_function(R_EXAMPLE1, frozenset({1}))
        rel = make_id_relation(R_EXAMPLE1, fn)
        a_tids = {row[2] for row in rel if row[0] == "a"}
        assert a_tids == {0, 1}

    def test_limit_truncates(self):
        r = Relation(1, tuples=[("a",), ("b",), ("c",)])
        fn = canonical_id_function(r, frozenset())
        rel = make_id_relation(r, fn, limit=1)
        assert len(rel) == 1
        assert next(iter(rel))[1] == 0

    def test_partial_function_without_limit_rejected(self):
        r = Relation(1, tuples=[("a",), ("b",)])
        with pytest.raises(SchemaError):
            make_id_relation(r, {(): [("a",)]})
        with pytest.raises(SchemaError, match="undefined on"):
            make_id_relation(r, {(): [("a",), ("z",)]})

    @given(relations, groupings)
    @settings(max_examples=25)
    def test_projection_recovers_base(self, relation, group):
        fn = canonical_id_function(relation, group)
        rel = make_id_relation(relation, fn)
        assert rel.project(tuple(range(relation.arity))).frozen() == \
            relation.frozen()


class TestEdgeCases:
    """Boundary behavior the record/replay machinery leans on."""

    def test_random_on_empty_relation_is_empty(self):
        empty = Relation(2)
        fn = random_id_function(empty, frozenset({1}), random.Random(0))
        assert fn == {}
        validate_id_function(empty, frozenset({1}), fn)

    def test_enumerate_on_empty_relation_yields_one_empty_function(self):
        empty = Relation(2)
        fns = list(enumerate_id_functions(empty, frozenset({1})))
        assert fns == [{}]

    def test_single_tuple_blocks_admit_exactly_one_function(self):
        # Grouping on every column makes each block a singleton, so the
        # only bijection onto {0} maps every tuple to tid 0.
        group = frozenset({1, 2})
        assert count_id_functions(R_EXAMPLE1, group) == 1
        fns = list(enumerate_id_functions(R_EXAMPLE1, group))
        assert len(fns) == 1
        assert all(len(ordering) == 1 for ordering in fns[0].values())
        for seed in range(5):
            assert random_id_function(
                R_EXAMPLE1, group, random.Random(seed)) == fns[0]

    def test_same_seed_is_deterministic_across_rng_instances(self):
        group = frozenset({1})
        draws = [random_id_function(R_EXAMPLE1, group, random.Random(42))
                 for _ in range(2)]
        assert draws[0] == draws[1]

    def test_same_seed_is_deterministic_across_engine_constructions(self):
        # Two independently constructed engines given the same seed must
        # sample the same answer — the property engine.one(record=...)
        # plus replay() turns into a cross-process guarantee.
        from repro.core import IdlogEngine
        from repro.datalog.database import Database
        program = "pick(N) :- emp[2](N, D, T), T < 1.\n"
        facts = {"emp": [("ann", "toys"), ("bob", "toys"),
                         ("joe", "shoes"), ("sue", "shoes")]}
        answers = [
            IdlogEngine(program).one(
                Database.from_facts(facts), seed=9).tuples("pick")
            for _ in range(2)]
        assert answers[0] == answers[1]
