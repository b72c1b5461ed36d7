"""Differential properties of the columnar batch engine against the oracle.

The oracle is :func:`repro.testing.evaluate_naive` — plain
naive rounds of the tuple-at-a-time ``evaluate_clause`` over the
value-level ``Relation`` API — wrapped by :func:`repro.testing
.oracle_model` for IDLOG programs.  These tests drive randomly generated
stratified programs (negation + builtins) and IDLOG programs (ID-atoms)
through the engine under both plans and require the oracle's answers and
relation growth; for the nondeterministic sampling path the recorded
ChoiceLog must hold valid ID-functions and replay through the oracle to
the same answers.  Block digests are computed over decoded constants, so
the log is encoding-independent and the oracle can re-check them.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IdlogEngine
from repro.core.choicelog import ChoiceLog
from repro.core.idrelations import validate_id_function
from repro.datalog.seminaive import evaluate
from repro.testing import (evaluate_naive, oracle_model, random_edb,
                           random_idlog_program, random_stratified_program)

seeds = st.integers(min_value=0, max_value=10_000)
plans = st.sampled_from(("greedy", "cost"))


class TestStratifiedPrograms:
    @given(seeds, seeds)
    @settings(max_examples=40, deadline=None)
    def test_answers_and_counters_agree(self, pseed, dseed):
        """Negation + builtins: answers and relation growth must match."""
        rng = random.Random(pseed)
        program = random_stratified_program(
            rng, n_edb=3, n_idb=3, max_body_literals=3,
            allow_negation=True, allow_builtins=True)
        db = random_edb(program, random.Random(dseed))
        oracle, ostats = evaluate_naive(program, db)
        for plan in ("greedy", "cost"):
            batch, bstats = evaluate(program, db, plan=plan)
            for pred in sorted(program.head_predicates):
                assert batch.relation(pred).frozen() == \
                    oracle.relation(pred).frozen(), (pseed, dseed, pred)
            assert bstats.derived == ostats.derived, (pseed, dseed, plan)


class TestIdlogPrograms:
    @given(seeds, seeds, plans)
    @settings(max_examples=25, deadline=None)
    def test_canonical_models_and_counters_agree(self, pseed, dseed, plan):
        """Canonical runs equal the oracle's (canonical tids, no tid
        limits): with limits on, the answers — so the §4 tid-bound
        rewrite preserves every head relation; with them off, also the
        relation growth and the ID-relation sizes."""
        rng = random.Random(pseed)
        program = random_idlog_program(rng, n_edb=2, n_idb=2,
                                       max_body_literals=2)
        db = random_edb(program, random.Random(dseed), max_rows=4)
        oracle, ostats = oracle_model(program, db)
        limited = IdlogEngine(program, plan=plan).run(db)
        full = IdlogEngine(program, plan=plan,
                           use_group_limits=False).run(db)
        for pred in sorted(program.head_predicates):
            expected = oracle.relation(pred).frozen()
            assert limited.tuples(pred) == expected, (pseed, dseed, pred)
            assert full.tuples(pred) == expected, (pseed, dseed, pred)
        assert full.stats.derived == ostats.derived, (pseed, dseed)
        assert full.stats.id_tuples == ostats.id_tuples, (pseed, dseed)

    @given(seeds, seeds, plans)
    @settings(max_examples=15, deadline=None)
    def test_choice_logs_digest_identically(self, pseed, dseed, plan):
        """A seeded one() records an ID-function that is a bijection onto
        0..k-1 on every block, and the log — block digests included —
        replays through the oracle to the same answers."""
        rng = random.Random(pseed)
        program = random_idlog_program(rng, n_edb=1, n_idb=2,
                                       max_body_literals=2)
        db = random_edb(program, random.Random(dseed), max_rows=4)
        log = ChoiceLog()
        sample = IdlogEngine(program, plan=plan, use_group_limits=False) \
            .one(db, seed=pseed, record=log)
        for pred, group in sample.id_relations:
            id_function = {
                block: rec.ordering
                for block, rec in log.records_for(pred, group).items()}
            validate_id_function(sample.relation(pred), group, id_function)
        replayed, _ = oracle_model(program, db, log)
        for pred in sorted(program.head_predicates):
            assert replayed.relation(pred).frozen() == sample.tuples(pred), \
                (pseed, dseed, pred)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_cross_engine_replay(self, seed):
        """A log recorded by the engine (tid limits on) replays through
        the oracle to the recorded answers."""
        rng = random.Random(seed)
        program = random_idlog_program(rng, n_edb=1, n_idb=2,
                                       max_body_literals=2)
        db = random_edb(program, random.Random(seed + 1), max_rows=4)
        log = ChoiceLog()
        recorded = IdlogEngine(program).one(db, seed=seed, record=log)
        replayed, _ = oracle_model(program, db, log)
        for pred in sorted(program.head_predicates):
            assert recorded.tuples(pred) == \
                replayed.relation(pred).frozen(), (seed, pred)
