"""Tests for stable-model enumeration (paper §3.2) and the containment of
stable-model queries in stratified IDLOG (experiment E12's claim)."""

import pytest

from repro.datalog.database import Database
from repro.errors import EvaluationError
from repro.stable import StableEngine
from repro.wellfounded import WellFoundedEngine

CHOICE = """
    man(X) :- person(X), not woman(X).
    woman(X) :- person(X), not man(X).
"""


class TestStableModels:
    def test_choice_program_two_models_per_person(self):
        engine = StableEngine(CHOICE)
        db = Database.from_facts({"person": [("a",), ("b",)]})
        models = engine.stable_models(db)
        assert len(models) == 4  # 2 classifications per person

    def test_each_model_classifies_everyone(self):
        engine = StableEngine(CHOICE)
        db = Database.from_facts({"person": [("a",), ("b",)]})
        for model in engine.stable_models(db):
            men = {r for n, r in model if n == "man"}
            women = {r for n, r in model if n == "woman"}
            assert men | women == {("a",), ("b",)}
            assert not (men & women)

    def test_stratified_program_unique_model(self):
        engine = StableEngine("""
            linked(X) :- edge(X, Y).
            lone(X) :- node(X), not linked(X).
        """)
        db = Database.from_facts({"node": [("a",), ("b",)],
                                  "edge": [("a", "b")]})
        models = engine.stable_models(db)
        assert len(models) == 1
        assert engine.answers(db, "lone") == {frozenset({("b",)})}

    def test_win_move_game(self):
        """The classic non-stratified win/move program."""
        engine = StableEngine("win(X) :- move(X, Y), not win(Y).")
        db = Database.from_facts({"move": [("a", "b"), ("b", "c")]})
        assert engine.answers(db, "win") == {frozenset({("b",)})}

    def test_win_move_even_cycle_two_models(self):
        """A 2-cycle game: either player winning is stable."""
        engine = StableEngine("win(X) :- move(X, Y), not win(Y).")
        db = Database.from_facts({"move": [("a", "b"), ("b", "a")]})
        assert engine.answers(db, "win") == {
            frozenset({("a",)}), frozenset({("b",)})}

    def test_win_move_odd_cycle_no_stable_model(self):
        """A 3-cycle game (odd negative loop) has no stable model."""
        engine = StableEngine("win(X) :- move(X, Y), not win(Y).")
        db = Database.from_facts({
            "move": [("a", "b"), ("b", "c"), ("c", "a")]})
        assert engine.stable_models(db) == frozenset()

    def test_odd_loop_no_model(self):
        engine = StableEngine("p(X) :- e(X), not p(X).")
        db = Database.from_facts({"e": [("a",)]})
        assert engine.stable_models(db) == frozenset()

    def test_even_loop_two_models(self):
        engine = StableEngine("""
            p(X) :- e(X), not q(X).
            q(X) :- e(X), not p(X).
        """)
        db = Database.from_facts({"e": [("a",)]})
        assert len(engine.stable_models(db)) == 2

    def test_candidate_cap(self):
        engine = StableEngine(CHOICE)
        db = Database.from_facts({"person": [(f"p{i}",) for i in range(12)]})
        with pytest.raises(EvaluationError):
            engine.stable_models(db, max_candidates=16)

    def test_upper_bound_contains_all_models(self):
        engine = StableEngine(CHOICE)
        db = Database.from_facts({"person": [("a",)]})
        bound = engine.upper_bound(db)
        for model in engine.stable_models(db):
            assert model <= bound


@pytest.mark.parametrize("call", [
    lambda db: StableEngine(CHOICE).stable_models(db),
    lambda db: WellFoundedEngine(CHOICE).model(db),
], ids=["stable_models", "well_founded_model"])
def test_envelope_evaluated_once_per_call(monkeypatch, call):
    import repro.stable.models as models
    calls, real = [], models.evaluate

    def counted(program, *args, **kwargs):
        calls.append(program.name)
        return real(program, *args, **kwargs)

    monkeypatch.setattr(models, "evaluate", counted)
    call(Database.from_facts({"person": [("a",), ("b",)]}))
    assert calls == ["envelope"]


class TestStableVsIdlog:
    """Stable-model queries are definable in stratified IDLOG (the paper's
    §3.2 claim via Theorem 6).  For the choice program the IDLOG Example 2
    program defines exactly the same query."""

    def test_choice_program_equals_idlog_example2(self):
        from repro.core import IdlogEngine
        stable = StableEngine(CHOICE)
        idlog = IdlogEngine("""
            sex_guess(X, male) :- person(X).
            sex_guess(X, female) :- person(X).
            man(X) :- sex_guess[1](X, male, 1).
            woman(X) :- sex_guess[1](X, female, 1).
        """)
        for people in ([("a",)], [("a",), ("b",)]):
            db = Database.from_facts({"person": people})
            assert stable.answers(db, "man") == idlog.answers(db, "man")
