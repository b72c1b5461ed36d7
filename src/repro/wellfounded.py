"""Well-founded semantics via the alternating fixpoint (Van Gelder).

The paper's §2.2 opens by citing the search for declarative semantics of
logic programs with negation — perfect models [Prz88], stable models
[GL88], and the well-founded semantics [VGRS88].  This module completes
the trio: a three-valued model assigning every ground atom *true*,
*false*, or *undefined*.

Algorithm (alternating fixpoint): with ``Γ(S)`` = least model of the
Gelfond–Lifschitz reduct w.r.t. ``S``, iterate ``U_{i+1} = Γ(Γ(U_i))``
from ``U_0 = ∅``; the sequence of under-estimates grows to the true
atoms, and ``Γ`` of the limit over-estimates to the non-false atoms.
Grounding reuses the machinery of :mod:`repro.stable.models`.

Relationships checked by the tests:

* on stratified programs the well-founded model is total and equals the
  perfect model;
* every stable model contains the well-founded true atoms and avoids the
  false ones;
* odd negative loops (no stable model) come out *undefined* rather than
  inconsistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .datalog.ast import Program
from .datalog.database import Database
from .datalog.parser import parse_program
from .stable.models import StableEngine, State


@dataclass(frozen=True)
class WellFoundedModel:
    """A three-valued model.

    Attributes:
        true: Atoms true in the well-founded model.
        false: Atoms false in it.
        undefined: Atoms with no well-founded truth value.
    """

    true: State
    false: State
    undefined: State

    @property
    def is_total(self) -> bool:
        """True when nothing is undefined (two-valued model)."""
        return not self.undefined

    def relation(self, pred: str) -> frozenset[tuple]:
        """The *true* tuples of one predicate."""
        return frozenset(row for name, row in self.true if name == pred)

    def undefined_relation(self, pred: str) -> frozenset[tuple]:
        """The *undefined* tuples of one predicate."""
        return frozenset(
            row for name, row in self.undefined if name == pred)


class WellFoundedEngine:
    """Computes well-founded models of normal programs.

    Example (an even negative loop — everything undefined):
        >>> engine = WellFoundedEngine('''
        ...     p(X) :- e(X), not q(X).
        ...     q(X) :- e(X), not p(X).
        ... ''')
        >>> model = engine.model(Database.from_facts({"e": [("a",)]}))
        >>> model.undefined_relation("p")
        frozenset({('a',)})
    """

    def __init__(self, program: Union[str, Program]) -> None:
        if isinstance(program, str):
            program = parse_program(program)
        # Reuse StableEngine's validation, grounding and reduct machinery.
        self._stable = StableEngine(program)
        self.program = self._stable.program

    def model(self, db: Database) -> WellFoundedModel:
        """The well-founded model of the program on ``db``."""
        base = self._stable._initial_facts(db)
        universe = self._stable.upper_bound(db)
        ground = self._stable.ground_clauses(universe)

        def gamma(candidate: State) -> State:
            return StableEngine._least_model_of_reduct(
                ground, candidate, base)

        under: State = frozenset()
        while True:
            over = gamma(under)
            next_under = gamma(over)
            if next_under == under:
                break
            under = next_under
        over = gamma(under)
        true = under
        false = universe - over
        undefined = universe - true - false
        return WellFoundedModel(true, frozenset(false),
                                frozenset(undefined))

    def answers(self, db: Database, pred: str) -> frozenset[tuple]:
        """The true tuples of ``pred`` (the cautious answer)."""
        return self.model(db).relation(pred)
