"""Abstract syntax for DATALOG / IDLOG / DATALOG^C programs.

The same clause representation serves the plain Datalog engine, the IDLOG
engine (which adds *ID-atoms* ``p[s](X̄, N)``) and the DATALOG^C front end
(which adds the *choice atom* ``choice((X̄), (Ȳ))``).  Engines that do not
support a construct reject it during validation rather than at run time.

Terminology follows the paper:

* An **ID-atom** is an atom whose predicate is the ID-version ``p[s]`` of an
  ordinary predicate ``p``; it has one extra, final argument holding the tid.
  ``s`` is a set of 1-based argument positions of ``p`` (the *grouping*).
* A clause head must be an ordinary (non-ID) atom containing neither ``succ``
  nor equality (Section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Union

from ..errors import SchemaError
from .builtins import builtin_spec, is_builtin_name
from .terms import Const, Term, Value, Var, term_vars


@dataclass(frozen=True, slots=True)
class Atom:
    """An atom ``p(t1, ..., tn)`` or ID-atom ``p[s](t1, ..., tn, N)``.

    Attributes:
        pred: Name of the *base* predicate ``p``.
        args: Argument terms.  For an ID-atom the final argument is the tid.
        group: ``None`` for an ordinary atom; a frozenset of 1-based argument
            positions of the base predicate for an ID-atom (may be empty —
            the paper's most primitive ``p[∅]`` form).
    """

    pred: str
    args: tuple[Term, ...]
    group: Optional[frozenset[int]] = None

    def __post_init__(self) -> None:
        if self.group is not None:
            base_arity = len(self.args) - 1
            if base_arity < 0:
                raise SchemaError(f"ID-atom {self.pred} needs a tid argument")
            bad = [i for i in self.group if not 1 <= i <= base_arity]
            if bad:
                raise SchemaError(
                    f"ID-atom {self.pred}[{sorted(self.group)}]: grouping "
                    f"positions {bad} outside 1..{base_arity}")
        if self.is_builtin and len(self.args) != builtin_spec(self.pred).arity:
            raise SchemaError(
                f"builtin {self.pred} used with arity {len(self.args)}, "
                f"expected {builtin_spec(self.pred).arity}")

    @property
    def is_id(self) -> bool:
        """True for an ID-atom ``p[s](...)``."""
        return self.group is not None

    @property
    def is_builtin(self) -> bool:
        """True for an arithmetic predicate (``succ``, ``+``, ``<``, ...)."""
        return self.group is None and is_builtin_name(self.pred)

    @property
    def base_arity(self) -> int:
        """The arity of the base predicate (excluding the tid of an ID-atom)."""
        return len(self.args) - (1 if self.is_id else 0)

    @property
    def vars(self) -> frozenset[Var]:
        """The variables occurring in this atom."""
        return term_vars(self.args)

    def substitute(self, subst: Mapping[Var, Value]) -> "Atom":
        """Apply a substitution of ground values for variables."""
        new_args = tuple(
            Const(subst[a]) if isinstance(a, Var) and a in subst else a
            for a in self.args)
        return Atom(self.pred, new_args, self.group)

    def ground(self, binding: Mapping[Var, Value]) -> tuple[Value, ...]:
        """The argument values under a binding of every variable."""
        return tuple(a.value if isinstance(a, Const) else binding[a]
                     for a in self.args)

    def unify(self, row: tuple[Value, ...]) -> Optional[dict[Var, Value]]:
        """The binding making the arguments equal ``row``; None on a clash
        of a constant or a repeated variable."""
        binding: dict[Var, Value] = {}
        for term, value in zip(self.args, row):
            if isinstance(term, Const):
                if term.value != value:
                    return None
            elif binding.setdefault(term, value) != value:
                return None
        return binding

    def rename_pred(self, new_name: str) -> "Atom":
        """Return a copy of this atom with a different predicate name."""
        return Atom(new_name, self.args, self.group)

    def __str__(self) -> str:
        group = ""
        if self.group is not None:
            group = "[" + ",".join(str(i) for i in sorted(self.group)) + "]"
        return f"{self.pred}{group}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True, slots=True)
class ChoiceAtom:
    """The choice operator ``choice((X̄), (Ȳ))`` of DATALOG^C (§3.2.2),
    generalized to the *multiple-choice* operators the paper's §3.3 calls
    for: ``choice2((X̄), (Ȳ))`` keeps two ``Ȳ`` per ``X̄``-value, ``choice3``
    three, and so on ("the inadequacy of defining general sampling queries
    by the choice operator motivates the need of having multiple-choice
    operators ... IDLOG can be thought of as a natural framework for
    expressing these operators").

    Non-deterministically restricts the clause's satisfying tuples so that
    every ``X̄``-value keeps exactly ``count`` distinct ``Ȳ`` combinations
    (all of them when the group is smaller).  Only the DATALOG^C front end
    accepts choice atoms.
    """

    domain: tuple[Var, ...]
    range: tuple[Var, ...]
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SchemaError(
                f"choice{self.count} is meaningless; count must be >= 1")

    @property
    def vars(self) -> frozenset[Var]:
        """All variables mentioned by the operator."""
        return frozenset(self.domain) | frozenset(self.range)

    def __str__(self) -> str:
        dom = ", ".join(str(v) for v in self.domain)
        rng = ", ".join(str(v) for v in self.range)
        suffix = "" if self.count == 1 else str(self.count)
        return f"choice{suffix}(({dom}), ({rng}))"


BodyAtom = Union[Atom, ChoiceAtom]


@dataclass(frozen=True, slots=True)
class Literal:
    """A possibly negated body atom."""

    atom: BodyAtom
    positive: bool = True

    def __post_init__(self) -> None:
        if not self.positive and isinstance(self.atom, ChoiceAtom):
            raise SchemaError("choice operators cannot be negated")

    @property
    def vars(self) -> frozenset[Var]:
        """The variables occurring in this literal."""
        return self.atom.vars

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"not {self.atom}"


@dataclass(frozen=True, slots=True)
class Clause:
    """A clause ``head :- body`` (a fact when the body is empty).

    Head restrictions from the paper are enforced: the head must be an
    ordinary atom whose predicate is neither arithmetic nor equality.
    """

    head: Atom
    body: tuple[Literal, ...] = ()

    def __post_init__(self) -> None:
        if self.head.is_id:
            raise SchemaError(f"clause head {self.head} must not be an ID-atom")
        if self.head.is_builtin:
            raise SchemaError(
                f"clause head {self.head} must not use an arithmetic predicate")

    @property
    def is_fact(self) -> bool:
        """True when the clause has an empty body and a ground head."""
        return not self.body and not self.head.vars

    @property
    def vars(self) -> frozenset[Var]:
        """All variables in the clause."""
        result = self.head.vars
        for lit in self.body:
            result |= lit.vars
        return result

    @property
    def body_atoms(self) -> Iterator[Atom]:
        """The ordinary/ID atoms of the body (choice atoms excluded)."""
        return (lit.atom for lit in self.body if isinstance(lit.atom, Atom))

    @property
    def choice_atoms(self) -> tuple[ChoiceAtom, ...]:
        """The choice atoms of the body."""
        return tuple(lit.atom for lit in self.body
                     if isinstance(lit.atom, ChoiceAtom))

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(lit) for lit in self.body)}."


@dataclass(frozen=True)
class Program:
    """A finite set of clauses, kept in source order.

    Provides the predicate-level views the paper uses: input predicates
    (EDB), output predicates (IDB), and the *related-to* closure ``P/q``.
    """

    clauses: tuple[Clause, ...] = ()
    name: str = "program"

    def __post_init__(self) -> None:
        self._check_arities()

    def _check_arities(self) -> None:
        arities: dict[str, int] = {}
        for clause in self.clauses:
            for atom in self._all_atoms(clause):
                if atom.is_builtin:
                    continue
                arity = atom.base_arity
                seen = arities.setdefault(atom.pred, arity)
                if seen != arity:
                    raise SchemaError(
                        f"predicate {atom.pred} used with arities "
                        f"{seen} and {arity}")

    @staticmethod
    def _all_atoms(clause: Clause) -> Iterator[Atom]:
        yield clause.head
        yield from clause.body_atoms

    @property
    def head_predicates(self) -> frozenset[str]:
        """Predicates defined by some clause (the paper's output predicates)."""
        return frozenset(c.head.pred for c in self.clauses)

    @property
    def body_predicates(self) -> frozenset[str]:
        """Non-arithmetic base predicates occurring in some body."""
        preds = set()
        for clause in self.clauses:
            for atom in clause.body_atoms:
                if not atom.is_builtin:
                    preds.add(atom.pred)
        return frozenset(preds)

    @property
    def input_predicates(self) -> frozenset[str]:
        """Predicates used in bodies but never defined (the EDB)."""
        return self.body_predicates - self.head_predicates

    @property
    def predicates(self) -> frozenset[str]:
        """All non-arithmetic predicates of the program."""
        return self.head_predicates | self.body_predicates

    @property
    def id_groupings(self) -> frozenset[tuple[str, frozenset[int]]]:
        """Every (base predicate, grouping) pair used by an ID-atom."""
        pairs = set()
        for clause in self.clauses:
            for atom in clause.body_atoms:
                if atom.is_id:
                    pairs.add((atom.pred, atom.group))
        return frozenset(pairs)

    def arity(self, pred: str) -> int:
        """The arity of ``pred`` as used in this program."""
        for clause in self.clauses:
            for atom in self._all_atoms(clause):
                if not atom.is_builtin and atom.pred == pred:
                    return atom.base_arity
        raise KeyError(f"predicate {pred} does not occur in the program")

    def clauses_defining(self, pred: str) -> tuple[Clause, ...]:
        """The clauses whose head predicate is ``pred``."""
        return tuple(c for c in self.clauses if c.head.pred == pred)

    def related_to(self, query: str) -> frozenset[str]:
        """The predicates of the program portion ``P/query`` (Section 3.1).

        A clause is related to ``query`` if its head predicate appears in a
        clause defining ``query`` or, recursively, in a clause related to it.
        """
        related = {query}
        frontier = [query]
        while frontier:
            pred = frontier.pop()
            for clause in self.clauses_defining(pred):
                for atom in clause.body_atoms:
                    if not atom.is_builtin and atom.pred not in related:
                        related.add(atom.pred)
                        frontier.append(atom.pred)
        return frozenset(related)

    def restrict_to(self, query: str) -> "Program":
        """The program portion ``P/query``: clauses related to ``query``."""
        related = self.related_to(query)
        return Program(
            tuple(c for c in self.clauses if c.head.pred in related),
            name=f"{self.name}/{query}")

    def u_constants(self) -> frozenset[str]:
        """All uninterpreted constants mentioned by the program.

        These form the set ``C`` making the defined query C-generic
        (Section 3.1).
        """
        consts = set()
        for clause in self.clauses:
            for atom in self._all_atoms(clause):
                for term in atom.args:
                    if isinstance(term, Const) and isinstance(term.value, str):
                        consts.add(term.value)
        return frozenset(consts)

    def extend(self, clauses: tuple[Clause, ...]) -> "Program":
        """Return a new program with extra clauses appended."""
        return Program(self.clauses + clauses, name=self.name)

    def has_choice(self) -> bool:
        """True when any clause uses the choice operator."""
        return any(c.choice_atoms for c in self.clauses)

    def has_id_atoms(self) -> bool:
        """True when any body uses an ID-atom."""
        return bool(self.id_groupings)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)


def fact(pred: str, *values: Value) -> Clause:
    """Convenience constructor for a ground fact clause.

    >>> str(fact("emp", "ann", "toys"))
    'emp(ann, toys).'
    """
    return Clause(Atom(pred, tuple(Const(v) for v in values)))
