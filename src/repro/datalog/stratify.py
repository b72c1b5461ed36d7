"""Stratification of programs with negation and ID-literals.

A program is stratified when its predicates can be assigned stratum numbers
such that every positive body dependency is non-increasing and every strict
dependency (negation or ID-literal) strictly decreases.  The paper's
"stratified IDLOG" (Theorem 1, Theorem 6) is exactly this condition with
ID-literals counted as strict.

Stratum numbers are computed on the condensation of the dependency graph as
the longest strict-edge path from any source, which yields the minimal
stratification (and, for Theorem 2's translated programs, the paper's four
strata).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import StratificationError
from .ast import Program
from .graph import DependencyGraph


@dataclass(frozen=True)
class Stratification:
    """The result of stratifying a program.

    Attributes:
        strata: Predicates grouped by stratum, lowest first.
        level: Mapping predicate -> stratum index.
    """

    strata: tuple[frozenset[str], ...]
    level: dict[str, int]

    @property
    def depth(self) -> int:
        """Number of strata."""
        return len(self.strata)


def stratify(program: Program) -> Stratification:
    """Stratify ``program`` or raise :class:`StratificationError`.

    Raises:
        StratificationError: when some predicate depends on itself through
            negation or an ID-literal.
    """
    graph = DependencyGraph.of_program(program)
    components = graph.sccs()
    component_of: dict[str, int] = {}
    for i, component in enumerate(components):
        for pred in component:
            component_of[pred] = i

    # A strict edge inside one SCC means recursion through negation/tids.
    for edge in graph.edges:
        if edge.strict and component_of[edge.source] == component_of[edge.target]:
            kind = "an ID-literal or negation"
            raise StratificationError(
                f"predicate {edge.target} depends on {edge.source} through "
                f"{kind} inside a recursive component: program is not "
                "stratified")

    # Longest-path levels over the condensation: components arrive in
    # topological order, so one forward pass suffices.
    level_of_component = [0] * len(components)
    for i, component in enumerate(components):
        for pred in component:
            for edge in graph.successors(pred):
                j = component_of[edge.target]
                if j == i:
                    continue
                required = level_of_component[i] + (1 if edge.strict else 0)
                if required > level_of_component[j]:
                    level_of_component[j] = required

    level = {pred: level_of_component[component_of[pred]]
             for pred in graph.nodes}
    depth = max(level_of_component, default=-1) + 1
    strata = tuple(
        frozenset(p for p, lv in level.items() if lv == k)
        for k in range(depth))
    return Stratification(strata, level)


def is_stratified(program: Program) -> bool:
    """True when the program admits a stratification."""
    try:
        stratify(program)
    except StratificationError:
        return False
    return True
