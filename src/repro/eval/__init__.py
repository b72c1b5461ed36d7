"""Declarative scenario harness with statistical verification.

The paper's signature queries are non-deterministic, so no exact answer
comparison can verify them; this package verifies their *distribution*
instead.  A :class:`Scenario` bundles a program, a seeded workload, and
typed assertions — exact answer predicates for deterministic queries,
chi-square uniformity and choice-log stability for sampling ones, perf
envelopes for both — and :class:`ScenarioRunner` executes suites across
both plan modes into schema-stamped JSON :class:`EvalReport`\\ s.

Surface: ``repro-idlog eval`` (CLI), :func:`builtin_suite` (the shipped
scenarios), ``docs/SCENARIOS.md`` (the assertion vocabulary).
"""

from .report import (REPORT_KIND, AssertionResult, CaseResult, EvalReport,
                     format_report)
from .runner import QUICK_SEEDS, ScenarioRunner, run_suite
from .scenario import (DEFAULT_SEEDS, PLANS, AnswerInvariant,
                       AnswerSetEquals, Assertion, ChoiceStability,
                       ExactAnswer, GroupCardinality, PerfEnvelope,
                       Scenario, ScenarioContext, SelectionSpec,
                       UniformSelection)
from .stats import (ChiSquareResult, chi_square_sf, chi_square_statistic,
                    selection_chi_square)
from .suite import builtin_suite

__all__ = [
    "REPORT_KIND", "QUICK_SEEDS", "DEFAULT_SEEDS", "PLANS",
    "Assertion", "AssertionResult", "AnswerInvariant", "AnswerSetEquals",
    "CaseResult", "ChiSquareResult", "ChoiceStability", "EvalReport",
    "ExactAnswer", "GroupCardinality", "PerfEnvelope", "Scenario",
    "ScenarioContext", "ScenarioRunner", "SelectionSpec",
    "UniformSelection", "builtin_suite", "chi_square_sf",
    "chi_square_statistic", "format_report", "run_suite",
    "selection_chi_square",
]
