"""Datalog substrate: terms, syntax, parser, storage, and bottom-up engine.

This package is the deterministic foundation the IDLOG core
(:mod:`repro.core`) builds on — exactly the relationship the paper sets up:
IDLOG is DATALOG with negation plus ID-predicates.
"""

from .arith_defs import (ARITHMETIC_FROM_SUCC, arithmetic_db,
                         defined_arithmetic)
from .ast import Atom, ChoiceAtom, Clause, Literal, Program, fact
from .lint import Finding, lint
from .provenance import Derivation, Explainer, explain_tuple, format_tree
from .builtins import builtin_names, builtin_spec, is_builtin_name
from .database import (Database, Relation, relation_from_csv,
                       relation_to_csv)
from .engine import DatalogEngine, EvalResult
from .executor import BatchExecutor
from .explain import explain_plan, explain_program
from .planner import (COST, GREEDY, PLAN_MODES, ClausePlan, ClausePlanner,
                      LiteralEstimate, check_plan_mode, plan_body)
from .counting import CountingEngine
from .incremental import IncrementalEngine
from .metrics import (COUNT_BUCKETS, TIME_BUCKETS, MetricsRegistry,
                      MetricsTracer, ProgressTracer, log_buckets)
from .storage import directory_stats, load_database, save_database
from .topdown import TopDownEngine, query_topdown
from .graph import DependencyGraph, Edge
from .parser import parse_atom, parse_clause, parse_program
from .pretty import format_clause, to_source
from .safety import check_clause, check_program, order_body
from .sorts import check_database_sorts, format_signatures, infer_signatures
from .seminaive import EvalStats, evaluate
from .stratify import Stratification, is_stratified, stratify
from .trace import (EVENT_KINDS, SCHEMA_VERSION, CallbackTracer,
                    ClauseProfile, JsonTracer, NullTracer, Profile,
                    StratumProfile, TeeTracer, TimingTracer, TraceEvent,
                    Tracer, current_tracer, format_profile, use_tracer)
from .terms import (Const, RelationType, Sort, Term, Value, Var,
                    fresh_var_factory, parse_type, sort_of_value)

__all__ = [
    "Finding", "lint",
    "Derivation", "Explainer", "explain_tuple", "format_tree",
    "ARITHMETIC_FROM_SUCC", "arithmetic_db", "defined_arithmetic",
    "explain_plan", "explain_program",
    "COST", "GREEDY", "PLAN_MODES", "ClausePlan", "ClausePlanner",
    "LiteralEstimate", "check_plan_mode", "plan_body",
    "CountingEngine", "IncrementalEngine",
    "directory_stats", "load_database", "save_database",
    "COUNT_BUCKETS", "TIME_BUCKETS", "MetricsRegistry", "MetricsTracer",
    "ProgressTracer", "log_buckets",
    "TopDownEngine", "query_topdown",
    "Atom", "ChoiceAtom", "Clause", "Literal", "Program", "fact",
    "builtin_names", "builtin_spec", "is_builtin_name",
    "Database", "Relation", "relation_from_csv", "relation_to_csv",
    "DatalogEngine", "EvalResult",
    "BatchExecutor",
    "DependencyGraph", "Edge",
    "parse_atom", "parse_clause", "parse_program",
    "format_clause", "to_source",
    "check_clause", "check_program", "order_body",
    "check_database_sorts", "format_signatures", "infer_signatures",
    "EvalStats", "evaluate",
    "Stratification", "is_stratified", "stratify",
    "EVENT_KINDS", "SCHEMA_VERSION", "CallbackTracer", "ClauseProfile",
    "JsonTracer",
    "NullTracer", "Profile", "StratumProfile", "TeeTracer", "TimingTracer",
    "TraceEvent", "Tracer", "current_tracer", "format_profile",
    "use_tracer",
    "Const", "RelationType", "Sort", "Term", "Value", "Var",
    "fresh_var_factory", "parse_type", "sort_of_value",
]
