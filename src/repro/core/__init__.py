"""The paper's core contribution: IDLOG — DATALOG with tuple identifiers.

Public surface:

* :class:`IdlogProgram` — validated programs (safety, stratification with
  strict ID-edges, tid-bound analysis).
* :class:`IdlogEngine` — evaluation under an assignment strategy; sampling;
  exact answer-set enumeration.
* :class:`IdlogQuery` — the non-deterministic query object of one output
  predicate.
* :func:`run_program` — one run with its record/replay and observability
  artifacts, the entry point the CLI and the server share.
* ID-relation machinery (:mod:`repro.core.idrelations`) and assignment
  strategies (:mod:`repro.core.assignment`).
"""

from .assignment import (AssignmentStrategy, CanonicalAssignment,
                         OracleAssignment, RandomAssignment)
from .choicelog import (ChoiceDivergence, ChoiceLog, ChoiceRecord,
                        DivergenceReport, block_digest, choice_records,
                        diverge, format_divergence)
from .dbp import UDOM_PREDICATE, database_program, strip_database_program
from .engine import IdlogEngine, ReplayIdProvider
from .idrelations import (Grouping, IdFunction, canonical_id_function,
                          count_id_functions, enumerate_id_functions,
                          group_key, id_relations_of, make_id_relation,
                          random_id_function, sub_relations,
                          validate_id_function)
from .models import (IdlogInterpretation, check_interpretation, is_model,
                     is_perfect_model, perfect_models)
from .program import IdlogProgram, compute_tid_limits
from .query import (Answer, IdlogQuery, answers_equal, permute_answer,
                    permute_database)
from .run import RUN_MODES, RunOutcome, pick_queries, run_program

__all__ = [
    "UDOM_PREDICATE", "database_program", "strip_database_program",
    "IdlogInterpretation", "check_interpretation", "is_model",
    "is_perfect_model", "perfect_models",
    "AssignmentStrategy", "CanonicalAssignment", "OracleAssignment",
    "RandomAssignment",
    "IdlogEngine", "ReplayIdProvider",
    "ChoiceDivergence", "ChoiceLog", "ChoiceRecord", "DivergenceReport",
    "block_digest", "choice_records", "diverge", "format_divergence",
    "Grouping", "IdFunction", "canonical_id_function", "count_id_functions",
    "enumerate_id_functions", "group_key", "id_relations_of",
    "make_id_relation", "random_id_function", "sub_relations",
    "validate_id_function",
    "IdlogProgram", "compute_tid_limits",
    "Answer", "IdlogQuery", "answers_equal", "permute_answer",
    "permute_database",
    "RUN_MODES", "RunOutcome", "pick_queries", "run_program",
]
