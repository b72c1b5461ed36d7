"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch one base class.  Sub-hierarchies mirror the processing pipeline:
parsing, static checks (safety / stratification), and evaluation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class InputError(ReproError):
    """Raised on malformed caller input — a choice-log entry with a
    missing or ill-typed field, or a run asked to record and replay at
    once.  The server answers it with ``bad_request``."""


class ParseError(ReproError):
    """Raised when program text cannot be parsed.

    Attributes:
        line: 1-based line number of the offending token, if known.
        column: 1-based column number of the offending token, if known.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(message + location)
        self.line = line
        self.column = column


class SchemaError(ReproError):
    """Raised on arity or sort mismatches between atoms and relations."""


class SafetyError(ReproError):
    """Raised when a clause is not safe (cannot be planned).

    A clause is safe when some ordering of its body literals evaluates every
    arithmetic predicate under an allowed binding pattern, every negative
    literal with all of its variables bound, and ends with every head
    variable bound (paper, Section 2.2).
    """


class StratificationError(ReproError):
    """Raised when a program is not stratified.

    A program is unstratifiable when a predicate depends on itself through
    negation or through an ID-literal (both force a strictly lower stratum).
    """


class EvaluationError(ReproError):
    """Raised when evaluation fails for a reason not caught statically."""


class UnsafeBuiltinError(EvaluationError):
    """Raised when a builtin call would enumerate infinitely many solutions.

    The static binding-pattern check is only a sufficient condition (paper,
    Section 2.2); a few patterns are conditionally finite (e.g. ``*(0, Y, 0)``)
    and are rejected at run time instead of silently looping.
    """


class ReplayError(EvaluationError):
    """Raised when replaying a recorded choice log cannot reproduce the run.

    Either the database drifted since recording (a block's contents no
    longer match the recorded digest, blocks appeared or vanished) or the
    program now materializes an ID-relation the log never saw.  The
    message names the exact ``(predicate, grouping, block)`` site and the
    expected vs. found state.
    """


class NotDeterministicError(ReproError):
    """Raised when a single answer is requested from a query whose answer
    set on the given input contains more than one relation and the caller
    demanded determinism."""


class ChoiceConditionError(ReproError):
    """Raised when a DATALOG^C program violates condition (C1) or (C2)
    of the paper (Section 3.2.2)."""
