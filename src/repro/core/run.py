"""One run of a program: the entry point the CLI and the server share.

A run returns one model under *some* ID-function (Sections 2–3,
Theorem 1), and a recorded run's choices reproduce that model exactly.
:func:`run_program` records *or* replays a
:class:`~repro.core.choicelog.ChoiceLog`, checks a replayed result
against the recorded answers, and tees the span events to the engine's
tracer, a profile fold and the caller's sinks — on the engine for the
one call only, never process-wide, since the server runs several
sessions at once.  With nothing asked for it is a plain
``run()``/``one()`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from ..datalog.database import Database
from ..datalog.engine import EvalResult
from ..datalog.trace import Profile, TimingTracer, Tracer, tee
from ..errors import InputError, ReplayError
from .choicelog import ChoiceLog

#: The single-model modes; answer-set enumeration is not a run.
RUN_MODES = ("run", "one")


@dataclass
class RunOutcome:
    """A run's model plus the artifacts it was asked for: the recorded
    (answers attached), replayed or digest-only log, and the profile."""

    result: EvalResult
    log: Optional[ChoiceLog] = None
    profile: Optional[Profile] = None

    @property
    def digest(self) -> Optional[str]:
        """:meth:`ChoiceLog.digest` of the log, if there is one."""
        return None if self.log is None else self.log.digest()

    def plan_quality(self) -> Optional[dict]:
        """:meth:`Profile.plan_quality` of the profile, if there is one."""
        return None if self.profile is None \
            else self.profile.plan_quality()


def run_program(engine, db: Database, mode: str = "run",
                seed: Optional[int] = None, queries: Sequence[str] = (),
                *, record: Optional[Mapping] = None,
                replay: Optional[ChoiceLog] = None, digest: bool = False,
                profile: bool = False,
                sinks: Iterable[Tracer] = ()) -> RunOutcome:
    """Evaluate ``engine``'s program on ``db`` once, in ``mode`` ``run``
    (canonical assignment) or ``one`` (drawn under ``seed``).

    ``record`` holds the meta of a new log recording the run and the
    answers of ``queries``; ``replay`` is a recorded log to re-apply.
    ``digest`` keeps a log for its digest only, ``profile`` folds the
    events into a :class:`~repro.datalog.trace.Profile`, and ``sinks``
    receive every event.  Raises :class:`InputError` on ``record`` with
    ``replay`` or an unknown mode, and :class:`ReplayError` when the log
    does not fit the database or its recorded answers.
    """
    if record is not None and replay is not None:
        raise InputError("record and replay are mutually exclusive")
    if mode not in RUN_MODES:
        raise InputError(f"mode must be 'run' or 'one', got {mode!r}")
    log = replay
    if record is not None or (digest and replay is None):
        log = ChoiceLog(meta=record)
    timing = TimingTracer() if profile else None
    previous = engine.tracer
    engine.tracer = tee(previous, timing, *sinks)
    try:
        if replay is not None:
            result = engine.replay(db, replay)
        else:
            kwargs = {} if log is None else {"record": log}
            result = engine.one(db, seed=seed, **kwargs) if mode == "one" \
                else engine.run(db, **kwargs)
    finally:
        engine.tracer = previous
    if replay is not None:
        _check_replayed(result, replay, engine.program.head_predicates)
    elif record is not None:
        log.set_answers({pred: result.tuples(pred) for pred in queries})
    return RunOutcome(result, log,
                      None if timing is None else timing.profile)


def pick_queries(program, requested: Optional[Sequence[str]] = None,
                 ) -> list[str]:
    """A run's answer predicates: ``requested``, each an output predicate
    of ``program`` (else :class:`InputError`), or all of them, sorted."""
    heads = program.head_predicates
    if requested is None:
        return sorted(heads)
    for pred in requested:
        if not isinstance(pred, str):
            raise InputError("query must be a list of predicate names")
        if pred not in heads:
            raise InputError(
                f"{pred} is not an output predicate of the program "
                f"(outputs: {', '.join(sorted(heads)) or '-'})")
    return list(requested)


def _check_replayed(result: EvalResult, log: ChoiceLog,
                    derived: frozenset) -> None:
    """Check a replayed result against the log's recorded answers."""
    for pred in sorted(log.answers):
        if pred not in derived:
            raise ReplayError(f"the choice log records answers for {pred}, "
                              "which the program does not derive")
        found, expected = result.tuples(pred), log.answer_tuples(pred)
        if found != expected:
            missing = sorted(map(str, expected - found))[:4]
            extra = sorted(map(str, found - expected))[:4]
            raise ReplayError(
                f"replayed answers for {pred} differ from the recorded "
                f"run: {len(expected - found)} missing "
                f"(e.g. {', '.join(missing) or '-'}), "
                f"{len(found - expected)} extra "
                f"(e.g. {', '.join(extra) or '-'}) — the program or "
                "database changed since the log was recorded")
