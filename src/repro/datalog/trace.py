"""Structured tracing and profiling for the evaluation stack.

The planner (PR 1) and the batch executor (PR 2) gave the engine real
performance behavior; this module makes that behavior *observable*.  In
the LDL++ tradition — where much of the system's practical usability came
from being able to see why a plan was slow — every evaluation mode can
emit **span events** (stratum start/end, delta rounds, clause firings,
plan choices, pipeline compilations, ID-relation materializations,
incremental fast-path/fallback decisions) carrying wall time, the same
probe/firing/derived counters :class:`~repro.datalog.seminaive.EvalStats`
totals, and relation cardinalities.

Design rules:

* **The hot path pays nothing by default.**  Instrumented sites guard on
  ``tracer is not None``; with no tracer installed there is no event
  construction, no clock call, nothing.  Enabling even the no-op
  :class:`NullTracer` only adds two clock reads per *clause execution*
  (per fixpoint round, not per tuple), which the benchmark runner keeps
  under a few percent of batch-engine wall time.
* **One emission primitive.**  A tracer is anything with
  ``emit(kind, **fields) -> None``; the event vocabulary is the module's
  ``EV_*`` constants.  This keeps the protocol trivial to implement
  (tests use :class:`CallbackTracer`) and trivial to serialize
  (:class:`JsonTracer` writes one JSON object per event,
  :func:`read_events` reads them back).
* **Profiles are folds over the event stream.**  :class:`TimingTracer`
  aggregates events into per-stratum and per-clause
  :class:`StratumProfile` / :class:`ClauseProfile` rows;
  :func:`format_profile` renders them as the ``EXPLAIN ANALYZE``-style
  table the CLI's ``profile`` command prints.

Tracers reach an evaluation either explicitly (the ``tracer=`` knob on
:class:`~repro.datalog.engine.DatalogEngine`,
:class:`~repro.core.engine.IdlogEngine`,
:class:`~repro.datalog.incremental.IncrementalEngine`,
:class:`~repro.datalog.topdown.TopDownEngine` and
:func:`~repro.datalog.seminaive.evaluate`) or ambiently via
:func:`use_tracer`, which installs a process-wide default picked up at
evaluation time — how the benchmark runner profiles kernels it does not
construct itself.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Callable, Iterable, Iterator, Optional, Protocol,
                    TextIO, Union)

from ..errors import ReproError

#: Format version stamped on every serialized observability artifact —
#: each :class:`JsonTracer` event, :meth:`Profile.as_dict`, and the
#: metrics snapshot (:mod:`repro.datalog.metrics`).  Consumers (the
#: benchmark trajectory comparator, dashboards) check it to detect
#: format drift; bump it on any backwards-incompatible field change.
SCHEMA_VERSION = 1

# -- event vocabulary --------------------------------------------------------

EV_EVAL_START = "eval_start"
EV_EVAL_END = "eval_end"
EV_STRATUM_START = "stratum_start"
EV_STRATUM_END = "stratum_end"
EV_ROUND = "round"
EV_CLAUSE_FIRE = "clause_fire"
EV_PLAN_BUILT = "plan_built"
EV_PLAN_DRIFT = "plan_drift"
EV_PIPELINE_COMPILED = "pipeline_compiled"
EV_ID_MATERIALIZED = "id_materialized"
EV_ID_CHOICE = "id_choice"
EV_INCREMENTAL = "incremental"
EV_TOPDOWN_ROUND = "topdown_round"
EV_TOPDOWN_QUERY = "topdown_query"

EVENT_KINDS = (
    EV_EVAL_START, EV_EVAL_END, EV_STRATUM_START, EV_STRATUM_END,
    EV_ROUND, EV_CLAUSE_FIRE, EV_PLAN_BUILT, EV_PLAN_DRIFT,
    EV_PIPELINE_COMPILED, EV_ID_MATERIALIZED, EV_ID_CHOICE,
    EV_INCREMENTAL, EV_TOPDOWN_ROUND, EV_TOPDOWN_QUERY,
)

#: A clause (or join stage) whose q-error reaches this factor is flagged
#: as *misestimated* — in the EXPLAIN ANALYZE table (a ``!`` on the q-err
#: column), in ``Profile.plan_quality()`` blocks, and in the
#: ``idlog_plan_misestimates_total`` metric family.
MISESTIMATE_THRESHOLD = 4.0


def q_error(estimated: float, actual: float) -> float:
    """The q-error of one estimate: ``max(est/actual, actual/est)``.

    Both sides are smoothed by +1 so zero estimates against zero actuals
    score a perfect 1.0 instead of dividing by zero, and an estimate of 0
    against an actual of 9 scores 10 — small absolute misses on tiny
    cardinalities stay small.

    >>> q_error(100, 100)
    1.0
    >>> q_error(9, 0)
    10.0
    >>> q_error(0, 0)
    1.0
    """
    est = float(estimated) + 1.0
    act = float(actual) + 1.0
    return max(est / act, act / est)


def worst_q_error(probe_q_error: float,
                  stage_q_errors: Iterable[float]) -> float:
    """A clause's q-error — the one miss measure every table, flag,
    metric and ``plans`` report uses: the worst of its probe-total and
    per-stage row q-errors.

    >>> worst_q_error(1.5, [1.0, 3.0])
    3.0
    """
    return max((probe_q_error, *stage_q_errors))


@dataclass(frozen=True)
class TraceEvent:
    """One emitted span event: a kind plus its payload fields."""

    kind: str
    fields: dict

    def get(self, name: str, default=None):
        """Field accessor (sugar for ``event.fields.get``)."""
        return self.fields.get(name, default)


class Tracer(Protocol):
    """Anything that can receive span events.

    Implementations must treat ``emit`` as fire-and-forget: raising from a
    tracer aborts the evaluation (deliberately — a broken trace file should
    not be silently half-written).
    """

    def emit(self, kind: str, **fields) -> None:
        """Record one event."""
        ...


class NullTracer:
    """The no-op tracer: every event is discarded.

    Exists so callers can pass an always-valid tracer object; internally
    the engines prefer ``tracer=None``, which skips even the clock reads.
    """

    def emit(self, kind: str, **fields) -> None:
        pass


class CallbackTracer:
    """Tracer that records events (and optionally forwards them).

    Args:
        callback: Optional hook invoked with each :class:`TraceEvent`;
            the event is appended to :attr:`events` either way.

    The test suite's tracer: event-order and payload assertions read
    :attr:`events`; hook-based tests pass a callback.
    """

    def __init__(self,
                 callback: Optional[Callable[[TraceEvent], None]] = None,
                 ) -> None:
        self.events: list[TraceEvent] = []
        self._callback = callback

    def emit(self, kind: str, **fields) -> None:
        event = TraceEvent(kind, fields)
        self.events.append(event)
        if self._callback is not None:
            self._callback(event)

    def kinds(self) -> list[str]:
        """The event kinds in emission order (handy in assertions)."""
        return [event.kind for event in self.events]


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return str(value)


class JsonTracer:
    """Tracer writing one JSON object per event (JSONL).

    Every line is ``{"event": <kind>, "seq": <n>, "schema": 1,
    ...fields}`` with non-primitive field values stringified — the schema
    documented in ``docs/OBSERVABILITY.md`` and consumed by the benchmark
    trajectory tooling.  ``schema`` is :data:`SCHEMA_VERSION`, stamped on
    every event so a consumer can reject a stream mid-way, not just at
    the head.

    Args:
        sink: A path to open (truncated) or an open text file object
            (left open on :meth:`close` when caller-owned).

    Usable as a context manager::

        with JsonTracer("trace.jsonl") as tracer:
            evaluate(program, db, tracer=tracer)
    """

    def __init__(self, sink: Union[str, TextIO]) -> None:
        if isinstance(sink, str):
            self._file: TextIO = open(sink, "w", encoding="utf-8")
            self._owns = True
        else:
            self._file = sink
            self._owns = False
        self._seq = 0
        self._closed = False

    def emit(self, kind: str, **fields) -> None:
        record = {"event": kind, "seq": self._seq,
                  "schema": SCHEMA_VERSION}
        self._seq += 1
        for name, value in fields.items():
            record[name] = _jsonable(value)
        self._file.write(json.dumps(record) + "\n")

    @property
    def events_written(self) -> int:
        """Number of JSONL lines emitted so far."""
        return self._seq

    def close(self) -> None:
        """Flush and (for path-opened sinks) close the underlying file.

        Idempotent, so error-path cleanup (the CLI's ``finally:``) can
        close unconditionally even when the success path already did.
        """
        if self._closed:
            return
        self._closed = True
        self._file.flush()
        if self._owns:
            self._file.close()

    def __enter__(self) -> "JsonTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(source: Union[str, TextIO]) -> Iterator[tuple[str, dict]]:
    """Read JSONL written by :class:`JsonTracer` (a path or an open
    file) back as ``(kind, fields)`` pairs, ``seq``/``schema`` dropped.

    A line that is not valid JSON, has no ``event`` field, or carries a
    ``schema`` other than :data:`SCHEMA_VERSION` raises
    :class:`~repro.errors.ReproError` naming the line.
    """
    handle = open(source, encoding="utf-8") \
        if isinstance(source, str) else source
    name = getattr(handle, "name", "<events>")
    try:
        for line_no, raw in enumerate(handle, 1):
            if not raw.strip():
                continue
            where = f"{name}:{line_no}"
            try:
                fields = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ReproError(f"{where}: not valid JSON: {exc}")
            if not isinstance(fields, dict) or "event" not in fields:
                raise ReproError(f"{where}: no 'event' field")
            schema = fields.pop("schema", SCHEMA_VERSION)
            if schema != SCHEMA_VERSION:
                raise ReproError(f"{where}: schema {schema}; this build "
                                 f"reads schema {SCHEMA_VERSION}")
            fields.pop("seq", None)
            yield fields.pop("event"), fields
    finally:
        if isinstance(source, str):
            handle.close()


class TeeTracer:
    """Fan one event stream out to several tracers (e.g. timing + JSONL)."""

    def __init__(self, tracers: list) -> None:
        self.tracers = list(tracers)

    def emit(self, kind: str, **fields) -> None:
        for tracer in self.tracers:
            tracer.emit(kind, **fields)


def tee(*tracers: Optional[Tracer]) -> Optional[Tracer]:
    """One tracer for every given one that is not None: None for none,
    the tracer itself for one, else a :class:`TeeTracer` — so a caller
    with nothing to observe builds nothing."""
    present = [tracer for tracer in tracers if tracer is not None]
    if len(present) > 1:
        return TeeTracer(present)
    return present[0] if present else None


#: Context fields a :class:`ContextTracer` stamps onto every event it
#: forwards.  The server's request-scoped tracing uses exactly these —
#: ``docs/OBSERVABILITY.md`` documents them and ``tests/test_docs.py``
#: keeps the two in sync.
CONTEXT_FIELDS = ("request_id", "session_id")


class ContextTracer:
    """Stamp fixed context fields onto every event, then forward.

    The server wraps a traced request's JSONL sink in one, so every
    span event the wire trace carries names its ``request_id`` and
    ``session_id`` — attribution that a process-global tracer cannot
    provide when sessions run concurrently.  Same zero-cost-when-off
    discipline as the rest of the module: one only exists while a
    request asked for a trace.

    Args:
        inner: The tracer receiving the stamped events.
        **context: The fields to stamp (``None`` values are dropped).
            Event payloads win on a field-name collision, so a kind
            that legitimately carries e.g. ``request_id`` itself is
            never clobbered.
    """

    def __init__(self, inner: Tracer, **context) -> None:
        self.inner = inner
        self.context = {name: value for name, value in context.items()
                        if value is not None}

    def emit(self, kind: str, **fields) -> None:
        self.inner.emit(kind, **{**self.context, **fields})


# -- the ambient tracer ------------------------------------------------------

_ambient: Optional[Tracer] = None


def current_tracer() -> Optional[Tracer]:
    """The ambient tracer installed by :func:`use_tracer`, or None."""
    return _ambient


@contextmanager
def use_tracer(tracer: Optional[Tracer]) -> Iterator[Optional[Tracer]]:
    """Install ``tracer`` as the process-wide default for the block.

    Evaluations that were not handed an explicit tracer pick this one up
    *at evaluation time* — which is how the benchmark runner profiles
    kernels whose engines it does not construct.  Nesting restores the
    previous ambient tracer on exit.
    """
    global _ambient
    previous = _ambient
    _ambient = tracer
    try:
        yield tracer
    finally:
        _ambient = previous


def resolve_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """An explicit tracer if given, else the ambient one (else None).

    A :class:`NullTracer` normalizes to ``None``: no event it receives is
    observable, so the engines may keep their fully uninstrumented hot
    path — this is what makes the "no-op tracer" genuinely free.
    """
    resolved = tracer if tracer is not None else _ambient
    if type(resolved) is NullTracer:
        return None
    return resolved


# -- profiles: folding the event stream -------------------------------------

@dataclass
class StageProfile:
    """Estimated-vs-actual totals for one join stage of one clause.

    One row per literal position of the clause's compiled pipeline,
    accumulated across calls: ``est_rows``/``est_probes`` sum the
    planner's :class:`~repro.datalog.planner.LiteralEstimate` figures at
    fire time, ``actual_rows``/``actual_probes`` the batch the stage
    really produced and the probes it really charged.
    """

    index: int
    literal: str = ""
    calls: int = 0
    est_rows: float = 0.0
    actual_rows: int = 0
    est_probes: float = 0.0
    actual_probes: int = 0

    @property
    def rows_q_error(self) -> float:
        """q-error of the stage's output-cardinality estimate."""
        return q_error(self.est_rows, self.actual_rows)


@dataclass
class ClauseProfile:
    """Aggregated execution profile of one clause within one stratum.

    ``calls`` counts clause executions (one per fixpoint round per delta
    variant); ``rows`` the head tuples produced (duplicates included,
    i.e. firings) and ``new`` the tuples that were actually novel.
    ``pipelines_compiled`` counts batch-pipeline compilations for the
    clause; cache hits are therefore ``calls - pipelines_compiled``.

    Plan quality: when the batch executor captured per-stage estimates
    (``clause_fire`` events carrying ``stages``), ``est_probes`` /
    ``est_rows`` accumulate the planner's totals, :attr:`stages` the
    per-stage breakdown, and the q-error properties compare them with
    the actual counters.  ``plan_drifts`` counts mid-fixpoint order
    flips (``plan_drift`` events).
    """

    clause: str
    stratum: int
    calls: int = 0
    wall_s: float = 0.0
    probes: int = 0
    firings: int = 0
    new: int = 0
    plan_mode: str = ""
    plan_cost: Optional[float] = None
    plans_built: int = 0
    pipelines_compiled: int = 0
    est_probes: float = 0.0
    est_rows: float = 0.0
    estimated_calls: int = 0
    plan_drifts: int = 0
    stages: dict[int, StageProfile] = field(default_factory=dict)

    @property
    def pipeline_hits(self) -> int:
        """Pipeline-cache hits."""
        return max(0, self.calls - self.pipelines_compiled)

    @property
    def probe_q_error(self) -> Optional[float]:
        """q-error of the total-probe estimate, None without estimates."""
        if not self.estimated_calls:
            return None
        return q_error(self.est_probes, self.probes)

    @property
    def worst_stage_q_error(self) -> Optional[float]:
        """Worst per-stage cardinality q-error, None without estimates."""
        if not self.stages:
            return None
        return max(stage.rows_q_error for stage in self.stages.values())

    @property
    def q_error(self) -> Optional[float]:
        """The clause's :func:`worst_q_error`, None without estimates."""
        probe_q = self.probe_q_error
        if probe_q is None:
            return None
        return worst_q_error(
            probe_q, (stage.rows_q_error for stage in self.stages.values()))

    @property
    def misestimated(self) -> bool:
        """True when the q-error reaches :data:`MISESTIMATE_THRESHOLD`."""
        return (self.q_error or 0.0) >= MISESTIMATE_THRESHOLD


@dataclass
class StratumProfile:
    """Aggregated profile of one stratum."""

    stratum: int
    heads: tuple[str, ...] = ()
    rounds: int = 0
    wall_s: float = 0.0
    cardinalities: dict[str, int] = field(default_factory=dict)


@dataclass
class Profile:
    """The in-memory profile a :class:`TimingTracer` accumulates."""

    meta: dict = field(default_factory=dict)
    strata: dict[int, StratumProfile] = field(default_factory=dict)
    clauses: dict[tuple[int, str], ClauseProfile] = field(
        default_factory=dict)
    events: int = 0

    def clause_rows(self) -> list[ClauseProfile]:
        """Clause profiles ordered by (stratum, first emission)."""
        return sorted(self.clauses.values(), key=lambda c: c.stratum)

    def total_wall_s(self) -> float:
        """Total clause-execution wall time (excludes bookkeeping)."""
        return sum(c.wall_s for c in self.clauses.values())

    def as_dict(self) -> dict:
        """JSON-ready form (what the benchmark trajectory records).

        Stamped with :data:`SCHEMA_VERSION` so BENCH/trace consumers can
        detect format drift.
        """
        return {
            "schema": SCHEMA_VERSION,
            "meta": _jsonable(self.meta),
            "strata": [
                {"stratum": s.stratum, "heads": list(s.heads),
                 "rounds": s.rounds, "wall_s": round(s.wall_s, 6),
                 "cardinalities": dict(s.cardinalities)}
                for s in sorted(self.strata.values(),
                                key=lambda s: s.stratum)],
            "clauses": [self._clause_dict(c) for c in self.clause_rows()],
        }

    @staticmethod
    def _clause_dict(c: ClauseProfile) -> dict:
        entry = {"clause": c.clause, "stratum": c.stratum,
                 "calls": c.calls, "wall_s": round(c.wall_s, 6),
                 "probes": c.probes, "firings": c.firings, "new": c.new,
                 "plan": c.plan_mode or None,
                 "plan_cost": c.plan_cost,
                 "pipelines_compiled": c.pipelines_compiled,
                 "pipeline_hits": c.pipeline_hits}
        if c.estimated_calls:
            entry["est_probes"] = round(c.est_probes, 3)
            entry["est_rows"] = round(c.est_rows, 3)
            entry["q_error"] = round(c.probe_q_error, 3)
            entry["worst_stage_q_error"] = \
                round(c.worst_stage_q_error or 0.0, 3)
            entry["misestimated"] = c.misestimated
            entry["plan_drifts"] = c.plan_drifts
            entry["stages"] = [
                {"index": s.index, "literal": s.literal, "calls": s.calls,
                 "est_rows": round(s.est_rows, 3),
                 "actual_rows": s.actual_rows,
                 "est_probes": round(s.est_probes, 3),
                 "actual_probes": s.actual_probes,
                 "q_error": round(s.rows_q_error, 3)}
                for _, s in sorted(c.stages.items())]
        elif c.plan_drifts:
            entry["plan_drifts"] = c.plan_drifts
        return entry

    def estimated_clauses(self) -> list[ClauseProfile]:
        """Clauses with captured estimates, worst first by q-error at
        the three decimals plan-quality rows carry, then clause text."""
        return sorted((c for c in self.clause_rows() if c.estimated_calls),
                      key=lambda c: (-round(c.q_error, 3), c.clause))

    def plan_quality(self) -> dict:
        """Estimate-vs-actual summary across all clauses with estimates.

        The compact block ``run`` responses, ``BENCH_*.json`` records and
        the server's ``plans`` aggregate carry: per-clause q-errors
        sorted worst-first plus the median/max/misestimate/drift
        roll-up the compare.py gate consumes.  Clauses that never ran
        with estimate capture (tracing off) are absent.
        """
        clauses = self.estimated_clauses()
        rows = [{
            "clause": c.clause, "stratum": c.stratum,
            "calls": c.calls,
            "est_probes": round(c.est_probes, 3),
            "probes": c.probes,
            "q_error": round(c.probe_q_error, 3),
            "worst_stage_q_error": round(c.worst_stage_q_error or 0.0, 3),
            "misestimated": c.misestimated,
            "plan_drifts": c.plan_drifts,
        } for c in clauses]
        q_errors = sorted(round(c.q_error, 3) for c in clauses)
        if q_errors:
            mid = len(q_errors) // 2
            median = q_errors[mid] if len(q_errors) % 2 \
                else (q_errors[mid - 1] + q_errors[mid]) / 2.0
        else:
            median = None
        return {
            "schema": SCHEMA_VERSION,
            "clauses": rows,
            "median_q_error": round(median, 3) if median is not None
            else None,
            "max_q_error": q_errors[-1] if q_errors else None,
            "misestimates": sum(r["misestimated"] for r in rows),
            "misestimate_threshold": MISESTIMATE_THRESHOLD,
            "plan_drifts": sum(c.plan_drifts
                               for c in self.clauses.values()),
        }


class TimingTracer:
    """Tracer folding the event stream into an in-memory :class:`Profile`.

    One instance can span several evaluations (e.g. an incremental
    engine's materialization plus its maintenance passes); the profile
    keeps accumulating.  Use a fresh instance per measurement when
    isolation matters.
    """

    def __init__(self) -> None:
        self.profile = Profile()

    def _clause(self, fields: dict) -> ClauseProfile:
        """The clause row an event names, created on first sight."""
        key = (fields.get("stratum", 0), fields["clause"])
        row = self.profile.clauses.get(key)
        if row is None:
            row = self.profile.clauses[key] = ClauseProfile(
                fields["clause"], key[0])
        return row

    def emit(self, kind: str, **fields) -> None:
        profile = self.profile
        profile.events += 1
        if kind == EV_CLAUSE_FIRE:
            row = self._clause(fields)
            row.calls += 1
            row.wall_s += fields.get("wall_s", 0.0)
            row.probes += fields.get("probes", 0)
            row.firings += fields.get("firings", 0)
            row.new += fields.get("new", 0)
            stages = fields.get("stages")
            if stages:
                row.estimated_calls += 1
                for i, captured in enumerate(stages):
                    stage = row.stages.get(i)
                    if stage is None:
                        stage = row.stages[i] = StageProfile(
                            i, captured.get("literal", ""))
                    stage.calls += 1
                    stage.est_rows += captured.get("est_rows", 0.0)
                    stage.actual_rows += captured.get("actual_rows", 0)
                    stage.est_probes += captured.get("est_probes", 0.0)
                    stage.actual_probes += captured.get("actual_probes", 0)
                    row.est_probes += captured.get("est_probes", 0.0)
                # The final stage's output estimate is the clause's
                # estimated result cardinality.
                row.est_rows += stages[-1].get("est_rows", 0.0)
        elif kind == EV_PLAN_DRIFT:
            row = self._clause(fields)
            row.plan_drifts += 1
        elif kind == EV_PLAN_BUILT:
            row = self._clause(fields)
            row.plans_built += 1
            row.plan_mode = fields.get("mode", row.plan_mode)
            row.plan_cost = fields.get("cost", row.plan_cost)
        elif kind == EV_PIPELINE_COMPILED:
            row = self._clause(fields)
            row.pipelines_compiled += 1
        elif kind == EV_STRATUM_START:
            index = fields.get("stratum", 0)
            stratum = profile.strata.get(index)
            if stratum is None:
                profile.strata[index] = StratumProfile(
                    index, tuple(fields.get("heads", ())))
        elif kind == EV_STRATUM_END:
            index = fields.get("stratum", 0)
            stratum = profile.strata.get(index)
            if stratum is None:
                stratum = StratumProfile(index)
                profile.strata[index] = stratum
            stratum.rounds += fields.get("rounds", 0)
            stratum.wall_s += fields.get("wall_s", 0.0)
            for pred, size in fields.get("cardinalities", {}).items():
                stratum.cardinalities[pred] = size
        elif kind == EV_EVAL_START:
            for name in ("program", "plan"):
                if name in fields:
                    profile.meta[name] = fields[name]
        elif kind == EV_EVAL_END:
            profile.meta["wall_s"] = \
                profile.meta.get("wall_s", 0.0) + fields.get("wall_s", 0.0)
            profile.meta["evaluations"] = \
                profile.meta.get("evaluations", 0) + 1


# -- the EXPLAIN ANALYZE table ----------------------------------------------

def clip(text: str, width: int) -> str:
    """``text`` cut to ``width`` characters, ``…`` marking a cut."""
    if len(text) <= width:
        return text
    return text[:width - 1] + "…"


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.2f}"


def _q_err_cell(row: ClauseProfile) -> str:
    """The q-err column: worst q-error, ``!``-flagged past the
    misestimate threshold, ``-`` when no estimates were captured."""
    worst = row.q_error
    if worst is None:
        return "-"
    return f"{worst:.1f}" + ("!" if row.misestimated else "")


def format_profile(profile: Profile,
                   clause_width: Optional[int] = None) -> str:
    """Render a profile as an ``EXPLAIN ANALYZE``-style text table.

    One section per stratum (with its fixpoint rounds, wall time and
    final head-relation cardinalities), one row per clause with the
    columns ``calls | time | probes | est probes | q-err | firings |
    new | plan | pipelines`` — time is clause-execution wall time in
    milliseconds, ``est probes`` the planner's probe estimate summed
    over the calls, ``q-err`` the worst probe/stage-cardinality q-error
    (``!`` flags a misestimate at or past
    :data:`MISESTIMATE_THRESHOLD`; ``-`` means no estimates were
    captured), ``plan`` the planning mode
    (with the estimated probe cost when the cost planner produced one),
    ``pipelines`` the batch pipeline compilations ``+`` cache hits.

    ``clause_width`` defaults to the longest clause text (floored at
    44 columns), so no clause is ever truncated out of grep reach; pass
    an explicit width to clip long clauses with an ellipsis (the full
    text is always in :meth:`Profile.as_dict`).
    """
    meta = profile.meta
    header_bits = []
    for name in ("program", "plan"):
        if name in meta:
            header_bits.append(f"{name}={meta[name]}")
    if "wall_s" in meta:
        header_bits.append(f"wall={_ms(meta['wall_s'])} ms")
    lines = ["EXPLAIN ANALYZE"
             + (f"  ({', '.join(header_bits)})" if header_bits else "")]
    if not profile.clauses:
        lines.append("  (no clause executions traced)")
        return "\n".join(lines)
    if clause_width is None:
        clause_width = max([44] + [len(c.clause)
                                   for c in profile.clauses.values()])

    columns = ("calls", "time ms", "probes", "est probes", "q-err",
               "firings", "new", "plan", "pipelines")
    widths = (6, 9, 9, 11, 7, 9, 7, 14, 10)
    head = "  " + "clause".ljust(clause_width) + "  " + "  ".join(
        c.rjust(w) for c, w in zip(columns, widths))

    by_stratum: dict[int, list[ClauseProfile]] = {}
    for row in profile.clause_rows():
        by_stratum.setdefault(row.stratum, []).append(row)

    for index in sorted(by_stratum):
        stratum = profile.strata.get(index)
        bits = [f"stratum {index}"]
        if stratum is not None:
            if stratum.heads:
                bits.append(f"defines {', '.join(stratum.heads)}")
            bits.append(f"{stratum.rounds} round(s)")
            bits.append(f"{_ms(stratum.wall_s)} ms")
            if stratum.cardinalities:
                cards = ", ".join(f"{p}={n}" for p, n in
                                  sorted(stratum.cardinalities.items()))
                bits.append(f"final sizes: {cards}")
        lines.append(": ".join([bits[0], "  ".join(bits[1:])])
                     if len(bits) > 1 else bits[0])
        lines.append(head)
        for row in sorted(by_stratum[index],
                          key=lambda r: (-r.wall_s, r.clause)):
            plan = row.plan_mode or "-"
            if row.plan_cost is not None:
                plan = f"{plan}:{row.plan_cost:.0f}"
            est_probes = f"{row.est_probes:.0f}" \
                if row.estimated_calls else "-"
            # No compile event means the clause's pipelines were compiled
            # before tracing began (a prepared engine's cache), so the
            # split is unknown.
            pipelines = f"{row.pipelines_compiled}+{row.pipeline_hits}" \
                if row.pipelines_compiled else "-"
            cells = (str(row.calls), _ms(row.wall_s), str(row.probes),
                     est_probes, _q_err_cell(row),
                     str(row.firings), str(row.new),
                     clip(plan, widths[7]), pipelines)
            lines.append(
                "  " + clip(row.clause, clause_width).ljust(clause_width)
                + "  " + "  ".join(c.rjust(w)
                                   for c, w in zip(cells, widths)))
    totals = (f"total: {sum(c.calls for c in profile.clauses.values())} "
              f"clause execution(s), {_ms(profile.total_wall_s())} ms, "
              f"{sum(c.probes for c in profile.clauses.values())} probes, "
              f"{sum(c.new for c in profile.clauses.values())} new "
              f"tuple(s)")
    lines.append(totals)
    return "\n".join(lines)
