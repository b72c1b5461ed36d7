"""The server's synchronous core: sessions, prepared programs, handlers.

:class:`IdlogService` is everything the IDLOG server does *minus* the
transport: per-session :class:`~repro.datalog.database.Database`
objects, the prepared-program cache, the metrics registry, and one
handler per request type.  The asyncio layer (:mod:`repro.server.server`)
frames NDJSON lines, schedules :meth:`IdlogService.handle` onto a bounded
worker pool, and adds the two transport-level types (``cancel``,
``shutdown``).  Being synchronous, the core runs in-process without
sockets (``IdlogService().handle({"type": "ping"})``) and states its
locking: one :class:`threading.Lock` per session, so requests of
different sessions run concurrently while one session's serialize.

``prepare`` compiles a program once and keeps an
:class:`~repro.core.IdlogEngine` with ``persistent_caches=True``, so
later runs reuse its clause pipelines and plans; inline ``run
{"program": ...}`` source gets the same reuse through a source-hash
cache.  The ``run`` handler shapes its response around
:func:`repro.core.run_program`, the entry point ``repro-idlog run``
shares for record, replay, digest and profile.

When a request finishes, :meth:`IdlogService.observe` builds its one
:class:`RequestEvent` and every per-request sink folds it: the request
metrics, the ``recent`` ring, the slow log, the structured log and the
``plans`` aggregate.
"""

from __future__ import annotations

import collections
import hashlib
import io
import json
import os
import threading
import time
from dataclasses import dataclass, field as dataclass_field
from time import perf_counter
from typing import Optional

from ..core import (RUN_MODES, ChoiceLog, IdlogEngine, pick_queries,
                    run_program)
from ..datalog.database import Database, Relation
from ..datalog.metrics import MetricsRegistry, MetricsTracer
from ..datalog.parser import parse_program
from ..datalog.planner import check_plan_mode
from ..datalog.pool import GLOBAL_POOL
from ..datalog.storage import STORAGE_FORMAT, load_database, save_database
from ..datalog.trace import (MISESTIMATE_THRESHOLD, SCHEMA_VERSION,
                             ContextTracer, JsonTracer)
from ..obs.log import StructuredLogger, check_log_level
from .protocol import PROTOCOL_VERSION, REQUEST_TYPES, RequestError, field

#: Request-latency histogram buckets: 100µs .. 100s by decades — server
#: round trips sit well above the engine's clause-level buckets.
_REQUEST_BUCKETS = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)


@dataclass
class ServerConfig:
    """Knobs for :class:`IdlogService` and the asyncio transport.

    Attributes:
        plan: Default planning mode for new sessions (``greedy``/``cost``).
        workers: Worker-pool threads; also the bound on concurrently
            *executing* requests (excess requests queue).
        timeout_s: Default per-request timeout (None = unlimited);
            individual requests may pass a smaller ``timeout``.
        drain_s: Graceful-shutdown drain budget for in-flight requests.
        metrics_path: When set, the transport flushes the metrics
            registry here in a ``finally:`` on shutdown — a killed
            server still leaves a valid export (the PR-4/PR-5 contract).
        metrics_format: ``prom`` or ``json`` for ``metrics_path``.
        choice_log_dir: When set, every ``run {"record": true}`` also
            saves its choice log as
            ``<dir>/<session>-<seq>.choices.jsonl`` at request
            completion, so a mid-request kill leaves all *completed*
            requests' logs valid on disk.
        max_sessions: Open-session cap (a garbage client cannot OOM the
            server by opening sessions in a loop).
        slow_ms: Slow-query threshold in milliseconds (None disables
            slow capture).  A ``run``/``answers``-class request at or
            over the threshold lands in the in-memory slow log (the
            ``slowlog`` request type) and, when ``slow_log_path`` is
            set, is appended to that JSONL file with its per-clause
            profile and choice-log digest.  Setting it also turns on
            per-request tracing (profile + digest) for every ``run``,
            which costs a few percent of evaluation wall time.
        slow_log_path: JSONL file slow-request entries append to.
        recent_requests: Ring-buffer capacity for the ``recent``
            introspection request.
        log_path: Structured-log sink (JSONL); None logs to stderr.
        log_level: Threshold for the structured log
            (``debug``/``info``/``warning``/``error``).  The quiet
            default keeps in-process/test servers silent; ``repro-idlog
            serve`` defaults to ``info``.
    """

    plan: str = "greedy"
    workers: int = 4
    timeout_s: Optional[float] = None
    drain_s: float = 5.0
    metrics_path: Optional[str] = None
    metrics_format: str = "prom"
    choice_log_dir: Optional[str] = None
    max_sessions: int = 256
    slow_ms: Optional[float] = None
    slow_log_path: Optional[str] = None
    recent_requests: int = 128
    log_path: Optional[str] = None
    log_level: str = "warning"

    def __post_init__(self) -> None:
        self.plan = check_plan_mode(self.plan)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.metrics_format not in ("prom", "json"):
            raise ValueError(
                f"metrics_format must be prom or json, "
                f"got {self.metrics_format!r}")
        if self.slow_ms is not None and self.slow_ms < 0:
            raise ValueError("slow_ms must be >= 0 (or None to disable)")
        if self.recent_requests < 1:
            raise ValueError("recent_requests must be >= 1")
        self.log_level = check_log_level(self.log_level)


@dataclass
class RequestContext:
    """Identity, timings and attribution of one request in flight.

    The transport (:mod:`repro.server.server`) mints one per dispatched
    request via :meth:`IdlogService.new_context`; :meth:`IdlogService.handle`
    stamps the queue wait and the evaluation handlers fill in attribution
    (session, prepared program, counters, answer sizes, per-clause
    profile, choice-log digest, plan-quality report).  No sink reads it:
    :meth:`IdlogService.observe` snapshots it into the request's one
    :class:`RequestEvent`.  In-process callers may omit it;
    :meth:`~IdlogService.handle` then mints a local one.

    Attributes:
        request_id: Server-assigned id (``r<n>``), unique per service;
            also returned in ``run`` responses and stamped (with the
            session id) on every span event via
            :class:`~repro.datalog.trace.ContextTracer`.
        wire_id: The client-chosen ``id`` field, echoed for correlation.
        enqueued_s: ``perf_counter`` at transport dispatch; the gap to
            the handler start is the worker-queue wait ``queue_s``.
        plan_quality: The run's :meth:`Profile.plan_quality` report,
            set only when some clause carried planner estimates.
    """

    request_id: str
    rtype: str
    wire_id: object = None
    ts: float = 0.0
    enqueued_s: float = 0.0
    queue_s: float = 0.0
    session: Optional[str] = None
    prepared: Optional[str] = None
    counters: Optional[dict] = None
    answers: Optional[dict] = None
    profile: Optional[dict] = dataclass_field(default=None, repr=False)
    choice_digest: Optional[str] = None
    plan_quality: Optional[dict] = dataclass_field(default=None, repr=False)

    def summary(self, status: str, wall_s: float) -> dict:
        """The JSON-ready ``recent`` row (profile excluded: bulky), with
        a compact roll-up of the plan-quality report."""
        quality = self.plan_quality
        return {
            "request_id": self.request_id, "id": self.wire_id,
            "type": self.rtype, "session": self.session,
            "prepared": self.prepared, "status": status,
            "ts": round(self.ts, 3),
            "wall_ms": round(wall_s * 1000.0, 3),
            "queue_ms": round(self.queue_s * 1000.0, 3),
            "counters": self.counters, "answers": self.answers,
            "choice_digest": self.choice_digest,
            "plan_quality": None if quality is None else {
                "median_q_error": quality["median_q_error"],
                "max_q_error": quality["max_q_error"],
                "misestimates": quality["misestimates"],
                "plan_drifts": quality["plan_drifts"],
                "worst_clause": quality["clauses"][0]["clause"]},
        }


@dataclass(frozen=True)
class RequestEvent:
    """One finished request: the record every per-request sink folds.

    :meth:`IdlogService.observe` builds exactly one per request.
    ``summary`` is the ``recent`` row (:meth:`RequestContext.summary`);
    the transport's own ``cancel``/``shutdown`` requests have none and
    count in the request metrics only.  ``plan_quality`` is the run's
    full plan-quality report and ``profile`` its ``Profile.as_dict()``.
    """

    type: str
    status: str
    wall_s: float
    slow: bool = False
    summary: Optional[dict] = None
    plan_quality: Optional[dict] = dataclass_field(default=None, repr=False)
    profile: Optional[dict] = dataclass_field(default=None, repr=False)

    @property
    def plan_drifts(self) -> int:
        """Mid-fixpoint join-order flips the run saw."""
        return self.plan_quality["plan_drifts"] if self.plan_quality else 0


class PreparedProgram:
    """One compiled program held resident for a session.

    The engine is constructed with ``persistent_caches=True`` so its
    clause pipelines and plans survive between ``run`` calls — that
    reuse (not the parse) is what makes preparing worth a round trip.
    """

    def __init__(self, name: str, source: str, plan: str, tracer) -> None:
        program = parse_program(source, name=name)
        if program.has_choice():
            raise RequestError(
                "bad_request",
                "choice programs are not served over the wire; translate "
                "to IDLOG first (repro-idlog explain shows the "
                "translation)")
        self.name = name
        self.source = source
        self.plan = plan
        self.engine = IdlogEngine(program, plan=plan, tracer=tracer,
                                  persistent_caches=True)
        self.uses = 0

    def describe(self) -> dict:
        program = self.engine.program
        return {
            "name": self.name,
            "clauses": len(program.clauses),
            "strata": self.engine.compiled.stratification.depth,
            "outputs": sorted(program.head_predicates),
            "inputs": sorted(program.input_predicates),
            "plan": self.plan,
            "uses": self.uses,
        }


class Session:
    """One client session: a private database plus prepared programs."""

    def __init__(self, session_id: str, plan: str) -> None:
        self.id = session_id
        self.plan = plan
        self.db = Database()
        self.udom: set[str] = set()
        self.programs: dict[str, PreparedProgram] = {}
        self.seq = 0
        #: Serializes evaluation within the session — prepared engines
        #: (persistent caches) are not safe for concurrent use.
        self.lock = threading.Lock()


class IdlogService:
    """Session registry + request handlers (everything but the sockets).

    >>> service = IdlogService()
    >>> service.handle({"type": "ping"})["pong"]
    True
    """

    def __init__(self, config: Optional[ServerConfig] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.config = config or ServerConfig()
        self.registry = registry or MetricsRegistry()
        #: Folds engine span events (idlog_* families) into the registry.
        self.tracer = MetricsTracer(self.registry)
        self._sessions: dict[str, Session] = {}
        self._lock = threading.Lock()
        self._next_session = 0
        r = self.registry
        self.m_requests = r.counter(
            "idlog_server_requests_total",
            "Requests served, by type and outcome ('ok' or an error type)",
            labels=("type", "status"))
        self.m_sessions = r.gauge(
            "idlog_server_sessions", "Sessions currently open")
        self.m_sessions_total = r.counter(
            "idlog_server_sessions_total", "Sessions ever opened")
        self.m_prepared = r.gauge(
            "idlog_server_prepared_programs",
            "Prepared programs resident across all sessions")
        self.m_prepared_cache = r.counter(
            "idlog_server_prepared_cache_total",
            "Prepared-program cache lookups", labels=("result",))
        self.m_connections = r.gauge(
            "idlog_server_connections", "Connections currently open")
        self.m_connections_total = r.counter(
            "idlog_server_connections_total", "Connections ever accepted")
        self.m_inflight = r.gauge(
            "idlog_server_inflight_requests",
            "Requests currently executing or awaiting a worker")
        self.m_timeouts = r.counter(
            "idlog_server_timeouts_total",
            "Requests that exceeded their per-request timeout")
        self.m_cancelled = r.counter(
            "idlog_server_cancelled_total",
            "Requests cancelled by a cancel request or shutdown")
        self.m_http = r.counter(
            "idlog_server_http_requests_total",
            "HTTP GETs answered on the NDJSON listener", labels=("path",))
        self.m_request_duration = r.histogram(
            "idlog_server_request_duration",
            "Wall time per served request, by request type",
            labels=("type",), buckets=_REQUEST_BUCKETS)
        self.m_slow = r.counter(
            "idlog_server_slow_requests_total",
            "Requests at or over the slow_ms threshold")
        self.m_pool_constants = r.gauge(
            "idlog_pool_constants",
            "Constants interned in the process-wide constant pool")
        self.m_pool_bytes = r.gauge(
            "idlog_pool_approx_bytes",
            "Approximate bytes held by the constant pool")
        self._requests_served = 0
        self._next_request = 0
        #: Structured log (stderr or ``config.log_path``); the transport
        #: and the CLI write through this, never raw stderr.
        self.log = StructuredLogger(sink=self.config.log_path,
                                    level=self.config.log_level)
        #: Ring buffer of finished-request summaries (``recent``).
        self._recent: collections.deque = collections.deque(
            maxlen=self.config.recent_requests)
        #: In-memory tail of slow-request entries (``slowlog``).
        self._slow: collections.deque = collections.deque(maxlen=64)
        self._slow_lock = threading.Lock()
        #: Per-clause plan-quality aggregate across observed runs (the
        #: ``plans`` request), keyed by clause text.  Fed by every run
        #: that captured per-stage estimates (profile/trace requested,
        #: or slow-query capture on).
        self._plans_agg: dict[str, dict] = {}
        self._plan_requests = 0
        #: The folds :meth:`observe` hands each :class:`RequestEvent` to.
        self._sinks = [self._count_request, self._remember_recent,
                       self._capture_slow, self._log_request,
                       self._fold_plans]

    # -- dispatch -----------------------------------------------------------

    def new_context(self, request: dict, rtype: str) -> RequestContext:
        """Mint the request-scoped identity the transport threads
        through :meth:`handle` and :meth:`observe`."""
        with self._lock:
            self._next_request += 1
            number = self._next_request
        return RequestContext(f"r{number}", rtype, request.get("id"),
                              ts=time.time(), enqueued_s=perf_counter())

    def handle(self, request: dict,
               context: Optional[RequestContext] = None) -> dict:
        """Serve one parsed request; the ``result`` payload of a response.

        Args:
            context: The :class:`RequestContext` the transport minted at
                dispatch; in-process callers may omit it (a local one is
                minted, so handlers can rely on it existing).

        Raises:
            RequestError: for every anticipated failure; the caller maps
                it to an ``ok: false`` response.  ``cancel`` and
                ``shutdown`` are transport-level types — in-process
                callers have nothing to cancel, so they fail here with
                ``bad_request``.
        """
        rtype = field(request, "type", str)
        if rtype not in REQUEST_TYPES:
            raise RequestError(
                "bad_request",
                f"unknown request type {rtype!r}; known: "
                + ", ".join(REQUEST_TYPES))
        if rtype in ("cancel", "shutdown"):
            raise RequestError(
                "bad_request",
                f"{rtype} is a transport-level request; it is only "
                "served over a live server connection")
        if context is None:
            context = self.new_context(request, rtype)
        if context.enqueued_s:
            context.queue_s = max(0.0, perf_counter() - context.enqueued_s)
        handler = getattr(self, f"_handle_{rtype}")
        result = handler(request, context)
        with self._lock:
            self._requests_served += 1
        return result

    def observe(self, rtype: str, status: str, seconds: float,
                context: Optional[RequestContext] = None) -> None:
        """Build the finished request's one :class:`RequestEvent` and
        hand it to every sink in turn.  A timed-out or cancelled
        request's worker may still be filling in its context; the event
        snapshots what is there now, and later writes reach no sink."""
        slow_ms = self.config.slow_ms
        event = RequestEvent(rtype, status, seconds) if context is None \
            else RequestEvent(
                rtype, status, seconds,
                slow_ms is not None and seconds * 1000.0 >= slow_ms,
                context.summary(status, seconds), context.plan_quality,
                context.profile)
        for sink in self._sinks:
            sink(event)

    def _count_request(self, event: RequestEvent) -> None:
        self.m_requests.labels(type=event.type, status=event.status).inc()
        self.m_request_duration.labels(type=event.type).observe(
            event.wall_s)
        if event.status == "timeout":
            self.m_timeouts.inc()
        elif event.status == "cancelled":
            self.m_cancelled.inc()
        if event.slow:
            self.m_slow.inc()

    def _remember_recent(self, event: RequestEvent) -> None:
        if event.summary is not None:
            with self._lock:
                self._recent.append(event.summary)

    def _capture_slow(self, event: RequestEvent) -> None:
        """The slow-query ring and ``slow_log_path``.  A request whose
        re-costing flipped a cached clause order lands there as
        ``plan_drift`` whatever its wall time: such flips are rare and
        worth a post-mortem trail."""
        entries = [{"event": kind, "schema": SCHEMA_VERSION, **event.summary}
                   for kind, hit in (("slow_request", event.slow),
                                     ("plan_drift", event.plan_drifts))
                   if hit]
        if not entries:
            return
        if event.slow and event.profile is not None:
            entries[0]["profile"] = event.profile
        with self._slow_lock:
            self._slow.extend(entries)
            path = self.config.slow_log_path
            if path:
                with open(path, "a", encoding="utf-8") as handle:
                    handle.writelines(json.dumps(entry, sort_keys=True)
                                      + "\n" for entry in entries)

    def _log_request(self, event: RequestEvent) -> None:
        if event.summary is None:
            return
        if event.slow:
            self.log.warning("slow_request", **event.summary)
        elif self.log.enabled("debug"):
            self.log.debug("request", **event.summary)
        if event.plan_drifts:
            self.log.warning("plan_drift", **event.summary)

    def _fold_plans(self, event: RequestEvent) -> None:
        """The ``plans`` aggregate, from the run's estimate-bearing
        clause rows; a clause's worst q-error is the larger of its probe
        and worst-stage q-errors.  Bounded: past 4096 distinct clauses,
        new clause texts are dropped, so a garbage client cannot grow
        the aggregate without bound."""
        if event.plan_quality is None:
            return
        with self._lock:
            self._plan_requests += 1
            for row in event.plan_quality["clauses"]:
                agg = self._plans_agg.get(row["clause"])
                if agg is None:
                    if len(self._plans_agg) >= 4096:
                        continue
                    agg = self._plans_agg[row["clause"]] = {
                        "clause": row["clause"], "stratum": row["stratum"],
                        "requests": 0, "calls": 0, "est_probes": 0.0,
                        "probes": 0, "worst_q_error": 0.0,
                        "misestimates": 0, "plan_drifts": 0}
                agg["requests"] += 1
                for key in ("calls", "est_probes", "probes", "plan_drifts"):
                    agg[key] += row[key]
                agg["misestimates"] += row["misestimated"]
                agg["worst_q_error"] = max(agg["worst_q_error"],
                                           row["q_error"],
                                           row["worst_stage_q_error"])

    # -- sessions -----------------------------------------------------------

    def session(self, request: dict,
                context: Optional[RequestContext] = None) -> Session:
        """The session a request addresses (stamped on ``context`` for
        the recent/slow-log attribution).

        Raises:
            RequestError: (``unknown_session``) when the id is unknown —
                including sessions already closed.
        """
        sid = field(request, "session", str)
        with self._lock:
            session = self._sessions.get(sid)
        if session is None:
            raise RequestError(
                "unknown_session",
                f"no open session {sid!r} (open_session creates one; "
                "sessions die with close_session, not with the "
                "connection)")
        if context is not None:
            context.session = session.id
        return session

    def session_count(self) -> int:
        with self._lock:
            return len(self._sessions)

    def _handle_ping(self, request: dict,
                     context: RequestContext) -> dict:
        return {"pong": True, "server": "repro-idlog",
                "protocol": PROTOCOL_VERSION, "schema": SCHEMA_VERSION}

    def _handle_open_session(self, request: dict,
                             context: RequestContext) -> dict:
        plan = field(request, "plan", str, required=False,
                     default=self.config.plan)
        try:
            plan = check_plan_mode(plan)
        except Exception as exc:
            raise RequestError("bad_request", str(exc))
        with self._lock:
            if len(self._sessions) >= self.config.max_sessions:
                raise RequestError(
                    "bad_request",
                    f"session cap reached ({self.config.max_sessions}); "
                    "close sessions before opening more")
            self._next_session += 1
            sid = f"s{self._next_session}"
            self._sessions[sid] = Session(sid, plan)
        self.m_sessions.inc()
        self.m_sessions_total.inc()
        return {"session": sid, "plan": plan}

    def _handle_close_session(self, request: dict,
                              context: RequestContext) -> dict:
        session = self.session(request, context)
        with session.lock:  # drain: no close mid-evaluation
            with self._lock:
                self._sessions.pop(session.id, None)
        self._count_closed([session])
        return {"closed": session.id,
                "prepared_dropped": len(session.programs)}

    def close_all_sessions(self) -> int:
        """Drop every session (graceful-shutdown cleanup)."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        self._count_closed(sessions)
        return len(sessions)

    def _count_closed(self, sessions: list[Session]) -> None:
        self.m_sessions.dec(len(sessions))
        self.m_prepared.dec(sum(len(s.programs) for s in sessions))

    # -- data ---------------------------------------------------------------

    def _handle_assert_facts(self, request: dict,
                             context: RequestContext) -> dict:
        session = self.session(request, context)
        facts = field(request, "facts", dict, required=False, default={})
        udom = field(request, "udom", list, required=False, default=[])
        if not all(isinstance(item, str) for item in udom):
            raise RequestError("bad_request", "udom entries must be strings")
        for pred, rows in facts.items():
            if not isinstance(pred, str) or not isinstance(rows, list):
                raise RequestError(
                    "bad_request",
                    "facts must map predicate names to row lists")
            if not all(isinstance(row, list) and all(
                    isinstance(v, (str, int)) and not isinstance(v, bool)
                    for v in row) for row in rows):
                raise RequestError(
                    "bad_request",
                    f"rows of {pred} must be lists of strings/integers")
        with session.lock:
            # Every row meets its relation's arity and sort check before
            # the first add, so a failing request leaves the session as
            # it was.
            for pred, rows in facts.items():
                if rows:
                    old = session.db.relation_or_empty(pred, len(rows[0]))
                    probe = Relation(old.arity, old.schema)
                    for row in rows:
                        probe.check_row(tuple(row))
            added = sum(bool(session.db.add_fact(pred, tuple(row)))
                        for pred, rows in facts.items() for row in rows)
            if udom:
                session.udom.update(udom)
                session.db = Database(
                    {name: session.db.relation(name)
                     for name in session.db.relation_names()},
                    udomain=session.udom)
            sizes = {name: len(session.db.relation(name))
                     for name in sorted(session.db.relation_names())}
        return {"added": added, "relations": sizes,
                "udomain_size": len(session.db.udomain)}

    # -- programs -----------------------------------------------------------

    def _compile(self, session: Session, key: str, source: str,
                 display_name: str) -> PreparedProgram:
        """Cache-or-compile one program under ``key`` (caller holds the
        session lock).  Counts the ``prepared_cache`` hit/miss."""
        existing = session.programs.get(key)
        if existing is not None and existing.source == source:
            self.m_prepared_cache.labels(result="hit").inc()
            return existing
        self.m_prepared_cache.labels(result="miss").inc()
        prepared = PreparedProgram(display_name, source, session.plan,
                                   self.tracer)
        if existing is None:
            self.m_prepared.inc()
        session.programs[key] = prepared
        return prepared

    def _resolve_program(self, session: Session,
                         request: dict) -> PreparedProgram:
        """The prepared program a run/answers request names — either
        ``prepared`` (a name from an earlier ``prepare``) or ``program``
        (inline source, cached by content hash)."""
        name = field(request, "prepared", str, required=False)
        source = field(request, "program", str, required=False)
        if (name is None) == (source is None):
            raise RequestError(
                "bad_request",
                "exactly one of 'prepared' (a prepared name) or "
                "'program' (inline source) is required")
        if name is not None:
            prepared = session.programs.get(name)
            if prepared is None:
                raise RequestError(
                    "unknown_prepared",
                    f"session {session.id} has no prepared program "
                    f"{name!r} (prepare installs one)")
            self.m_prepared_cache.labels(result="hit").inc()
            return prepared
        digest = hashlib.sha256(source.encode()).hexdigest()[:16]
        return self._compile(session, f"\x00inline:{digest}", source,
                             f"inline:{digest}")

    def _handle_prepare(self, request: dict,
                        context: RequestContext) -> dict:
        session = self.session(request, context)
        name = field(request, "name", str)
        source = field(request, "program", str)
        if name.startswith("\x00"):
            raise RequestError("bad_request",
                               "prepared names must be printable")
        with session.lock:
            before = session.programs.get(name)
            prepared = self._compile(session, name, source, name)
            result = prepared.describe()
            result["cached"] = prepared is before
        return result

    # -- evaluation ---------------------------------------------------------

    @staticmethod
    def _rows_out(rows) -> list[list]:
        """Answer tuples as JSON rows, deterministically ordered."""
        return [list(row)
                for row in sorted(rows, key=lambda r: tuple(map(repr, r)))]

    def _handle_run(self, request: dict,
                    context: RequestContext) -> dict:
        session = self.session(request, context)
        mode = field(request, "mode", str, required=False, default="run")
        if mode not in RUN_MODES:
            raise RequestError("bad_request",
                               "mode must be 'run' or 'one' (answers has "
                               "its own request type)")
        seed = field(request, "seed", int, required=False)
        record = field(request, "record", bool, required=False,
                       default=False)
        replay_data = field(request, "replay", dict, required=False)
        # Both checked before the session is touched: no program is
        # compiled and no use counted for a request that cannot run.
        if record and replay_data is not None:
            raise RequestError("bad_request",
                               "record and replay are mutually exclusive")
        replay = None if replay_data is None \
            else ChoiceLog.from_jsonable(replay_data)
        want_trace = field(request, "trace", bool, required=False,
                           default=False)
        want_profile = field(request, "profile", bool, required=False,
                             default=False)
        # Per-request observability engages when the request asked for
        # it or the server captures slow queries; with all three off the
        # run keeps the shared metrics fold and the uninstrumented path.
        observing = (want_trace or want_profile
                     or self.config.slow_ms is not None)
        trace_buf = io.StringIO() if want_trace else None
        sinks = () if trace_buf is None else (ContextTracer(
            JsonTracer(trace_buf), request_id=context.request_id,
            session_id=session.id),)
        with session.lock:
            prepared = self._resolve_program(session, request)
            context.prepared = prepared.name
            queries = pick_queries(
                prepared.engine.program,
                field(request, "query", list, required=False))
            prepared.uses += 1
            # The session lock serializes engine use, so the run may
            # re-point the prepared engine's tracer for its one call.
            outcome = run_program(
                prepared.engine, session.db, mode, seed, queries,
                record={"session": session.id, "program": prepared.name,
                        "mode": mode, "seed": seed} if record else None,
                replay=replay, digest=observing, profile=observing,
                sinks=sinks)
            out = {
                "mode": mode,
                "prepared": prepared.name,
                "request_id": context.request_id,
                "answers": {
                    pred: self._rows_out(outcome.result.tuples(pred))
                    for pred in queries},
                "stats": outcome.result.stats.counters(),
            }
            if outcome.log is not None:
                context.choice_digest = out["choice_digest"] = \
                    outcome.digest
            if outcome.profile is not None:
                context.profile = outcome.profile.as_dict()
                if want_profile:
                    out["profile"] = context.profile
                plan_quality = outcome.plan_quality()
                if plan_quality["clauses"]:
                    context.plan_quality = out["plan_quality"] = \
                        plan_quality
            if trace_buf is not None:
                out["trace"] = [json.loads(line) for line
                                in trace_buf.getvalue().splitlines()]
            if record:
                out["choice_log"] = outcome.log.to_jsonable()
                out["id_choices"] = len(outcome.log)
                if self.config.choice_log_dir:
                    session.seq += 1
                    os.makedirs(self.config.choice_log_dir, exist_ok=True)
                    path = os.path.join(
                        self.config.choice_log_dir,
                        f"{session.id}-{session.seq:04d}.choices.jsonl")
                    outcome.log.save(path)
                    out["choice_log_path"] = path
            context.counters = out["stats"]
            context.answers = {pred: len(rows)
                               for pred, rows in out["answers"].items()}
        return out

    def _handle_answers(self, request: dict,
                        context: RequestContext) -> dict:
        session = self.session(request, context)
        pred = field(request, "pred", str)
        max_branches = field(request, "max_branches", int, required=False,
                             default=200_000)
        with session.lock:
            prepared = self._resolve_program(session, request)
            context.prepared = prepared.name
            if pred not in prepared.engine.program.head_predicates:
                raise RequestError(
                    "bad_request",
                    f"{pred} is not an output predicate of the program")
            prepared.uses += 1
            answers = prepared.engine.answers(session.db, pred,
                                              max_branches)
        rendered = sorted((self._rows_out(answer) for answer in answers),
                          key=repr)
        return {"pred": pred, "count": len(answers), "answers": rendered}

    # -- persistence --------------------------------------------------------

    def _handle_snapshot(self, request: dict,
                         context: RequestContext) -> dict:
        session = self.session(request, context)
        directory = field(request, "dir", str)
        with session.lock:
            save_database(session.db, directory)
            rows = sum(len(session.db.relation(name))
                       for name in session.db.relation_names())
            count = len(session.db.relation_names())
        return {"dir": directory, "relations": count, "rows": rows,
                "format": STORAGE_FORMAT}

    def _handle_restore(self, request: dict,
                        context: RequestContext) -> dict:
        session = self.session(request, context)
        directory = field(request, "dir", str)
        with session.lock:
            db = load_database(directory)
            session.db = db
            session.udom = set(db.udomain)
            rows = sum(len(db.relation(name))
                       for name in db.relation_names())
        return {"dir": directory,
                "relations": len(db.relation_names()), "rows": rows}

    # -- introspection ------------------------------------------------------

    def _handle_stats(self, request: dict,
                      context: RequestContext) -> dict:
        session = self.session(request, context)
        with session.lock:
            report = session.db.stats()
            report["session"] = session.id
            report["prepared"] = [p.describe()
                                  for p in session.programs.values()]
        return report

    def _handle_server_stats(self, request: dict,
                             context: RequestContext) -> dict:
        with self._lock:
            sessions = len(self._sessions)
            prepared = sum(len(s.programs)
                           for s in self._sessions.values())
            served = self._requests_served
        return {"sessions": sessions, "prepared_programs": prepared,
                "requests_served": served,
                "inflight": int(self.m_inflight.value),
                "workers": self.config.workers,
                "protocol": PROTOCOL_VERSION, "schema": SCHEMA_VERSION,
                "timeout_s": self.config.timeout_s,
                "slow_ms": self.config.slow_ms}

    @staticmethod
    def _limit(request: dict, default: int) -> int:
        limit = field(request, "limit", int, required=False, default=default)
        if limit < 1:
            raise RequestError("bad_request", "limit must be >= 1")
        return limit

    def _handle_recent(self, request: dict,
                       context: RequestContext) -> dict:
        limit = self._limit(request, 50)
        with self._lock:
            items = list(self._recent)[-limit:]
            served = self._requests_served
        return {"requests": items[::-1],  # newest first
                "count": len(items),
                "capacity": self.config.recent_requests,
                "requests_served": served}

    def _handle_plans(self, request: dict,
                      context: RequestContext) -> dict:
        limit = self._limit(request, 20)
        with self._lock:
            rows = sorted(self._plans_agg.values(),
                          key=lambda r: (-r["worst_q_error"], r["clause"]))
            dropped = max(0, len(rows) - limit)
            rows = [dict(row, est_probes=round(row["est_probes"], 3),
                         worst_q_error=round(row["worst_q_error"], 3))
                    for row in rows[:limit]]
            observed = self._plan_requests
        return {"clauses": rows, "count": len(rows), "dropped": dropped,
                "requests_observed": observed,
                "misestimate_threshold": MISESTIMATE_THRESHOLD,
                "observing": self.config.slow_ms is not None}

    def _handle_slowlog(self, request: dict,
                        context: RequestContext) -> dict:
        limit = self._limit(request, 50)
        with self._slow_lock:
            entries = list(self._slow)[-limit:]
        return {"slow_ms": self.config.slow_ms,
                "path": self.config.slow_log_path,
                "count": len(entries),
                "entries": entries[::-1]}  # newest first

    # -- export -------------------------------------------------------------

    def _sample_pool(self) -> None:
        """Set the pool gauges from the constant pool (the same figures
        as ``Database.stats()``), once per render."""
        pool = GLOBAL_POOL.stats()
        self.m_pool_constants.set(pool["constants"])
        self.m_pool_bytes.set(pool["approx_bytes"])

    def metrics_text(self) -> str:
        """Prometheus exposition of the whole registry (the ``/metrics``
        body)."""
        self._sample_pool()
        return self.registry.to_prometheus()

    def flush_metrics(self) -> Optional[str]:
        """Write the registry to ``config.metrics_path`` (if set).

        Called by the transport in a ``finally:`` — runs on clean
        shutdown, on drain timeout, and on a fatal error alike, so the
        file on disk is always a valid exposition of everything counted
        so far.
        """
        path = self.config.metrics_path
        if not path:
            return None
        self._sample_pool()
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(self.registry.render(self.config.metrics_format))
        os.replace(tmp, path)
        return path
