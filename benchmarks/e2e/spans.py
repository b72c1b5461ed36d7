"""Benchmark-side spans around the engine's public entry points.

The traced pass of the end-to-end benchmark attributes op wall time to
layers without touching ``src/``: each :class:`Site` names one public
callable *as its caller resolves it* (a module global the caller imported,
or a class attribute looked up on an instance), and
:meth:`SpanRecorder.installed` swaps a timing wrapper in at exactly that
name.  Patching the defining module instead would miss every caller that
imported the name before the patch, so each site also lists the workloads
on which it must fire; the self-test fails when a wrapper records no call
there.

A span is ``(name, start, end, parent, op)``.  A layer's self time is its
spans' time minus the time of their child spans, so the self times of every
layer plus the op root's own self time (the residual) add up to the op's
wall time.  Counts that ride along (rows out, probes, ...) are read off the
call's arguments and result at the same boundary.

The engine's own ``TimingTracer`` is deliberately not used: installing any
tracer makes the engine build per-choice audit records, which more than
doubles a sampling op.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import import_module
from time import perf_counter
from typing import Callable, Iterator, Optional

#: EvalStats counters read around every stratum evaluation, and the
#: per-layer count each one feeds.
STAT_COUNTS = (
    ("probes", "datalog.executor.probes"),
    ("firings", "datalog.executor.firings"),
    ("pipelines_compiled", "datalog.executor.pipelines_compiled"),
    ("pipelines_reused", "datalog.executor.pipelines_reused"),
    ("plans_built", "datalog.planner.plans_built"),
    ("plans_reused", "datalog.planner.plans_reused"),
    ("iterations", "datalog.seminaive.iterations"),
    ("total_derived", "datalog.seminaive.derived"),
)


class OpTrace:
    """Everything recorded for one traced op (thread-confined while open)."""

    __slots__ = ("op_id", "wall_s", "self_s", "incl_s", "calls", "counts",
                 "frames", "spans", "last_store", "_next_span")

    def __init__(self, op_id, keep_spans: bool) -> None:
        self.op_id = op_id
        self.wall_s = 0.0
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.frames: list[list] = []
        self.spans: Optional[list[tuple]] = [] if keep_spans else None
        self.last_store = None
        self._next_span = 0

    def span_id(self) -> int:
        self._next_span += 1
        return self._next_span

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def close(self, layer: str, target: Optional[str], frame: list,
              end: float) -> None:
        """Account a finished span: self time, inclusive time, call."""
        duration = end - frame[1]
        self.self_s[layer] = self.self_s.get(layer, 0.0) \
            + duration - frame[2]
        self.incl_s[layer] = self.incl_s.get(layer, 0.0) + duration
        if target is not None:
            self.calls[target] = self.calls.get(target, 0) + 1
        parent = self.frames[-1] if self.frames else None
        if parent is not None:
            parent[2] += duration
        if self.spans is not None:
            self.spans.append((frame[3], parent[3] if parent else 0,
                               layer, frame[1], end))

    def as_dict(self) -> dict:
        """The JSON-ready summary (raw spans excluded)."""
        return {"op": self.op_id, "wall_s": self.wall_s,
                "self_s": self.self_s, "incl_s": self.incl_s,
                "calls": self.calls, "counts": self.counts}

    def span_rows(self) -> list[dict]:
        """Raw spans as JSONL-ready rows (``parent`` 0 marks the root)."""
        return [{"op": self.op_id, "span": sid, "parent": parent,
                 "name": name, "start": start, "end": end}
                for sid, parent, name, start, end in self.spans or ()]


def _stats_before(args: tuple) -> tuple:
    stats = args[3]
    return tuple(getattr(stats, field) for field, _ in STAT_COUNTS)


def _stats_after(op: OpTrace, args: tuple, result, before: tuple) -> None:
    stats = args[3]
    for (field, name), old in zip(STAT_COUNTS, before):
        op.count(name, getattr(stats, field) - old)
    # A new RelationStore is a new enumeration branch (one() and run()
    # evaluate every stratum in one store).
    store = args[2]
    if store is not op.last_store:
        op.last_store = store
        op.count("core.engine.branches", 1)


def _rows_out(name: str) -> Callable:
    def after(op: OpTrace, args: tuple, result, before) -> None:
        op.count(name, len(result))
    return after


def _id_rows(op: OpTrace, args: tuple, result, before) -> None:
    op.count("core.idrelations.id_tuples", len(result))
    op.count("core.idrelations.base_rows", len(args[0]))


@dataclass(frozen=True)
class Site:
    """One wrapped entry point.

    Attributes:
        target: ``module:attr`` or ``module:Class.attr`` — the name the
            caller resolves at call time.
        layer: The layer its time is charged to.
        workloads: Workloads on which a traced op must call it.
        before/after: Optional count hooks run outside the span.
        materialize: The callable returns an iterator; drain it inside
            the span so its work is charged to this layer.
    """

    target: str
    layer: str
    workloads: tuple[str, ...]
    before: Optional[Callable] = None
    after: Optional[Callable] = None
    materialize: bool = False


ENGINE = ("sample", "enumerate", "serve")
ALL = ("sample", "recursive", "enumerate", "serve")

#: Every wrapped engine entry point.  The server's request handler is the
#: root of a server-side op and is installed by the server launcher.
SITES = (
    Site("repro.core.engine:IdlogEngine.run", "core.engine",
         ("sample", "serve")),
    Site("repro.core.engine:IdlogEngine.answer_relations", "core.engine",
         ("enumerate",)),
    Site("repro.datalog.engine:DatalogEngine.run", "core.engine",
         ("recursive",)),
    Site("repro.core.assignment:random_id_function",
         "core.assignment.id_function", ("sample", "serve")),
    Site("repro.core.assignment:canonical_id_function",
         "core.assignment.id_function", ("serve",)),
    Site("repro.core.engine:make_id_relation",
         "core.idrelations.make_id_relation", ENGINE, after=_id_rows),
    Site("repro.core.engine:enumerate_id_functions",
         "core.idrelations.enumerate", ("enumerate",), materialize=True),
    Site("repro.core.program:IdlogProgram.compile", "core.program.compile",
         ("enumerate", "serve")),
    Site("repro.server.service:parse_program", "datalog.parser.parse",
         ("serve",)),
    Site("repro.datalog.planner:ClausePlanner.plan", "datalog.planner.plan",
         ALL),
    Site("repro.datalog.executor:BatchExecutor.execute_coded",
         "datalog.executor", ALL,
         after=_rows_out("datalog.executor.rows_out")),
    Site("repro.core.engine:evaluate_stratum", "datalog.seminaive", ENGINE,
         before=_stats_before, after=_stats_after),
    Site("repro.datalog.seminaive:evaluate_stratum", "datalog.seminaive",
         ("recursive",), before=_stats_before, after=_stats_after),
    Site("repro.datalog.database:Relation.frozen", "datalog.database.decode",
         ALL, after=_rows_out("datalog.database.decode_rows")),
    Site("repro.datalog.database:Relation.copy", "datalog.database.copy",
         ("enumerate",)),
)


def total_calls(ops: list[dict]) -> dict[str, int]:
    """Calls per site target, summed over traced ops."""
    totals: dict[str, int] = {}
    for op in ops:
        for target, calls in op["calls"].items():
            totals[target] = totals.get(target, 0) + calls
    return totals


def resolve(target: str) -> tuple[object, str]:
    """The ``(owner, attribute)`` a ``module:[Class.]attr`` target names."""
    module_name, _, path = target.partition(":")
    owner: object = import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


class SpanRecorder:
    """Collects spans of traced ops; spans stay in memory until exported.

    Args:
        keep_spans: Raw spans are kept for this many ops (the first ones
            traced); every op keeps its per-layer totals regardless, so
            memory stays bounded on long runs.
    """

    def __init__(self, keep_spans: int = 20) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._keep_spans = keep_spans
        self.ops: list[OpTrace] = []

    # -- ops --------------------------------------------------------------

    @contextmanager
    def op(self, op_id, root: str = "op") -> Iterator[OpTrace]:
        """Trace one op on the calling thread; ``root`` names its span."""
        with self._lock:
            keep = len(self.ops) < self._keep_spans
        trace = OpTrace(op_id, keep)
        frame = [root, perf_counter(), 0.0, trace.span_id()]
        trace.frames.append(frame)
        self._local.op = trace
        try:
            yield trace
        finally:
            end = perf_counter()
            self._local.op = None
            trace.frames.pop()
            trace.wall_s = end - frame[1]
            trace.close(root, None, frame, end)
            with self._lock:
                self.ops.append(trace)

    # -- wrappers ---------------------------------------------------------

    def wrap(self, site: Site, fn: Callable) -> Callable:
        """``fn`` with a span around every call made inside a traced op."""
        local = self._local
        layer, target = site.layer, site.target
        before, after, materialize = site.before, site.after, \
            site.materialize

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace = getattr(local, "op", None)
            if trace is None:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            frames = trace.frames
            frame = [layer, perf_counter(), 0.0, trace.span_id()]
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                end = perf_counter()
                frames.pop()
                trace.close(layer, target, frame, end)
            if after is not None:
                after(trace, args, result, token)
            return iter(result) if materialize else result

        return wrapper

    @contextmanager
    def installed(self, sites=SITES) -> Iterator[None]:
        """Patch every site for the duration of the block."""
        patches = []
        try:
            for site in sites:
                owner, attr = resolve(site.target)
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self.wrap(site, original.__func__))
                else:
                    wrapped = self.wrap(site, original)
                setattr(owner, attr, wrapped)
                patches.append((owner, attr, original))
            yield
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def span_rows(self) -> list[dict]:
        """Raw spans of the ops that kept them, in op order."""
        return [row for trace in self.ops for row in trace.span_rows()]
