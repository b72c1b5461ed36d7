"""Aggregated metrics: registry, tracer adapter, and exporters.

:mod:`repro.datalog.trace` (PR 3) answered "why was *this* evaluation
slow?" with span events and EXPLAIN ANALYZE tables.  This module answers
the long-running-process question — "what has the engine been doing since
it started?" — with **aggregated, labeled, scrape-friendly metrics**, the
instrumentation style LDL++ credits for much of its usability as a
system.

Three layers:

* :class:`MetricsRegistry` — a thread-safe home for labeled
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` families, with
  two exporters: :meth:`MetricsRegistry.to_prometheus` (the text
  exposition format Prometheus scrapes) and
  :meth:`MetricsRegistry.snapshot` (a JSON-ready dict);
  :meth:`MetricsRegistry.render` picks one for a metrics file.
* :class:`MetricsTracer` — an adapter folding the *existing* PR-3 span
  events (clause firings, probes, delta rounds, plan builds, pipeline
  compilations, ID materializations, incremental ops, top-down queries)
  into a registry.  It adds **zero new instrumentation points**: the hot
  path still guards on ``tracer is not None`` exactly as before, and the
  engines never learn that metrics exist.  The counter values are exact
  by construction — ``clause_fire`` events carry *deltas* of the
  :class:`~repro.datalog.seminaive.EvalStats` counters, so their sums
  reproduce the run's ``probes`` / ``firings`` / ``total_derived``
  totals bit-for-bit.
* :class:`ProgressTracer` — a human-facing heartbeat that renders
  stratum/round progress lines to stderr while a long evaluation runs
  (``repro-idlog run --progress``).

Histograms use **fixed log-scale buckets** (:func:`log_buckets`): wall
times span six orders of magnitude between a cache-hit clause execution
and a full transitive closure, so linear buckets would waste all their
resolution at one end.
"""

from __future__ import annotations

import json
import sys
import threading
from time import perf_counter
from typing import Optional, Sequence, TextIO

from .trace import (EV_CLAUSE_FIRE, EV_EVAL_END, EV_EVAL_START,
                    EV_ID_CHOICE, EV_ID_MATERIALIZED, EV_INCREMENTAL,
                    EV_PIPELINE_COMPILED, EV_PLAN_BUILT, EV_PLAN_DRIFT,
                    EV_ROUND, EV_STRATUM_END, EV_STRATUM_START,
                    EV_TOPDOWN_QUERY, MISESTIMATE_THRESHOLD,
                    SCHEMA_VERSION, q_error, worst_q_error)

INF = float("inf")


def log_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` geometric bucket upper bounds from ``start`` by ``factor``.

    >>> log_buckets(1, 10, 4)
    (1.0, 10.0, 100.0, 1000.0)
    """
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("log_buckets needs start > 0, factor > 1, "
                         "count >= 1")
    # Round to 9 significant digits so repeated multiplication does not
    # leak float noise into the exposition (1e-05, not 9.9999...e-06).
    return tuple(float(f"{start * factor ** i:.9g}") for i in range(count))


#: Default histogram buckets for wall times in seconds: 1µs to 10s by
#: decades.  Clause executions land at the low end, whole evaluations at
#: the high end.
TIME_BUCKETS = log_buckets(1e-6, 10.0, 8)

#: Default histogram buckets for tuple counts (delta sizes, batch sizes):
#: powers of four from 1 to 16384.
COUNT_BUCKETS = log_buckets(1.0, 4.0, 8)

#: Histogram buckets for q-errors (estimate-vs-actual factors): powers of
#: two from 1 to 2048.  A perfect estimate lands in the first bucket; the
#: misestimate threshold (4x) sits two buckets up.
Q_ERROR_BUCKETS = log_buckets(1.0, 2.0, 12)


def _head_predicate(clause_text: str) -> str:
    """The head predicate of a formatted clause (metric label)."""
    head = clause_text.split(":-", 1)[0]
    return head.split("(", 1)[0].strip() or "?"


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name) \
            or name[0].isdigit():
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == INF:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _labels_key(labelnames: tuple[str, ...],
                labels: dict[str, object]) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {labelnames}, got {tuple(sorted(labels))}")
    return tuple(str(labels[name]) for name in labelnames)


class Counter:
    """A monotonically increasing value (one labeled child of a family)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (one labeled child of a family)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Observations bucketed into fixed upper bounds (+Inf implicit).

    Bucket counts are stored per-bucket and *cumulated at export time*
    (the Prometheus convention), so :meth:`observe` is one bisect plus
    two adds.
    """

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock,
                 buckets: Sequence[float]) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be distinct")
        self._lock = lock
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        from bisect import bisect_left
        slot = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[slot] += 1
            self._sum += value
            self._count += 1

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending at +Inf."""
        out = []
        total = 0
        for bound, n in zip(self.buckets + (INF,), self._counts):
            total += n
            out.append((bound, total))
        return out


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric with a fixed label schema and per-labelset children.

    Obtained from :meth:`MetricsRegistry.counter` /
    :meth:`~MetricsRegistry.gauge` / :meth:`~MetricsRegistry.histogram`;
    never constructed directly.
    """

    def __init__(self, name: str, kind: str, help_text: str,
                 labelnames: tuple[str, ...], lock: threading.Lock,
                 buckets: Optional[tuple[float, ...]] = None) -> None:
        self.name = _check_name(name)
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self._buckets = buckets
        self._lock = lock
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **labels):
        """The child for one label-value combination (created on first use)."""
        key = _labels_key(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    if self.kind == "histogram":
                        child = Histogram(self._lock, self._buckets)
                    else:
                        child = _METRIC_TYPES[self.kind](self._lock)
                    self._children[key] = child
        return child

    def unlabeled(self):
        """The single child of a label-less family."""
        if self.labelnames:
            raise ValueError(
                f"metric {self.name} has labels {self.labelnames}; "
                "use .labels(...)")
        return self.labels()

    # Label-less families proxy the child API so callers can write
    # ``registry.counter("x").inc()`` without an intermediate call.
    def inc(self, amount: float = 1.0) -> None:
        self.unlabeled().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.unlabeled().dec(amount)

    def set(self, value: float) -> None:
        self.unlabeled().set(value)

    def observe(self, value: float) -> None:
        self.unlabeled().observe(value)

    @property
    def value(self) -> float:
        return self.unlabeled().value

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        """``(label_values, child)`` pairs sorted by label values."""
        return sorted(self._children.items())

    def cardinality(self) -> int:
        """Number of labeled children (the series count this family
        would export)."""
        return len(self._children)


class MetricsRegistry:
    """A thread-safe collection of metric families with two exporters.

    Registration is idempotent: asking for an existing name with the same
    type and label schema returns the existing family; a conflicting
    re-registration raises ``ValueError``.

    >>> registry = MetricsRegistry()
    >>> registry.counter("queries_total", "Queries served",
    ...                  labels=("plan",)).labels(plan="cost").inc(3)
    >>> registry.counter("queries_total", labels=("plan",)) \\
    ...     .labels(plan="cost").value
    3.0
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}

    def _register(self, name: str, kind: str, help_text: str,
                  labels: Sequence[str],
                  buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        labelnames = tuple(labels)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind \
                        or existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name} already registered as "
                        f"{existing.kind}{existing.labelnames}, cannot "
                        f"re-register as {kind}{labelnames}")
                return existing
            family = MetricFamily(
                name, kind, help_text, labelnames, self._lock,
                buckets=tuple(buckets) if buckets is not None else None)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                labels: Sequence[str] = ()) -> MetricFamily:
        """Register (or look up) a counter family."""
        return self._register(name, "counter", help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: Sequence[str] = ()) -> MetricFamily:
        """Register (or look up) a gauge family."""
        return self._register(name, "gauge", help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = TIME_BUCKETS) -> MetricFamily:
        """Register (or look up) a histogram family."""
        # Validate bounds eagerly — children are created lazily, and a bad
        # bucket list should fail at registration, not at first observe.
        bounds = Histogram(self._lock, buckets).buckets
        return self._register(name, "histogram", help_text, labels,
                              buckets=bounds)

    def families(self) -> list[MetricFamily]:
        """All families, sorted by name."""
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def total_series(self) -> int:
        """Total labeled children across all families (exposition size)."""
        return sum(f.cardinality() for f in self.families())

    # -- exporters ----------------------------------------------------------

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4).

        Deterministic: families sorted by name, children by label values —
        goldens in the test suite diff this output directly.
        """
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for values, child in family.children():
                labels = ",".join(
                    f'{n}="{_escape_label(v)}"'
                    for n, v in zip(family.labelnames, values))
                if family.kind == "histogram":
                    for bound, count in child.cumulative():
                        le = f'le="{_format_value(bound)}"'
                        inner = f"{labels},{le}" if labels else le
                        lines.append(
                            f"{family.name}_bucket{{{inner}}} {count}")
                    suffix = f"{{{labels}}}" if labels else ""
                    lines.append(f"{family.name}_sum{suffix} "
                                 f"{_format_value(child.sum)}")
                    lines.append(f"{family.name}_count{suffix} "
                                 f"{child.count}")
                else:
                    suffix = f"{{{labels}}}" if labels else ""
                    lines.append(f"{family.name}{suffix} "
                                 f"{_format_value(child.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """A JSON-ready snapshot of every family and child.

        Carries the same ``schema`` version as the JSONL traces and
        profiles so downstream consumers can detect format drift.
        """
        families = []
        for family in self.families():
            entry: dict = {"name": family.name, "type": family.kind,
                           "help": family.help,
                           "labelnames": list(family.labelnames),
                           "series": []}
            for values, child in family.children():
                series: dict = {
                    "labels": dict(zip(family.labelnames, values))}
                if family.kind == "histogram":
                    series["sum"] = child.sum
                    series["count"] = child.count
                    series["buckets"] = [
                        {"le": "+Inf" if bound == INF else bound,
                         "count": count}
                        for bound, count in child.cumulative()]
                else:
                    series["value"] = child.value
                entry["series"].append(series)
            families.append(entry)
        return {"schema": SCHEMA_VERSION, "metrics": families}

    def render(self, fmt: str = "prom") -> str:
        """The metrics-file body: :meth:`to_prometheus` for ``"prom"``,
        the :meth:`snapshot` as indented JSON for ``"json"``."""
        if fmt == "json":
            return json.dumps(self.snapshot(), indent=2) + "\n"
        return self.to_prometheus()


# -- the trace-event adapter -------------------------------------------------

class MetricsTracer:
    """Fold the PR-3 span-event stream into a :class:`MetricsRegistry`.

    Install it like any other tracer (``tracer=`` knob or
    :func:`~repro.datalog.trace.use_tracer`); every evaluation it observes
    accumulates into :attr:`registry`.  Counter totals are exact mirrors
    of :class:`~repro.datalog.seminaive.EvalStats`: ``clause_fire`` events
    carry per-execution counter deltas, so

    * ``idlog_probes_total``  == ``stats.probes``
    * ``idlog_firings_total`` == ``stats.firings``
    * ``idlog_derived_tuples_total`` == ``stats.total_derived``

    summed over the evaluations the tracer saw (the acceptance invariant
    ``tests/datalog/test_metrics.py`` asserts per plan mode).

    Args:
        registry: Fold into an existing registry (shared across tracers /
            exported by a server thread); a fresh one by default.
        namespace: Metric name prefix (default ``idlog``).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 namespace: str = "idlog") -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        r, ns = self.registry, namespace
        self._evals = r.counter(
            f"{ns}_evaluations_total",
            "Evaluations completed", labels=("plan",))
        self._eval_seconds = r.histogram(
            f"{ns}_evaluation_seconds", "Wall time per evaluation")
        self._probes = r.counter(
            f"{ns}_probes_total",
            "Tuples scanned/probed while joining (EvalStats.probes)")
        self._firings = r.counter(
            f"{ns}_firings_total",
            "Head tuples produced, duplicates included "
            "(EvalStats.firings)")
        self._derived = r.counter(
            f"{ns}_derived_tuples_total",
            "Novel tuples added to relations (EvalStats.total_derived)")
        self._clause_execs = r.counter(
            f"{ns}_clause_executions_total",
            "Clause executions (one per fixpoint round per delta variant)",
            labels=("stratum",))
        self._clause_seconds = r.histogram(
            f"{ns}_clause_seconds", "Wall time per clause execution")
        self._rounds = r.counter(
            f"{ns}_fixpoint_rounds_total", "Semi-naive delta rounds")
        self._delta_tuples = r.histogram(
            f"{ns}_delta_tuples", "Delta sizes entering each round",
            buckets=COUNT_BUCKETS)
        self._strata = r.counter(
            f"{ns}_strata_total", "Strata evaluated")
        self._plans = r.counter(
            f"{ns}_plans_built_total", "Clause plans compiled or re-costed",
            labels=("mode",))
        self._plan_q_error = r.histogram(
            f"{ns}_plan_q_error",
            "Per-clause-execution q-error of the planner's probe "
            "estimate (max(est/actual, actual/est), +1 smoothed)",
            buckets=Q_ERROR_BUCKETS)
        self._plan_misestimates = r.counter(
            f"{ns}_plan_misestimates_total",
            "Clause executions whose q-error reached the misestimate "
            f"threshold ({MISESTIMATE_THRESHOLD:g}x)",
            labels=("predicate",))
        self._plan_drift = r.counter(
            f"{ns}_plan_drift_total",
            "Re-costings that flipped a cached clause's literal order "
            "mid-fixpoint", labels=("mode",))
        self._pipelines = r.counter(
            f"{ns}_pipelines_compiled_total",
            "Batch pipelines compiled (cache misses)")
        self._id_mats = r.counter(
            f"{ns}_id_materializations_total",
            "ID-relation materializations", labels=("pred",))
        self._id_tuples = r.counter(
            f"{ns}_id_tuples_total", "Tuples materialized into ID-relations")
        self._id_choices = r.counter(
            f"{ns}_id_choices_total",
            "ID-function block choices recorded or replayed "
            "(one per block per materialization)", labels=("pred",))
        self._cardinality = r.gauge(
            f"{ns}_relation_tuples",
            "Final cardinality per derived relation (latest evaluation)",
            labels=("predicate",))
        self._incremental = r.counter(
            f"{ns}_incremental_ops_total",
            "Incremental maintenance operations", labels=("op", "path"))
        self._topdown = r.counter(
            f"{ns}_topdown_queries_total", "Top-down (QSQ) queries answered")

    def emit(self, kind: str, **fields) -> None:
        if kind == EV_CLAUSE_FIRE:
            self._clause_execs.labels(
                stratum=fields.get("stratum", 0)).inc()
            self._probes.inc(fields.get("probes", 0))
            self._firings.inc(fields.get("firings", 0))
            self._derived.inc(fields.get("new", 0))
            self._clause_seconds.observe(fields.get("wall_s", 0.0))
            stages = fields.get("stages")
            if stages:
                est_probes = sum(s.get("est_probes", 0.0) for s in stages)
                err = worst_q_error(
                    q_error(est_probes, fields.get("probes", 0)),
                    (q_error(stage.get("est_rows", 0.0),
                             stage.get("actual_rows", 0))
                     for stage in stages))
                self._plan_q_error.observe(err)
                if err >= MISESTIMATE_THRESHOLD:
                    self._plan_misestimates.labels(
                        predicate=_head_predicate(
                            fields.get("clause", "?"))).inc()
        elif kind == EV_PLAN_DRIFT:
            self._plan_drift.labels(
                mode=fields.get("mode", "cost")).inc()
        elif kind == EV_ROUND:
            self._rounds.inc()
            for size in fields.get("deltas", {}).values():
                self._delta_tuples.observe(size)
        elif kind == EV_PLAN_BUILT:
            self._plans.labels(mode=fields.get("mode", "greedy")).inc()
        elif kind == EV_PIPELINE_COMPILED:
            self._pipelines.inc()
        elif kind == EV_ID_MATERIALIZED:
            self._id_mats.labels(pred=fields.get("pred", "?")).inc()
            self._id_tuples.inc(fields.get("id_tuples", 0))
        elif kind == EV_ID_CHOICE:
            self._id_choices.labels(pred=fields.get("pred", "?")).inc()
        elif kind == EV_STRATUM_END:
            self._strata.inc()
            for pred, size in fields.get("cardinalities", {}).items():
                self._cardinality.labels(predicate=pred).set(size)
        elif kind == EV_EVAL_END:
            self._eval_seconds.observe(fields.get("wall_s", 0.0))
        elif kind == EV_EVAL_START:
            self._evals.labels(plan=fields.get("plan", "?")).inc()
        elif kind == EV_INCREMENTAL:
            self._incremental.labels(op=fields.get("op", "?"),
                                     path=fields.get("path") or "-").inc()
        elif kind == EV_TOPDOWN_QUERY:
            self._topdown.inc()
        # stratum_start / topdown_round carry no aggregates.
        elif kind == EV_STRATUM_START:
            pass


# -- the stderr heartbeat ----------------------------------------------------

class ProgressTracer:
    """Render stratum/round heartbeats as lines on a stream.

    A human-facing progress display for long evaluations
    (``repro-idlog run --progress`` writes to stderr, keeping stdout
    clean for results).  ``min_interval_s`` throttles the chatty
    per-round lines — stratum and evaluation boundaries always print.
    """

    def __init__(self, stream: Optional[TextIO] = None,
                 min_interval_s: float = 0.0) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._min_interval = min_interval_s
        self._last_round_at = 0.0
        self.lines_written = 0

    def _write(self, text: str) -> None:
        self._stream.write(text + "\n")
        self._stream.flush()
        self.lines_written += 1

    def emit(self, kind: str, **fields) -> None:
        if kind == EV_EVAL_START:
            bits = [f"{name}={fields[name]}"
                    for name in ("program", "plan", "strata")
                    if name in fields]
            self._write(f"[progress] eval start  {' '.join(bits)}")
        elif kind == EV_STRATUM_START:
            heads = ", ".join(fields.get("heads", ())) or "(no heads)"
            self._write(f"[progress] stratum {fields.get('stratum', 0)}: "
                        f"defining {heads}")
        elif kind == EV_ROUND:
            now = perf_counter()
            if now - self._last_round_at < self._min_interval:
                return
            self._last_round_at = now
            deltas = fields.get("deltas", {})
            rendered = " ".join(f"Δ{p}={n}"
                                for p, n in sorted(deltas.items()))
            self._write(f"[progress]   round {fields.get('round', '?')}: "
                        f"{rendered or 'no deltas'}")
        elif kind == EV_STRATUM_END:
            cards = fields.get("cardinalities", {})
            sizes = ", ".join(f"{p}={n}" for p, n in sorted(cards.items()))
            self._write(
                f"[progress] stratum {fields.get('stratum', 0)} done: "
                f"{fields.get('rounds', '?')} round(s), "
                f"{fields.get('wall_s', 0.0) * 1000:.1f} ms"
                + (f", sizes: {sizes}" if sizes else ""))
        elif kind == EV_EVAL_END:
            self._write(
                f"[progress] eval done: "
                f"{fields.get('wall_s', 0.0) * 1000:.1f} ms, "
                f"derived={fields.get('derived', '?')} "
                f"probes={fields.get('probes', '?')}")
