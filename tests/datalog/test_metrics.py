"""Tests for the metrics registry, exporters, and the tracer adapter.

The load-bearing property is the *differential* one: evaluating with a
:class:`MetricsTracer` installed must not change any relation, and the
registry's counter totals must reproduce the run's
:class:`~repro.datalog.seminaive.EvalStats` exactly — under every
engine x plan mode.
"""

import io
import json

import pytest

from repro.core import IdlogEngine
from repro.datalog import (
    COUNT_BUCKETS, TIME_BUCKETS, Database, MetricsRegistry, MetricsTracer,
    ProgressTracer, evaluate, log_buckets, parse_program, use_tracer)

STRATIFIED = """
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
    lone(X) :- node(X), not path(X, X).
"""

SAMPLING = """
    select_emp(Name) :- emp[1](Name, Dept, N), N < 1.
"""


def graph_db():
    return Database.from_facts({
        "edge": [("a", "b"), ("b", "c"), ("c", "a"), ("d", "d")],
        "node": [("a",), ("b",), ("c",), ("d",), ("e",)],
    })


class TestLogBuckets:
    def test_geometric_series(self):
        assert log_buckets(1, 10, 4) == (1.0, 10.0, 100.0, 1000.0)
        assert log_buckets(0.5, 2, 3) == (0.5, 1.0, 2.0)

    def test_float_noise_is_rounded_away(self):
        # Naive repeated multiplication yields 9.999999999999999e-06.
        assert 1e-05 in log_buckets(1e-6, 10.0, 8)

    def test_defaults_shape(self):
        assert len(TIME_BUCKETS) == 8
        assert TIME_BUCKETS[0] == 1e-6 and TIME_BUCKETS[-1] == 10.0
        assert COUNT_BUCKETS == (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0,
                                 4096.0, 16384.0)

    @pytest.mark.parametrize("args", [(0, 10, 4), (1, 1, 4), (1, 10, 0)])
    def test_rejects_degenerate_series(self, args):
        with pytest.raises(ValueError):
            log_buckets(*args)


class TestHistogramBuckets:
    def make(self, bounds=(1.0, 10.0, 100.0)):
        return MetricsRegistry().histogram(
            "h", buckets=bounds).unlabeled()

    def test_bounds_are_inclusive_upper(self):
        h = self.make()
        h.observe(1.0)    # exactly on a bound -> that bucket (le is <=)
        h.observe(0.5)
        h.observe(10.0)
        h.observe(10.1)   # just above -> next bucket
        h.observe(1000.0)  # above the top bound -> +Inf only
        assert h.cumulative() == [
            (1.0, 2), (10.0, 3), (100.0, 4), (float("inf"), 5)]
        assert h.count == 5
        assert h.sum == pytest.approx(1021.6)

    def test_cumulative_is_monotone_and_ends_at_count(self):
        h = self.make()
        for value in (0.1, 2, 3, 50, 5000, 0.2):
            h.observe(value)
        counts = [count for _, count in h.cumulative()]
        assert counts == sorted(counts)
        assert counts[-1] == h.count == 6

    def test_rejects_bad_bounds(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("empty", buckets=())
        with pytest.raises(ValueError):
            registry.histogram("dupes", buckets=(1.0, 1.0))


class TestRegistry:
    def test_counter_is_monotone(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12.0

    def test_label_cardinality(self):
        registry = MetricsRegistry()
        family = registry.counter("ops_total", labels=("op", "path"))
        family.labels(op="add", path="fast").inc()
        family.labels(op="add", path="slow").inc()
        family.labels(op="del", path="fast").inc()
        family.labels(op="add", path="fast").inc()  # existing child
        assert family.cardinality() == 3
        assert registry.total_series() == 3
        assert [values for values, _ in family.children()] == [
            ("add", "fast"), ("add", "slow"), ("del", "fast")]
        assert family.labels(op="add", path="fast").value == 2.0

    def test_label_schema_is_enforced(self):
        family = MetricsRegistry().counter("c", labels=("engine",))
        with pytest.raises(ValueError):
            family.labels(wrong="x")
        with pytest.raises(ValueError):
            family.labels()  # missing the label
        with pytest.raises(ValueError):
            family.unlabeled()

    def test_registration_idempotent_but_conflicts_rejected(self):
        registry = MetricsRegistry()
        first = registry.counter("c", "help", labels=("a",))
        assert registry.counter("c", labels=("a",)) is first
        with pytest.raises(ValueError):
            registry.gauge("c", labels=("a",))  # type conflict
        with pytest.raises(ValueError):
            registry.counter("c", labels=("b",))  # label conflict

    def test_invalid_metric_names_rejected(self):
        registry = MetricsRegistry()
        for bad in ("", "1abc", "has space", "has-dash"):
            with pytest.raises(ValueError):
                registry.counter(bad)


class TestPrometheusExposition:
    def test_golden(self):
        registry = MetricsRegistry()
        registry.counter("app_requests_total", "Requests served",
                         labels=("verb",)).labels(verb="get").inc(3)
        registry.counter("app_requests_total",
                         labels=("verb",)).labels(verb="put").inc()
        registry.gauge("app_queue_depth", "Jobs waiting").set(7)
        hist = registry.histogram("app_latency_seconds", "Latency",
                                  buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(30.0)
        assert registry.to_prometheus() == """\
# HELP app_latency_seconds Latency
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{le="0.1"} 1
app_latency_seconds_bucket{le="1"} 2
app_latency_seconds_bucket{le="+Inf"} 3
app_latency_seconds_sum 30.55
app_latency_seconds_count 3
# HELP app_queue_depth Jobs waiting
# TYPE app_queue_depth gauge
app_queue_depth 7
# HELP app_requests_total Requests served
# TYPE app_requests_total counter
app_requests_total{verb="get"} 3
app_requests_total{verb="put"} 1
"""

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", labels=("q",)).labels(q='say "hi"\n').inc()
        assert 'q="say \\"hi\\"\\n"' in registry.to_prometheus()

    def test_empty_registry_exports_empty(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_snapshot_round_trips_and_carries_schema(self):
        registry = MetricsRegistry()
        registry.counter("c", labels=("k",)).labels(k="v").inc(2)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["schema"] == 1
        by_name = {m["name"]: m for m in snapshot["metrics"]}
        assert by_name["c"]["series"][0] == {
            "labels": {"k": "v"}, "value": 2.0}
        assert by_name["h"]["series"][0]["buckets"] == [
            {"le": 1.0, "count": 1}, {"le": "+Inf", "count": 1}]


class TestMetricsTracer:
    @pytest.mark.parametrize("plan", ["greedy", "cost"],
                             ids=["batch-greedy", "batch-cost"])
    def test_differential_and_exact_counters(self, plan):
        program = parse_program(STRATIFIED)
        plain, _ = evaluate(program, graph_db(), plan=plan)

        tracer = MetricsTracer()
        traced, stats = evaluate(program, graph_db(), plan=plan,
                                 tracer=tracer)
        # Metrics-on must not perturb the evaluation...
        assert traced.snapshot() == plain.snapshot()
        # ...and the folded counters mirror EvalStats bit-for-bit.
        registry = tracer.registry
        assert registry.counter("idlog_probes_total").value == stats.probes
        assert registry.counter("idlog_firings_total").value \
            == stats.firings
        assert registry.counter("idlog_derived_tuples_total").value \
            == stats.total_derived
        # round events cover only delta rounds: round 0 of each stratum
        # is part of stats.iterations but emits no round span.
        assert registry.counter("idlog_fixpoint_rounds_total").value \
            + registry.counter("idlog_strata_total").value \
            == stats.iterations
        assert registry.counter("idlog_pipelines_compiled_total").value \
            == stats.pipelines_compiled

    def test_accumulates_across_evaluations(self):
        program = parse_program(STRATIFIED)
        tracer = MetricsTracer()
        totals = 0
        for _ in range(3):
            _, stats = evaluate(program, graph_db(), tracer=tracer)
            totals += stats.probes
        registry = tracer.registry
        assert registry.counter("idlog_probes_total").value == totals
        evals = registry.counter("idlog_evaluations_total",
                                 labels=("plan",))
        assert evals.labels(plan="greedy").value == 3.0

    def test_labels_and_gauges_from_spans(self):
        tracer = MetricsTracer()
        evaluate(parse_program(STRATIFIED), graph_db(), tracer=tracer)
        registry = tracer.registry
        execs = registry.counter("idlog_clause_executions_total",
                                 labels=("stratum",))
        assert execs.cardinality() == 2  # two strata fired clauses
        cardinality = registry.gauge("idlog_relation_tuples",
                                     labels=("predicate",))
        assert cardinality.labels(predicate="path").value == 10.0
        assert cardinality.labels(predicate="lone").value == 1.0
        assert registry.counter("idlog_strata_total").value == 2.0

    def test_id_materialization_counters(self):
        db = Database.from_facts({"emp": [
            ("ann", "toys"), ("bob", "toys"), ("cal", "it")]})
        tracer = MetricsTracer()
        with use_tracer(tracer):
            result = IdlogEngine(SAMPLING).run(db)
        registry = tracer.registry
        assert registry.counter("idlog_id_tuples_total").value \
            == result.stats.id_tuples > 0
        mats = registry.counter("idlog_id_materializations_total",
                                labels=("pred",))
        assert mats.labels(pred="emp").value == 1.0

    def test_id_choice_counter_counts_blocks(self):
        db = Database.from_facts({"emp": [
            ("ann", "toys"), ("bob", "toys"), ("cal", "it")]})
        tracer = MetricsTracer()
        with use_tracer(tracer):
            IdlogEngine(SAMPLING).run(db)
        choices = tracer.registry.counter("idlog_id_choices_total",
                                          labels=("pred",))
        # emp[1] groups on Name: one choice per singleton block.
        assert choices.labels(pred="emp").value == 3.0

    def test_id_choice_counter_increments_on_replay(self):
        from repro.core.choicelog import ChoiceLog
        db = Database.from_facts({"emp": [
            ("ann", "toys"), ("bob", "toys"), ("cal", "it")]})
        engine = IdlogEngine(SAMPLING)
        log = ChoiceLog()
        engine.one(db, seed=1, record=log)
        tracer = MetricsTracer()
        with use_tracer(tracer):
            engine.replay(db, log)
        choices = tracer.registry.counter("idlog_id_choices_total",
                                          labels=("pred",))
        assert choices.labels(pred="emp").value == 3.0

    def test_shared_registry_and_namespace(self):
        registry = MetricsRegistry()
        a = MetricsTracer(registry=registry)
        b = MetricsTracer(registry=registry)
        assert a.registry is b.registry
        evaluate(parse_program(STRATIFIED), graph_db(), tracer=a)
        evaluate(parse_program(STRATIFIED), graph_db(), tracer=b)
        assert registry.counter("idlog_evaluations_total",
                                labels=("plan",)) \
            .labels(plan="greedy").value == 2.0
        custom = MetricsTracer(namespace="custom")
        evaluate(parse_program(STRATIFIED), graph_db(), tracer=custom)
        assert custom.registry.counter("custom_probes_total").value > 0

    def test_render_picks_the_exporter(self):
        tracer = MetricsTracer()
        evaluate(parse_program(STRATIFIED), graph_db(), tracer=tracer)
        registry = tracer.registry
        assert registry.render() == registry.render("prom") \
            == registry.to_prometheus()
        assert registry.render("json") \
            == json.dumps(registry.snapshot(), indent=2) + "\n"


class TestProgressTracer:
    def test_heartbeat_lines(self):
        stream = io.StringIO()
        tracer = ProgressTracer(stream=stream)
        evaluate(parse_program(STRATIFIED), graph_db(), tracer=tracer)
        lines = stream.getvalue().splitlines()
        assert tracer.lines_written == len(lines) > 0
        assert all(line.startswith("[progress]") for line in lines)
        assert lines[0].startswith("[progress] eval start")
        assert lines[-1].startswith("[progress] eval done")
        assert any("stratum 0: defining path" in line for line in lines)
        assert any("Δpath=" in line for line in lines)

    def test_round_throttling(self):
        stream = io.StringIO()
        # An interval this long suppresses every per-round line after the
        # first; boundaries still print.
        tracer = ProgressTracer(stream=stream, min_interval_s=3600.0)
        evaluate(parse_program(STRATIFIED), graph_db(), tracer=tracer)
        text = stream.getvalue()
        assert text.count("[progress]   round") <= 1
        assert "[progress] eval done" in text


class TestPlanQualityMetrics:
    """idlog_plan_q_error / _misestimates_total / _drift_total."""

    def test_batch_run_observes_q_errors(self):
        tracer = MetricsTracer()
        _, stats = evaluate(parse_program(STRATIFIED), graph_db(),
                            tracer=tracer)
        histogram = tracer.registry.histogram(
            "idlog_plan_q_error").unlabeled()
        # One q-error observation per clause execution (every compiled
        # call carries its stage estimates).
        executions = tracer.registry.counter(
            "idlog_clause_executions_total", labels=("stratum",))
        total = sum(child.value
                    for _, child in executions.children())
        assert histogram.count == total > 0
        assert histogram.sum >= histogram.count  # every q-error >= 1

    def test_misestimate_counter_labeled_by_head_predicate(self):
        tracer = MetricsTracer()
        # Deliberate 50x misestimate on a synthetic clause execution.
        tracer.emit("clause_fire", clause="sel(X) :- emp(X, D).",
                    stratum=0, probes=100, firings=99, new=99,
                    stages=[{"literal": "emp(X, D)", "est_rows": 1.0,
                             "actual_rows": 99, "est_probes": 1.0,
                             "actual_probes": 100}])
        family = tracer.registry.counter("idlog_plan_misestimates_total",
                                         labels=("predicate",))
        assert family.labels(predicate="sel").value == 1.0
        assert tracer.registry.histogram(
            "idlog_plan_q_error").unlabeled().count == 1

    def test_accurate_estimates_do_not_count_as_misestimates(self):
        tracer = MetricsTracer()
        tracer.emit("clause_fire", clause="sel(X) :- emp(X, D).",
                    stratum=0, probes=100, firings=99, new=99,
                    stages=[{"literal": "emp(X, D)", "est_rows": 99.0,
                             "actual_rows": 99, "est_probes": 100.0,
                             "actual_probes": 100}])
        family = tracer.registry.counter("idlog_plan_misestimates_total",
                                         labels=("predicate",))
        assert family.cardinality() == 0
        assert tracer.registry.histogram(
            "idlog_plan_q_error").unlabeled().count == 1

    def test_plan_drift_counter_labeled_by_mode(self):
        tracer = MetricsTracer()
        tracer.emit("plan_drift", clause="p(X) :- q(X), r(X).",
                    stratum=0, mode="cost", old_cost=9.0, new_cost=4.0)
        family = tracer.registry.counter("idlog_plan_drift_total",
                                         labels=("mode",))
        assert family.labels(mode="cost").value == 1.0

    def test_families_reach_the_prometheus_exposition(self):
        tracer = MetricsTracer()
        evaluate(parse_program(STRATIFIED), graph_db(), tracer=tracer)
        text = tracer.registry.to_prometheus()
        assert "# TYPE idlog_plan_q_error histogram" in text
        assert 'idlog_plan_q_error_bucket{le="1"}' in text
        assert "# TYPE idlog_plan_misestimates_total counter" in text
        assert "# TYPE idlog_plan_drift_total counter" in text
