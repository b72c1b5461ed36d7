#!/usr/bin/env python
"""Run every benchmark kernel under each plan mode and record the perf
trajectory.

For each ``bench_*.py`` module this runner extracts one representative
kernel, executes it under both plan modes (records keyed
``batch/greedy`` and ``batch/cost``) and records wall time, join
probes, fixpoint iterations and derived-tuple counts (where the kernel
surfaces :class:`~repro.datalog.seminaive.EvalStats`) plus a canonical
digest of the answer.  After timing, one extra untimed
pass per kernel runs under an ambient :class:`TimingTracer`, so the
``batch/greedy`` record also carries a per-clause/per-stratum ``profile``
and — where the batch executor captured per-stage estimates — a
``plan_quality`` block (per-clause q-errors, median/max roll-up; see
``docs/OBSERVABILITY.md``), which ``compare.py`` gates against the
baseline's so planner estimate drift fails CI even when wall time hides
it.  Results are written to ``BENCH_pr10.json`` at the repo root; two
trajectory files are compared for regressions by
``benchmarks/compare.py``.

The report also carries a ``memory`` section — resident/logical
bytes-per-tuple of the 1200-row Zipf workload under the columnar store,
plus the pool interning ratio — which ``compare.py`` gates alongside the
wall-time series (bytes/tuple must not regress more than 10%).  Serving
latency is gated by the end-to-end ``serve`` workload
(``benchmarks/e2e``), not here.

Nondeterministic kernels (seeded ``one()`` sampling) embed their
ID-choice log (see :mod:`repro.core.choicelog`) in the report under
``choice_logs``; ``--replay-from PRIOR.json`` replays those logs so the
candidate reproduces the baseline's ID choices exactly and ``compare.py``
can enforce hard digest equality instead of exempting the kernel.

Usage::

    python benchmarks/run_all.py            # full sizes, best of 3
    python benchmarks/run_all.py --quick    # CI: small sizes, 1 repeat
    python benchmarks/run_all.py --out /tmp/bench.json
    python benchmarks/run_all.py --quick --replay-from BENCH_prev.json
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

#: Plan modes every kernel runs under; records are keyed ``batch/<plan>``.
PLANS = ("greedy", "cost")

#: The plan whose record carries the per-clause profile (the default
#: production configuration).
PROFILED_PLAN = "greedy"


def canon(obj):
    """Canonical JSON-free form of an answer for digesting."""
    if isinstance(obj, (frozenset, set)):
        return sorted((canon(x) for x in obj), key=repr)
    if isinstance(obj, (tuple, list)):
        return [canon(x) for x in obj]
    if isinstance(obj, dict):
        return sorted(((k, canon(v)) for k, v in obj.items()), key=repr)
    return obj


def digest(answer) -> str:
    return hashlib.sha256(repr(canon(answer)).encode()).hexdigest()[:16]


def stats_dict(stats):
    if stats is None:
        return {}
    return {"probes": stats.probes, "iterations": stats.iterations,
            "derived": stats.total_derived, "firings": stats.firings,
            "pipelines_compiled": stats.pipelines_compiled,
            "pipelines_reused": stats.pipelines_reused}


# ---------------------------------------------------------------------------
# Scenario registry: one kernel per bench module.  Each builder returns a
# callable kernel(plan) -> (answer, stats-or-None); kernels whose code
# path never reaches the semi-naive evaluator simply ignore the knob
# (their numbers are flat across modes, which the JSON makes visible).
# ---------------------------------------------------------------------------

def _a1(quick):
    m = importlib.import_module("bench_a1_seminaive")
    db = m.chain(60 if quick else 200)

    def kernel(plan):
        result, stats = m.evaluate(m.TC, db, plan=plan)
        return result.relation("path").frozen(), stats
    return kernel


def _a2(quick):
    m = importlib.import_module("bench_a2_slicing")
    db = m.db(3, 3 if quick else 4)
    from repro.core import IdlogEngine

    def kernel(plan):
        eng = IdlogEngine(m.PROGRAM, plan=plan)
        return eng.answers(db, "pick"), None
    return kernel


def _a3(quick):
    m = importlib.import_module("bench_a3_magic")
    from repro.datalog.engine import DatalogEngine
    db = m.forest(6, 8 if quick else 16, 6 if quick else 8)

    def kernel(plan):
        result = DatalogEngine(m.TC, plan=plan).run(db)
        return result.tuples("path"), result.stats
    return kernel


def _a4(quick):
    m = importlib.import_module("bench_a4_incremental")
    from repro.datalog.incremental import IncrementalEngine
    n = 20 if quick else 40
    inserts = 3 if quick else 8

    def kernel(plan):
        eng = IncrementalEngine(m.TC)
        eng.start(m.chain(n))
        for k in range(inserts):
            eng.add_fact("edge", (f"n{n + k}", f"n{n + k + 1}"))
        return eng.relation("path"), eng.stats
    return kernel


def _a5(quick):
    m = importlib.import_module("bench_a5_topdown")
    from repro.datalog.topdown import TopDownEngine
    db = m.forest(6, 6 if quick else 12, 8)

    def kernel(plan):
        return TopDownEngine(m.TC).query(db, "path(n0, Y)"), None
    return kernel


def _a6(quick):
    importlib.import_module("bench_a6_aggregates")
    from conftest import employees_db
    from repro.aggregates import count_per_group
    db = employees_db(50 if quick else 200, 5)
    agg = count_per_group("emp", 2, group=[2])

    def kernel(plan):
        return frozenset(agg.compute(db)), None
    return kernel


def _a7(quick):
    m = importlib.import_module("bench_a7_counting")
    from repro.datalog.counting import CountingEngine
    db = m.dense_db(4 if quick else 10)

    def kernel(plan):
        eng = CountingEngine(m.HOP2)
        eng.start(db)
        return eng.relation("hop2"), None
    return kernel


def _e1(quick):
    m = importlib.import_module("bench_e1_idrelations")
    from repro.core.idrelations import count_id_functions

    def kernel(plan):
        counts = tuple(count_id_functions(m.R_EXAMPLE1, m.G1, limit)
                       for limit in (None, 1, 2))
        return counts, None
    return kernel


def _e2(quick):
    m = importlib.import_module("bench_e2_manwoman")
    from repro.core import IdlogEngine
    from repro.datalog.database import Database
    n = 3 if quick else 5
    db = Database.from_facts({"person": [(f"p{i}",) for i in range(n)]})

    def kernel(plan):
        eng = IdlogEngine(m.IDLOG, plan=plan)
        return eng.answers(db, "man"), None
    return kernel


def _e3(quick):
    m = importlib.import_module("bench_e3_inflationary")
    from repro.inflationary import DLEngine

    def kernel(plan):
        return DLEngine(m.EX3).answers(m.PEOPLE, "man"), None
    return kernel


def _e4(quick):
    m = importlib.import_module("bench_e4_sampling_one")
    from conftest import employees_db
    from repro.core import IdlogEngine
    db = employees_db(4 if quick else 6, 3 if quick else 4)

    def kernel(plan, record=None, replay=None):
        eng = IdlogEngine(m.IDLOG, plan=plan)
        if replay is not None:
            result = eng.replay(db, replay)
        else:
            result = eng.one(db, seed=0, record=record)
        return result.tuples("select_emp"), result.stats
    kernel.answer_preds = ("select_emp",)
    return kernel


def _e5(quick):
    m = importlib.import_module("bench_e5_sampling_k")
    from conftest import employees_db
    from repro.core import IdlogEngine
    db = employees_db(4 if quick else 8, 3 if quick else 4)

    def kernel(plan):
        eng = IdlogEngine(m.IDLOG_TWO, plan=plan)
        result = eng.run(db)
        return result.tuples("select_two_emp"), result.stats
    return kernel


def _e6(quick):
    m = importlib.import_module("bench_e6_adornment")
    from repro.core import IdlogEngine
    from repro.optimizer import optimize
    rewrite = optimize(m.EX6, "q")
    db = m.chain_db(15 if quick else 30)

    def kernel(plan):
        eng = IdlogEngine(rewrite.optimized, plan=plan)
        result = eng.run(db)
        return result.tuples("q"), result.stats
    return kernel


def _e7(quick):
    m = importlib.import_module("bench_e7_exists_vs_forall")
    from repro.datalog.parser import parse_program
    from repro.datalog.seminaive import evaluate
    program = parse_program(m.EXISTS_JOIN)
    db = m.exists_db(15 if quick else 30)

    def kernel(plan):
        result, stats = evaluate(program, db, plan=plan)
        return result.relation("q").frozen(), stats
    return kernel


def _e8(quick):
    m = importlib.import_module("bench_e8_group_limit")
    from conftest import employees_db
    from repro.core import IdlogEngine
    db = employees_db(8 if quick else 20, 4 if quick else 6)

    def kernel(plan):
        eng = IdlogEngine(m.SELECT_TWO, plan=plan)
        result = eng.run(db)
        return result.tuples("select_two_emp"), result.stats
    return kernel


def _e9(quick):
    m = importlib.import_module("bench_e9_theorem2")
    import random
    from repro.choice import choice_to_idlog
    from repro.core import IdlogEngine
    source, pred, schema = m.PROGRAMS["sex_guess"]
    translated = choice_to_idlog(source)
    db = m.random_db(schema, random.Random(0))

    def kernel(plan):
        eng = IdlogEngine(translated, plan=plan)
        return eng.answers(db, pred), None
    return kernel


def _e10(quick):
    m = importlib.import_module("bench_e10_theorem4")
    from repro.optimizer import (optimize, q_equivalent_on,
                                 random_databases)
    source, query, schema = m.SUITE["example6"]
    result = optimize(source, query)
    dbs = list(random_databases(schema, ["a", "b", "c"],
                                count=5 if quick else 10, seed=13,
                                max_rows=5))

    def kernel(plan):
        return q_equivalent_on(result.original, result.optimized,
                               query, dbs), None
    return kernel


def _e11(quick):
    importlib.import_module("bench_e11_expressive")
    from repro.core import IdlogEngine
    from repro.datalog.database import Database
    n = 3 if quick else 4
    db = Database.from_facts({"item": [(f"i{k}",) for k in range(n)]})

    def kernel(plan):
        eng = IdlogEngine("pick(X) :- item[](X, 0).", plan=plan)
        return eng.answers(db, "pick"), None
    return kernel


def _e12(quick):
    m = importlib.import_module("bench_e12_stable")
    from repro.core import IdlogEngine
    db = m.people_db(3 if quick else 4)

    def kernel(plan):
        eng = IdlogEngine(m.IDLOG, plan=plan)
        return eng.answers(db, "man"), None
    return kernel


SCENARIOS = [
    ("bench_a1_seminaive", _a1),
    ("bench_a2_slicing", _a2),
    ("bench_a3_magic", _a3),
    ("bench_a4_incremental", _a4),
    ("bench_a5_topdown", _a5),
    ("bench_a6_aggregates", _a6),
    ("bench_a7_counting", _a7),
    ("bench_e1_idrelations", _e1),
    ("bench_e2_manwoman", _e2),
    ("bench_e3_inflationary", _e3),
    ("bench_e4_sampling_one", _e4),
    ("bench_e5_sampling_k", _e5),
    ("bench_e6_adornment", _e6),
    ("bench_e7_exists_vs_forall", _e7),
    ("bench_e8_group_limit", _e8),
    ("bench_e9_theorem2", _e9),
    ("bench_e10_theorem4", _e10),
    ("bench_e11_expressive", _e11),
    ("bench_e12_stable", _e12),
]


def run_kernel(kernel, plan, repeats, replay=None):
    best = None
    answer = stats = None
    kwargs = {"replay": replay} if replay is not None else {}
    for _ in range(repeats):
        start = time.perf_counter()
        answer, stats = kernel(plan, **kwargs)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    record = {"wall_s": round(best, 6), "answer_digest": digest(answer),
              "answer_size": len(answer) if hasattr(answer, "__len__")
              else None}
    if replay is not None:
        # The choice log pinned every ID-function decision, so this
        # digest is machine- and hash-seed-independent; compare.py
        # enforces it exactly instead of exempting the kernel.
        record["replay_pinned"] = True
    record.update(stats_dict(stats))
    return record


def capture_choice_log(kernel, name, quick):
    """One untimed recording pass; the kernel's choice log as JSONL-able
    data (None for kernels that materialize no ID-relations)."""
    from repro.core.choicelog import ChoiceLog
    log = ChoiceLog(meta={"benchmark": name, "quick": quick,
                          "mode": f"batch/{PROFILED_PLAN}"})
    answer, _ = kernel(PROFILED_PLAN, record=log)
    log.set_answers({pred: answer for pred in kernel.answer_preds})
    return log.to_jsonable()


def load_replays(path):
    """The embedded choice logs of a prior trajectory file, by kernel."""
    from repro.core.choicelog import ChoiceLog
    with open(path) as handle:
        report = json.load(handle)
    return {name: ChoiceLog.from_jsonable(data)
            for name, data in report.get("choice_logs", {}).items()}


def profile_kernel(kernel, plan):
    """One untimed pass under an ambient tracer; the per-clause profile
    and the plan-quality block, or ``(None, None)`` for kernels whose
    code path never reaches the evaluator.  ``plan_quality`` is None
    when no clause ran with estimate capture (e.g. the kernel bypasses
    the batch executor)."""
    from repro.datalog.trace import TimingTracer, use_tracer
    tracer = TimingTracer()
    with use_tracer(tracer):
        kernel(plan)
    if not tracer.profile.clauses:
        return None, None
    quality = tracer.profile.plan_quality()
    return (tracer.profile.as_dict(),
            quality if quality["clauses"] else None)


def memory_series(quick: bool) -> dict:
    """Bytes-per-tuple of the reference memory scenario (1200-row Zipf).

    Reports the ``emp`` relation's resident ``memory_stats`` plus the
    database-level interning figures.  The scenario matches the PR-7
    acceptance baseline: PR 5's tuple-store ``approx_bytes`` on the same
    1200-row database was 230417.
    """
    from repro.workloads import zipf_employees
    rows = 300 if quick else 1200
    db = zipf_employees(30, rows)
    emp = db.relation("emp").memory_stats()
    stats = db.stats()
    return {
        "scenario": f"zipf_employees(30, {rows})",
        "rows": emp["rows"],
        "approx_bytes": emp["approx_bytes"],
        "logical_bytes": emp["logical_bytes"],
        "bytes_per_tuple": emp["bytes_per_tuple"],
        "distinct_constants": emp["distinct_constants"],
        "interning_ratio": stats["interning_ratio"],
        "pool_constants": stats["pool_constants"],
        "pool_approx_bytes": stats["pool_approx_bytes"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small input sizes and one repeat (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per mode (default 3, 1 "
                             "with --quick)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_pr10.json"),
                        help="output JSON path (default: repo root)")
    parser.add_argument("--only", default=None,
                        help="run only scenarios whose name contains this "
                             "substring")
    parser.add_argument("--replay-from", default=None, metavar="BENCH_JSON",
                        help="replay the choice logs embedded in a prior "
                             "trajectory file, pinning nondeterministic "
                             "kernels to the recorded ID choices")
    parser.add_argument("--choice-logs", default=None, metavar="DIR",
                        help="also dump each kernel's choice log as "
                             "DIR/<kernel>.choices.jsonl (CI artifact)")
    args = parser.parse_args(argv)
    repeats = args.repeats or (1 if args.quick else 3)
    replays = load_replays(args.replay_from) if args.replay_from else {}

    report = {"schema": 1, "quick": args.quick, "repeats": repeats,
              "modes": [f"batch/{plan}" for plan in PLANS],
              "benchmarks": {}, "choice_logs": {},
              "memory": memory_series(args.quick)}

    for name, build in SCENARIOS:
        if args.only and args.only not in name:
            continue
        kernel = build(args.quick)
        # Kernels with an answer_preds marker thread ID-choice logs
        # through: timed passes replay a prior log when one was given,
        # and one extra untimed pass records this run's log so the
        # written trajectory can pin the next run in turn.
        choice_capable = hasattr(kernel, "answer_preds")
        replay = replays.get(name) if choice_capable else None
        records = {}
        for plan in PLANS:
            key = f"batch/{plan}"
            records[key] = run_kernel(kernel, plan, repeats, replay=replay)
            pinned = " (replayed)" if replay is not None else ""
            print(f"{name:28s} {key:14s} "
                  f"{records[key]['wall_s'] * 1000:9.2f} ms  "
                  f"probes={records[key].get('probes', '-')}{pinned}",
                  flush=True)
        profile, plan_quality = profile_kernel(kernel, PROFILED_PLAN)
        profiled = records[f"batch/{PROFILED_PLAN}"]
        if profile is not None:
            profiled["profile"] = profile
        if plan_quality is not None:
            profiled["plan_quality"] = plan_quality
        if choice_capable:
            if replay is not None:
                report["choice_logs"][name] = replays[name].to_jsonable()
            else:
                report["choice_logs"][name] = capture_choice_log(
                    kernel, name, args.quick)
        report["benchmarks"][name] = records

    if not args.only:
        # The storage micro-benchmark (tuple-store vs columnar) rides in
        # the same trajectory file; skipped under --only since it is not
        # an engine kernel.
        import bench_storage
        report["storage"] = bench_storage.run(quick=args.quick)

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {out}")
    if args.choice_logs:
        from repro.core.choicelog import ChoiceLog
        log_dir = Path(args.choice_logs)
        log_dir.mkdir(parents=True, exist_ok=True)
        for name, data in report["choice_logs"].items():
            log_path = log_dir / f"{name}.choices.jsonl"
            ChoiceLog.from_jsonable(data).save(str(log_path))
            print(f"wrote {log_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
