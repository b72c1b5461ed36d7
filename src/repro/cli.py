"""Command-line interface.

The subcommands::

    repro-idlog check PROGRAM        # parse + safety + stratification
    repro-idlog lint PROGRAM         # typo warnings + optimization hints
    repro-idlog explain PROGRAM      # the evaluation plan (static)
    repro-idlog run PROGRAM [-f FACTS] [-q PRED] [--mode MODE] ...
    repro-idlog profile PROGRAM [-f FACTS] ...   # EXPLAIN ANALYZE
    repro-idlog why PROGRAM 'fact.' [-f FACTS]   # derivation tree
    repro-idlog stats [PROGRAM] [-f FACTS | --dir DIR]  # memory report
    repro-idlog diverge RUN_A RUN_B  # first differing ID choice of 2 runs
    repro-idlog eval [--quick] [--out FILE]  # scenario suite + stats checks
    repro-idlog serve [--port P] [--unix PATH] ...   # long-lived server
    repro-idlog connect [PROGRAM] [-f FACTS] ...     # query a server
    repro-idlog top [HOST:PORT]      # live view of a running server
    repro-idlog plans [TRACE]        # worst-estimated clauses by q-error

``PROGRAM`` is a file of clauses in the surface syntax; ``FACTS`` is a
file of ground facts (``emp(ann, toys).``), whose ``udom(c)`` facts — if
any — declare extra u-domain elements.  The engine is picked from the
program's constructs: choice operators → DATALOG^C, ID-atoms → IDLOG,
otherwise plain Datalog.

Modes for ``run``: ``run`` (one model under the canonical assignment),
``one`` (one arbitrary answer; ``--seed`` for reproducibility) and
``answers`` (the exact answer set; ``--max-branches`` guards blowup).
``run`` and ``profile`` are adapters over :func:`repro.core.run_program`,
the run entry point the server's ``run`` request shares: they parse
flags, pick the engine and format the outcome.

Observability (``docs/OBSERVABILITY.md``): ``run --profile`` appends the
per-clause EXPLAIN ANALYZE table, ``--trace FILE`` streams span events
as JSONL, ``--metrics FILE`` exports aggregated metrics and
``--progress`` prints heartbeats to stderr; trace and metrics files are
flushed in a ``finally:``, so a failed run still leaves them valid.
``run --record FILE`` captures every ID-function decision plus the
answers as a JSONL choice log and ``--replay FILE`` reproduces it or
fails with a typed diagnostic; ``diverge`` names the first differing ID
choice of two recorded runs and the answer delta it caused; ``plans``
ranks clauses by q-error from a trace or a server; ``stats`` reports
memory and cardinalities; ``why`` prints a derivation tree.

``serve`` starts the long-lived server and ``connect`` is its client
(``docs/SERVER.md``); ``eval`` runs the scenario suite and writes a
schema-stamped JSON report (``docs/SCENARIOS.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Optional, Sequence

from .choice import ChoiceEngine
from .core import ChoiceLog, IdlogEngine, pick_queries, run_program
from .core.dbp import strip_database_program
from .datalog import Database, parse_program
from .datalog.explain import explain_program
from .datalog.safety import check_program
from .datalog.stratify import stratify
from .datalog.metrics import MetricsTracer, ProgressTracer
from .datalog.trace import JsonTracer, TimingTracer, format_profile, tee
from .errors import ReproError


def _load_program(path: str):
    with open(path) as handle:
        return parse_program(handle.read(), name=path)


def _load_facts(path: Optional[str]) -> Database:
    if path is None:
        return Database()
    with open(path) as handle:
        program = parse_program(handle.read(), name=path)
    non_facts = [c for c in program.clauses if not c.is_fact]
    if non_facts:
        raise ReproError(
            f"facts file {path} contains non-fact clauses "
            f"(first: {non_facts[0]})")
    _, db = strip_database_program(program)
    return db


def _print_relation(rows, out) -> None:
    for row in sorted(rows, key=lambda r: tuple(map(repr, r))):
        print("  " + ", ".join(map(str, row)), file=out)


def _cmd_check(args, out) -> int:
    program = _load_program(args.program)
    if program.has_choice():
        # Validates (C1)/(C2) plus safety/stratification of the
        # translated program; the planner itself rejects raw choice atoms.
        ChoiceEngine(program)
    else:
        check_program(program)
    strat = stratify(program)
    print(f"ok: {len(program)} clauses, "
          f"{len(program.predicates)} predicates, "
          f"{strat.depth} strata", file=out)
    print(f"input predicates: "
          f"{', '.join(sorted(program.input_predicates)) or '(none)'}",
          file=out)
    print(f"output predicates: "
          f"{', '.join(sorted(program.head_predicates)) or '(none)'}",
          file=out)
    if program.has_choice():
        print("constructs: choice operator (DATALOG^C)", file=out)
    if program.has_id_atoms():
        groupings = ", ".join(
            f"{p}[{','.join(map(str, sorted(g)))}]"
            for p, g in sorted(program.id_groupings,
                               key=lambda pg: (pg[0], sorted(pg[1]))))
        print(f"constructs: ID-predicates ({groupings})", file=out)
    if not program.has_choice():
        from .datalog.sorts import format_signatures, infer_signatures
        print("inferred sorts (0=u, 1=i, ?=either):", file=out)
        for line in format_signatures(
                infer_signatures(program)).splitlines():
            print(f"  {line}", file=out)
    return 0


def _cmd_lint(args, out) -> int:
    from .datalog.lint import lint
    program = _load_program(args.program)
    findings = lint(program, hints=not args.no_hints)
    if not findings:
        print("clean: no findings", file=out)
        return 0
    for finding in findings:
        print(str(finding), file=out)
    warnings = sum(1 for f in findings if f.code.startswith("W"))
    print(f"{warnings} warning(s), {len(findings) - warnings} hint(s)",
          file=out)
    return 0


def _cmd_explain(args, out) -> int:
    program = _load_program(args.program)
    if program.has_choice():
        from .choice import choice_to_idlog
        program = choice_to_idlog(program).program
        print("(choice operators translated to IDLOG — Theorem 2)",
              file=out)
    if args.plan is not None or args.facts is not None:
        from .datalog.explain import explain_plan
        db = _load_facts(args.facts)
        print(explain_plan(program, db if args.facts else None,
                           plan=args.plan or "cost"), file=out)
        return 0
    print(explain_program(program), file=out)
    return 0


def _make_engine(program, plan: str):
    """The engine a program's constructs call for."""
    if program.has_choice():
        return ChoiceEngine(program)
    return IdlogEngine(program, plan=plan)


def _make_sinks(args):
    """(sinks, JsonTracer?, MetricsTracer?): one tracer per ``--trace``,
    ``--metrics`` and ``--progress`` flag given."""
    json_tracer = JsonTracer(args.trace) \
        if getattr(args, "trace", None) else None
    metrics = MetricsTracer() if getattr(args, "metrics", None) else None
    progress = ProgressTracer() if getattr(args, "progress", False) \
        else None
    sinks = [t for t in (json_tracer, metrics, progress) if t is not None]
    return sinks, json_tracer, metrics


def _check_record_replay(args, program) -> None:
    """Validate ``run --record/--replay`` before any tracer file is
    opened, so a usage error leaves no half-written artifacts behind."""
    if not (args.record or args.replay):
        return
    if args.record and args.replay:
        raise ReproError("--record and --replay are mutually exclusive")
    if args.mode == "answers":
        raise ReproError(
            "--record/--replay capture a single run; --mode answers "
            "enumerates every run")
    if program.has_choice():
        raise ReproError(
            "record/replay applies to Datalog/IDLOG evaluation; translate "
            "the choice program first (repro-idlog explain shows the "
            "translation)")


def _cmd_run(args, out) -> int:
    program = _load_program(args.program)
    db = _load_facts(args.facts)
    queries = pick_queries(program, [args.query] if args.query else None)
    _check_record_replay(args, program)
    replay_log = ChoiceLog.load(args.replay) if args.replay else None
    sinks, json_tracer, metrics = _make_sinks(args)
    engine = _make_engine(program, args.plan)
    if program.has_choice() and args.plan != "greedy":
        print("(note: --plan applies to Datalog/IDLOG "
              "evaluation; the choice front end uses its own pipeline)",
              file=out)

    # The finally: guarantees the JSONL trace and the metrics export are
    # flushed even when the evaluation dies mid-stratum — a partial
    # artifact of a failed run is exactly when you need the file valid.
    try:
        if args.mode == "answers":
            timing = TimingTracer() if args.profile else None
            engine.tracer = tee(timing, *sinks)
            for pred in queries:
                answers = engine.answers(db, pred, args.max_branches)
                print(f"{pred}: {len(answers)} possible answer(s)",
                      file=out)
                for i, answer in enumerate(
                        sorted(answers, key=lambda a: sorted(map(repr, a)))):
                    print(f" answer {i + 1} ({len(answer)} tuple(s)):",
                          file=out)
                    _print_relation(answer, out)
            _finish_tracing(timing.profile if timing else None, json_tracer,
                            out)
            return 0

        record = {"program": args.program, "facts": args.facts,
                  "mode": args.mode, "seed": args.seed} \
            if args.record else None
        outcome = run_program(engine, db, args.mode, args.seed, queries,
                              record=record, replay=replay_log,
                              profile=args.profile, sinks=sinks)
        for pred in queries:
            rows = outcome.result.tuples(pred)
            print(f"{pred}: {len(rows)} tuple(s)", file=out)
            _print_relation(rows, out)
        if args.record:
            outcome.log.save(args.record)
            print(f"(recorded {len(outcome.log)} ID choice(s) and "
                  f"{len(queries)} answer predicate(s) to {args.record})",
                  file=out)
        if replay_log is not None:
            checked = len(replay_log.answers)
            verdict = (f"answers match the recorded run "
                       f"({checked} predicate(s) verified)"
                       if checked else
                       "log carries no answer snapshot to verify")
            print(f"(replay: {len(replay_log)} ID choice(s) re-applied; "
                  f"{verdict})", file=out)
        if args.stats:
            print("stats: " + " ".join(
                f"{key}={value}" for key, value
                in outcome.result.stats.counters().items()), file=out)
        _finish_tracing(outcome.profile, json_tracer, out)
        return 0
    finally:
        if json_tracer is not None:
            json_tracer.close()  # idempotent; no-op on the success path
        # Metrics flush in the finally: for the same reason the trace
        # does — the partial counters of a failed run are still a valid
        # (and useful) export.
        _write_metrics(metrics, args, out)


def _finish_tracing(profile, json_tracer, out) -> None:
    if profile is not None:
        print(format_profile(profile), file=out)
    if json_tracer is not None:
        events = json_tracer.events_written
        json_tracer.close()
        print(f"(trace: {events} event(s) written)", file=out)


def _write_metrics(metrics, args, out) -> None:
    """Export the run's metrics registry (``run --metrics FILE``)."""
    if metrics is None:
        return
    text = metrics.registry.render(getattr(args, "metrics_format", "prom"))
    if args.metrics == "-":
        out.write(text)
        return
    with open(args.metrics, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"(metrics: {metrics.registry.total_series()} series "
          f"written to {args.metrics})", file=out)


def _cmd_profile(args, out) -> int:
    """Evaluate once and print the EXPLAIN ANALYZE table."""
    program = _load_program(args.program)
    db = _load_facts(args.facts)
    sinks, json_tracer, _ = _make_sinks(args)
    outcome = run_program(_make_engine(program, args.plan), db,
                          "run" if args.seed is None else "one", args.seed,
                          profile=True, sinks=sinks)
    for pred in sorted(program.head_predicates):
        print(f"{pred}: {len(outcome.result.tuples(pred))} tuple(s)",
              file=out)
    _finish_tracing(outcome.profile, json_tracer, out)
    return 0


def _print_stats_report(report: dict, out) -> None:
    """Human-readable rendering of a stats report dict."""
    for name in sorted(report["relations"]):
        info = report["relations"][name]
        fields = " ".join(f"{key}={info[key]}" for key in sorted(info))
        print(f"  {name}: {fields}", file=out)
    totals = " ".join(f"{key}={value}" for key, value in report.items()
                      if key != "relations")
    print(f"total: {totals}", file=out)


def _cmd_stats(args, out) -> int:
    """Memory/cardinality introspection (``repro-idlog stats``)."""
    import json as json_module
    if args.dir is not None:
        if args.program is not None or args.facts is not None:
            raise ReproError(
                "--dir reads a saved database directory; it cannot be "
                "combined with a program or facts file")
        from .datalog.storage import directory_stats
        report = directory_stats(args.dir)
        title = f"database directory {args.dir}:"
    elif args.program is None:
        if args.facts is None:
            raise ReproError(
                "stats needs a PROGRAM, a facts file (-f) or a saved "
                "database directory (--dir)")
        report = _load_facts(args.facts).stats()
        title = f"facts file {args.facts}:"
    else:
        program = _load_program(args.program)
        result = _make_engine(program, args.plan).run(
            _load_facts(args.facts))
        report = result.database.stats()
        id_stats = [r.memory_stats() for r in result.id_relations.values()]
        report["id_relations"] = len(id_stats)
        report["id_rows"] = sum(s["rows"] for s in id_stats)
        report["id_approx_bytes"] = sum(s["approx_bytes"] for s in id_stats)
        stats = result.stats.counters()
        report["counters"] = {key: stats[key] for key in (
            "derived", "firings", "probes", "iterations", "id_tuples")}
        title = f"evaluation of {args.program}:"
    if args.json:
        print(json_module.dumps(report, indent=2, sort_keys=True), file=out)
        return 0
    print(title, file=out)
    counters = report.pop("counters", None)
    _print_stats_report(report, out)
    if counters is not None:
        print("counters: " + " ".join(
            f"{key}={counters[key]}" for key in sorted(counters)), file=out)
    return 0


def _cmd_why(args, out) -> int:
    """Derivation tree for one ground fact (``repro-idlog why``)."""
    from .datalog.parser import parse_atom
    from .datalog.provenance import Explainer, format_tree
    from .datalog.terms import Const
    program = _load_program(args.program)
    if program.has_choice():
        raise ReproError(
            "why explains Datalog/IDLOG derivations; translate the choice "
            "program first (repro-idlog explain shows the translation)")
    goal_text = args.goal.strip()
    if goal_text.endswith("."):
        goal_text = goal_text[:-1]
    goal = parse_atom(goal_text)
    if goal.group is not None:
        raise ReproError(
            "why explains base facts, not ID-atoms; ask about "
            f"{goal.pred}(...) instead")
    if not all(isinstance(term, Const) for term in goal.args):
        raise ReproError(f"goal must be ground: {args.goal!r}")
    row = tuple(term.value for term in goal.args)

    result = run_program(IdlogEngine(program, plan=args.plan),
                         _load_facts(args.facts),
                         "run" if args.seed is None else "one",
                         args.seed).result
    explainer = Explainer(program, result.database, result.id_relations)
    derivation = explainer.explain(goal.pred, row)
    print(format_tree(derivation), file=out)
    return 0


def _cmd_eval(args, out) -> int:
    """Run the scenario suite (``repro-idlog eval``)."""
    from .eval import ScenarioRunner, builtin_suite, format_report
    scenarios = builtin_suite()
    if args.only:
        scenarios = [s for s in scenarios if args.only in s.name]
        if not scenarios:
            raise ReproError(
                f"no scenario name contains {args.only!r}; "
                "repro-idlog eval --list shows the suite")
    if args.list:
        for scenario in scenarios:
            tags = f"  [{', '.join(sorted(scenario.tags))}]" \
                if scenario.tags else ""
            print(f"{scenario.name}: {scenario.description}{tags}",
                  file=out)
        return 0

    plans = ("greedy", "cost") if args.plan == "all" else (args.plan,)
    seeds = range(args.seeds) if args.seeds is not None else None
    progress = (lambda msg: print(f"  {msg}", file=sys.stderr)) \
        if args.progress else None
    runner = ScenarioRunner(
        scenarios, plans=plans, seeds=seeds,
        differential=not args.no_differential, quick=args.quick,
        meta={"command": "repro-idlog eval"}, progress=progress)

    # The runner flushes the (possibly partial) report in its own
    # finally:, so a scenario that dies mid-suite still leaves a valid
    # JSON artifact at --out — same contract as run --trace/--metrics.
    sink = None
    if args.out == "-":
        sink = out
    elif args.out is not None:
        sink = args.out
    report = runner.run(out=sink)
    if args.out != "-":
        print(format_report(report), file=out)
    if isinstance(sink, str):
        print(f"(report: {len(report.cases)} case(s) written to {sink})",
              file=out)
    return 0 if report.passed else 1


def _cmd_serve(args, out) -> int:
    """Run the long-lived IDLOG server (``repro-idlog serve``)."""
    from .server import ServerConfig, serve
    if args.no_tcp and not args.unix:
        raise ReproError("--no-tcp needs a --unix socket to listen on")
    config = ServerConfig(
        plan=args.plan, workers=args.workers,
        timeout_s=args.timeout, drain_s=args.drain,
        metrics_path=args.metrics, metrics_format=args.metrics_format,
        choice_log_dir=args.choice_log_dir,
        max_sessions=args.max_sessions,
        slow_ms=args.slow_ms, slow_log_path=args.slow_log,
        log_path=args.log_file, log_level=args.log_level)

    def ready(server) -> None:
        # The ready line is the supervision contract: once printed (and
        # flushed), the listeners are bound and accepting.
        if server.tcp_address is not None:
            host, port = server.tcp_address
            print(f"serving on {host}:{port} "
                  "(NDJSON; GET /metrics and /healthz)", file=out)
        if args.unix:
            print(f"serving on unix socket {args.unix}", file=out)
        out.flush()

    reason = serve(config, host=None if args.no_tcp else args.host,
                   port=args.port, unix_path=args.unix, ready=ready)
    print(f"shutdown: {reason} (sessions closed, in-flight drained)",
          file=out)
    if config.metrics_path:
        print(f"(metrics flushed to {config.metrics_path})", file=out)
    return 0


def _open_client(unix, address: str, timeout: float, what: str):
    """A server client on the ``unix`` socket, else on the TCP address
    ``HOST:PORT`` (``what`` names it in the error for a malformed one)."""
    from .server import ServerClient
    if unix:
        return ServerClient.connect_unix(unix, timeout=timeout)
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise ReproError(f"{what} must look like HOST:PORT, got "
                         f"{address!r}")
    return ServerClient.connect_tcp(host, int(port), timeout=timeout)


def _cmd_connect(args, out) -> int:
    """Query a running server (``repro-idlog connect``)."""
    timeout = args.timeout if args.timeout is not None else 30.0
    with _open_client(args.unix, f"{args.host}:{args.port}", timeout,
                      "--host/--port") as client:
        if args.program is None:
            pong = client.call("ping")
            report = client.call("server_stats")
            print(f"server ok: protocol {pong['protocol']}, "
                  f"schema {pong['schema']}", file=out)
            print("server: " + " ".join(
                f"{key}={report[key]}" for key in sorted(report)),
                file=out)
            return 0
        with open(args.program) as handle:
            source = handle.read()
        db = _load_facts(args.facts)
        session = client.call("open_session", plan=args.plan)["session"]
        try:
            if db.relation_names():
                facts = {name: [list(row) for row in
                                sorted(db.relation(name).frozen(),
                                       key=lambda r: tuple(map(repr, r)))]
                         for name in sorted(db.relation_names())}
                client.call("assert_facts", session=session, facts=facts,
                            udom=sorted(db.udomain))
            request = {"session": session, "program": source,
                       "mode": args.mode}
            if args.seed is not None:
                request["seed"] = args.seed
            if args.query:
                request["query"] = [args.query]
            if args.timeout is not None:
                request["timeout"] = args.timeout
            result = client.call("run", **request)
            for pred in sorted(result["answers"]):
                rows = [tuple(row) for row in result["answers"][pred]]
                print(f"{pred}: {len(rows)} tuple(s)", file=out)
                _print_relation(rows, out)
            if args.stats:
                stats = result["stats"]
                print("stats: " + " ".join(
                    f"{key}={stats[key]}" for key in sorted(stats)),
                    file=out)
        finally:
            with contextlib.suppress(Exception):
                client.call("close_session", session=session)
    return 0


def _fmt_ms(value) -> str:
    """A millisecond column cell; pending requests have no timing yet."""
    if isinstance(value, (int, float)):
        return f"{value:.2f}"
    return "-"


def _fmt_q_err(plan_quality) -> str:
    """A ``q-err`` column cell from a ring-buffer plan-quality roll-up.

    Renders the request's worst q-error, ``!``-flagged when any clause
    crossed the misestimate threshold; ``-`` when the request recorded
    no estimates (non-run requests, tracing off).
    """
    if not isinstance(plan_quality, dict):
        return "-"
    worst = plan_quality.get("max_q_error")
    if not isinstance(worst, (int, float)):
        return "-"
    flag = "!" if plan_quality.get("misestimates") else ""
    return f"{worst:.1f}{flag}"


def _cmd_top(args, out) -> int:
    """Live view of a running server (``repro-idlog top``)."""
    import time
    refreshed = 0
    while True:
        # One connection per refresh: a restarted server shows up again
        # on the next tick instead of wedging the loop.
        with _open_client(args.unix, args.target, args.timeout,
                          "top target") as client:
            stats = client.call("server_stats")
            recent = client.call("recent", limit=args.rows)
            slow = client.call("slowlog")
        print(f"-- repro-idlog top @ {args.unix or args.target} --",
              file=out)
        print("server: " + " ".join(
            f"{key}={stats[key]}" for key in sorted(stats)), file=out)
        print(f"  {'request':<9} {'type':<13} {'session':<8} "
              f"{'status':<10} {'wall ms':>9} {'queue ms':>9} "
              f"{'q-err':>7} digest",
              file=out)
        for item in recent["requests"]:
            print(f"  {item.get('request_id') or '-':<9} "
                  f"{item.get('type') or '-':<13} "
                  f"{item.get('session') or '-':<8} "
                  f"{item.get('status') or '-':<10} "
                  f"{_fmt_ms(item.get('wall_ms')):>9} "
                  f"{_fmt_ms(item.get('queue_ms')):>9} "
                  f"{_fmt_q_err(item.get('plan_quality')):>7} "
                  f"{item.get('choice_digest') or '-'}", file=out)
        if not recent["requests"]:
            print("  (no requests yet)", file=out)
        if slow.get("slow_ms") is None:
            print("slow log: off (serve --slow-ms to enable)", file=out)
        else:
            noun = "entry" if slow["count"] == 1 else "entries"
            print(f"slow log: {slow['count']} {noun} at or over "
                  f"{slow['slow_ms']} ms", file=out)
        out.flush()
        refreshed += 1
        if args.count is not None and refreshed >= args.count:
            return 0
        time.sleep(args.interval)


def _plans_from_trace(args, out) -> int:
    """Fold a recorded JSONL trace back into a plan-quality report."""
    from .datalog.trace import (MISESTIMATE_THRESHOLD, read_events,
                                worst_q_error)
    tracer = TimingTracer()
    for kind, fields in read_events(args.trace):
        tracer.emit(kind, **fields)
    quality = tracer.profile.plan_quality()
    print(f"plan quality: {args.trace} "
          f"({tracer.profile.events} span event(s))", file=out)
    rows = quality["clauses"]
    if not rows:
        print("  (no estimate-bearing clause executions in the trace — "
              "evaluations record them when tracing is on)",
              file=out)
        return 0
    median = quality["median_q_error"]
    print(f"  median q-err {median:.2f}  max q-err "
          f"{quality['max_q_error']:.2f}  "
          f"{quality['misestimates']} misestimate(s) at threshold "
          f"{MISESTIMATE_THRESHOLD:g}  "
          f"{quality['plan_drifts']} plan drift(s)", file=out)
    print(f"  {'q-err':>8} {'calls':>6} {'est probes':>11} "
          f"{'probes':>9} {'drifts':>7}  clause", file=out)
    shown = rows[:args.limit]
    for row in shown:
        worst = worst_q_error(row["q_error"], [row["worst_stage_q_error"]])
        cell = f"{worst:.1f}" + ("!" if row["misestimated"] else "")
        print(f"  {cell:>8} {row['calls']:>6} "
              f"{row['est_probes']:>11.0f} {row['probes']:>9} "
              f"{row['plan_drifts']:>7}  {row['clause']}", file=out)
    if len(rows) > len(shown):
        print(f"  ... {len(rows) - len(shown)} more clause(s); "
              "--limit raises the cut", file=out)
    return 0


def _plans_from_server(args, out) -> int:
    """Query a running server's cross-request plan-quality aggregate."""
    with _open_client(args.unix, args.server, args.timeout,
                      "--server") as client:
        report = client.call("plans", limit=args.limit)
    target = args.unix or args.server
    print(f"plan quality @ {target}: "
          f"{report['requests_observed']} request(s) observed", file=out)
    rows = report["clauses"]
    if not rows:
        if report.get("observing"):
            print("  (no estimate-bearing runs observed yet)", file=out)
        else:
            print("  (server is not profiling requests — serve "
                  "--slow-ms enables estimate capture)", file=out)
        return 0
    print(f"  {'q-err':>8} {'requests':>8} {'calls':>6} "
          f"{'est probes':>11} {'probes':>9} {'drifts':>7}  clause",
          file=out)
    threshold = report["misestimate_threshold"]
    for row in rows:
        cell = f"{row['worst_q_error']:.1f}" \
            + ("!" if row["worst_q_error"] >= threshold else "")
        print(f"  {cell:>8} {row['requests']:>8} {row['calls']:>6} "
              f"{row['est_probes']:>11.0f} {row['probes']:>9} "
              f"{row['plan_drifts']:>7}  {row['clause']}", file=out)
    if report["dropped"]:
        print(f"  ... {report['dropped']} more clause(s) tracked; "
              "--limit raises the cut", file=out)
    return 0


def _cmd_plans(args, out) -> int:
    """Plan-quality report (``repro-idlog plans``): clauses ranked by
    how far the planner's estimates missed the executed actuals."""
    if args.limit < 1:
        raise ReproError("--limit must be >= 1")
    if args.trace is not None:
        return _plans_from_trace(args, out)
    if args.unix or args.server:
        return _plans_from_server(args, out)
    raise ReproError("plans needs a TRACE file (from run --trace or "
                     "profile --trace), or a server via --server "
                     "HOST:PORT / --unix PATH")


def _cmd_diverge(args, out) -> int:
    """Diagnose where two recorded runs parted ways."""
    import os
    from .core.choicelog import diverge, format_divergence
    log_a = ChoiceLog.load(args.run_a)
    log_b = ChoiceLog.load(args.run_b)
    report = diverge(log_a, log_b)
    print(format_divergence(report,
                            a_name=os.path.basename(args.run_a),
                            b_name=os.path.basename(args.run_b)),
          file=out)
    return 0 if report.identical else 1


def build_parser() -> argparse.ArgumentParser:
    """The argparse command-line parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-idlog",
        description="IDLOG: a non-deterministic deductive database "
                    "language (Sheng, SIGMOD 1991)")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and validate a program")
    check.add_argument("program", help="program file")

    explain = sub.add_parser("explain", help="show the evaluation plan")
    explain.add_argument("program", help="program file")
    explain.add_argument("-f", "--facts",
                         help="facts file supplying cardinalities for the "
                              "cost-based EXPLAIN")
    explain.add_argument("--plan", choices=("greedy", "cost"), default=None,
                         help="render the cost-based plan with estimates "
                              "(default: the structural plan; --facts "
                              "implies --plan cost)")

    lint_cmd = sub.add_parser(
        "lint", help="report likely mistakes and optimization hints")
    lint_cmd.add_argument("program", help="program file")
    lint_cmd.add_argument("--no-hints", action="store_true",
                          help="suppress the H-series optimization hints")

    run = sub.add_parser("run", help="evaluate a program")
    run.add_argument("program", help="program file")
    run.add_argument("-f", "--facts", help="facts file (ground clauses)")
    run.add_argument("-q", "--query",
                     help="output predicate (default: all)")
    run.add_argument("--mode", choices=("run", "one", "answers"),
                     default="run",
                     help="canonical model / one arbitrary answer / "
                          "the exact answer set")
    run.add_argument("--seed", type=int, default=None,
                     help="random seed for --mode one")
    run.add_argument("--max-branches", type=int, default=200_000,
                     help="enumeration budget for --mode answers")
    run.add_argument("--plan", choices=("greedy", "cost"), default="greedy",
                     help="body-literal planning: syntactic greedy order "
                          "or cost-based (cardinality-aware) order")
    run.add_argument("--stats", action="store_true",
                     help="print evaluation counters")
    run.add_argument("--profile", action="store_true",
                     help="print a per-clause EXPLAIN ANALYZE table after "
                          "the results (see docs/OBSERVABILITY.md)")
    run.add_argument("--trace", metavar="FILE", default=None,
                     help="write every span event as JSONL to FILE")
    run.add_argument("--metrics", metavar="FILE", default=None,
                     help="export aggregated metrics to FILE after the run "
                          "('-' for stdout); see docs/OBSERVABILITY.md")
    run.add_argument("--metrics-format", choices=("prom", "json"),
                     default="prom",
                     help="metrics exposition format: Prometheus text "
                          "(default) or a JSON snapshot")
    run.add_argument("--progress", action="store_true",
                     help="print stratum/round heartbeats to stderr while "
                          "evaluating")
    run.add_argument("--record", metavar="FILE", default=None,
                     help="record every ID-function choice (and the "
                          "answers) as a JSONL choice log to FILE")
    run.add_argument("--replay", metavar="FILE", default=None,
                     help="replay a recorded choice log, reproducing the "
                          "recorded run and answers exactly or failing "
                          "with a typed diagnostic")

    profile = sub.add_parser(
        "profile",
        help="evaluate and print the per-clause EXPLAIN ANALYZE table")
    profile.add_argument("program", help="program file")
    profile.add_argument("-f", "--facts",
                         help="facts file (ground clauses)")
    profile.add_argument("--plan", choices=("greedy", "cost"),
                         default="greedy",
                         help="body-literal planning mode to profile")
    profile.add_argument("--seed", type=int, default=None,
                         help="profile one() under this random seed "
                              "instead of the canonical run()")
    profile.add_argument("--trace", metavar="FILE", default=None,
                         help="also write the span events as JSONL to FILE")

    why = sub.add_parser(
        "why", help="print the derivation tree of one ground fact")
    why.add_argument("program", help="program file")
    why.add_argument("goal",
                     help="ground fact to explain, e.g. 'path(a, c).'")
    why.add_argument("-f", "--facts", help="facts file (ground clauses)")
    why.add_argument("--plan", choices=("greedy", "cost"),
                     default="greedy", help="body-literal planning mode")
    why.add_argument("--seed", type=int, default=None,
                     help="explain against the one() model drawn under "
                          "this seed instead of the canonical run()")

    stats = sub.add_parser(
        "stats",
        help="memory/cardinality report for a facts file, an evaluation "
             "result, or a saved database directory")
    stats.add_argument("program", nargs="?", default=None,
                       help="program file — when given, the program is "
                            "evaluated and the result database is reported")
    stats.add_argument("-f", "--facts",
                       help="facts file (reported directly when no "
                            "program is given)")
    stats.add_argument("--dir", default=None,
                       help="saved database directory (see save_database); "
                            "reported from disk without loading relations")
    stats.add_argument("--plan", choices=("greedy", "cost"),
                       default="greedy", help="body-literal planning mode")
    stats.add_argument("--json", action="store_true",
                       help="emit the report as JSON instead of text")

    eval_cmd = sub.add_parser(
        "eval",
        help="run the built-in scenario suite: exact + statistical "
             "verification of sampling semantics under both plan modes "
             "and against the reference oracle (see docs/SCENARIOS.md)")
    eval_cmd.add_argument("--out", metavar="FILE", default=None,
                          help="write the JSON eval report to FILE ('-' "
                               "for stdout); flushed in a finally: so a "
                               "failed run still leaves a valid partial "
                               "report")
    eval_cmd.add_argument("--quick", action="store_true",
                          help="quick profile: skip scenarios tagged "
                               "'slow' and trim statistical seeds (the "
                               "CI scenarios job)")
    eval_cmd.add_argument("--only", metavar="SUBSTR", default=None,
                          help="run only scenarios whose name contains "
                               "SUBSTR")
    eval_cmd.add_argument("--list", action="store_true",
                          help="list the suite (names, descriptions, "
                               "tags) without running it")
    eval_cmd.add_argument("--seeds", type=int, default=None,
                          help="sampling seeds per statistical assertion "
                               "(default: per-scenario, >= 20; the "
                               "uniformity checks refuse fewer than 20)")
    eval_cmd.add_argument("--plan", choices=("greedy", "cost", "all"),
                          default="all",
                          help="restrict the plan modes exercised")
    eval_cmd.add_argument("--no-differential", action="store_true",
                          help="skip the cross-combination differential "
                               "case")
    eval_cmd.add_argument("--progress", action="store_true",
                          help="print per-case heartbeats to stderr")

    serve = sub.add_parser(
        "serve",
        help="run the long-lived IDLOG server: persistent sessions, "
             "prepared programs, concurrent NDJSON clients, GET /metrics "
             "and /healthz (see docs/SERVER.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7421,
                       help="TCP port (default 7421; 0 picks an "
                            "ephemeral port, printed on the ready line)")
    serve.add_argument("--unix", metavar="PATH", default=None,
                       help="also listen on a unix socket at PATH")
    serve.add_argument("--no-tcp", action="store_true",
                       help="listen on the --unix socket only")
    serve.add_argument("--workers", type=int, default=4,
                       help="worker threads = max concurrently executing "
                            "requests (default 4)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="default per-request timeout in seconds "
                            "(requests may pass a smaller one; default: "
                            "unlimited)")
    serve.add_argument("--drain", type=float, default=5.0,
                       help="graceful-shutdown drain budget in seconds "
                            "for in-flight requests (default 5)")
    serve.add_argument("--plan", choices=("greedy", "cost"),
                       default="greedy",
                       help="default planning mode for new sessions")
    serve.add_argument("--metrics", metavar="FILE", default=None,
                       help="flush the metrics registry to FILE on "
                            "shutdown (in a finally:, so a killed server "
                            "still leaves a valid export)")
    serve.add_argument("--metrics-format", choices=("prom", "json"),
                       default="prom",
                       help="format for --metrics (default Prometheus "
                            "text)")
    serve.add_argument("--choice-log-dir", metavar="DIR", default=None,
                       help="save every recorded run's choice log under "
                            "DIR (one JSONL file per completed request)")
    serve.add_argument("--max-sessions", type=int, default=256,
                       help="open-session cap (default 256)")
    serve.add_argument("--log-file", metavar="FILE", default=None,
                       help="append structured JSON log lines to FILE "
                            "(default: stderr)")
    serve.add_argument("--log-level",
                       choices=("debug", "info", "warning", "error"),
                       default="info",
                       help="minimum log level (default info; debug "
                            "logs every request summary)")
    serve.add_argument("--slow-ms", type=float, default=None,
                       help="slow-query threshold in milliseconds: "
                            "requests at or over it are logged with "
                            "their plan profile and choice digest "
                            "(default: off; 0 captures everything)")
    serve.add_argument("--slow-log", metavar="FILE", default=None,
                       help="also append slow-query entries to FILE as "
                            "JSONL (they are always kept in memory for "
                            "the slowlog request)")

    connect = sub.add_parser(
        "connect",
        help="query a running IDLOG server: ping it, or run a program "
             "file in a fresh session (see docs/SERVER.md)")
    connect.add_argument("program", nargs="?", default=None,
                         help="program file to run remotely (omit to "
                              "ping the server and print its stats)")
    connect.add_argument("-f", "--facts",
                         help="facts file asserted into the session "
                              "before the run")
    connect.add_argument("-q", "--query",
                         help="output predicate (default: all)")
    connect.add_argument("--host", default="127.0.0.1",
                         help="server address (default 127.0.0.1)")
    connect.add_argument("--port", type=int, default=7421,
                         help="server TCP port (default 7421)")
    connect.add_argument("--unix", metavar="PATH", default=None,
                         help="connect over a unix socket instead of TCP")
    connect.add_argument("--mode", choices=("run", "one"), default="run",
                         help="canonical model or one sampled answer "
                              "(answers enumeration stays local — see "
                              "docs/SERVER.md)")
    connect.add_argument("--seed", type=int, default=None,
                         help="random seed for --mode one")
    connect.add_argument("--plan", choices=("greedy", "cost"),
                         default="greedy",
                         help="planning mode for the session")
    connect.add_argument("--timeout", type=float, default=None,
                         help="per-request timeout in seconds (also the "
                              "socket timeout)")
    connect.add_argument("--stats", action="store_true",
                         help="print the server-reported evaluation "
                              "counters")

    top = sub.add_parser(
        "top",
        help="live view of a running server: recent requests, wall and "
             "queue times, slow-query log (see docs/SERVER.md)")
    top.add_argument("target", nargs="?", default="127.0.0.1:7421",
                     metavar="HOST:PORT",
                     help="server TCP address (default 127.0.0.1:7421)")
    top.add_argument("--unix", metavar="PATH", default=None,
                     help="connect over a unix socket instead of TCP")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes (default 2)")
    top.add_argument("--count", type=int, default=None,
                     help="stop after N refreshes (default: run until "
                          "interrupted)")
    top.add_argument("--rows", type=int, default=15,
                     help="recent requests shown per refresh "
                          "(default 15)")
    top.add_argument("--timeout", type=float, default=30.0,
                     help="socket timeout in seconds (default 30, "
                          "matching connect)")

    plans_cmd = sub.add_parser(
        "plans",
        help="plan-quality report: clauses ranked by q-error "
             "(estimated vs actual cardinality), from a recorded JSONL "
             "trace or a running server (see docs/OBSERVABILITY.md)")
    plans_cmd.add_argument("trace", nargs="?", default=None,
                           metavar="TRACE",
                           help="JSONL span-event trace (from run --trace "
                                "or profile --trace); omit to query a "
                                "server instead")
    plans_cmd.add_argument("--server", metavar="HOST:PORT", default=None,
                           help="query a running server's cross-request "
                                "plans aggregate over TCP")
    plans_cmd.add_argument("--unix", metavar="PATH", default=None,
                           help="query a running server over a unix "
                                "socket")
    plans_cmd.add_argument("--limit", type=int, default=20,
                           help="clauses shown, worst q-error first "
                                "(default 20)")
    plans_cmd.add_argument("--timeout", type=float, default=30.0,
                           help="socket timeout in seconds for server "
                                "queries (default 30)")

    diverge_cmd = sub.add_parser(
        "diverge",
        help="compare two recorded choice logs: first differing ID "
             "choice plus the answer delta it caused")
    diverge_cmd.add_argument("run_a", help="choice log of run A "
                                           "(from run --record)")
    diverge_cmd.add_argument("run_b", help="choice log of run B")
    return parser


def main(argv: Optional[Sequence[str]] = None,
         out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"check": _cmd_check, "explain": _cmd_explain,
                "lint": _cmd_lint, "run": _cmd_run,
                "profile": _cmd_profile, "why": _cmd_why,
                "stats": _cmd_stats, "diverge": _cmd_diverge,
                "eval": _cmd_eval, "serve": _cmd_serve,
                "connect": _cmd_connect, "top": _cmd_top,
                "plans": _cmd_plans}
    # Text-format structured log on a dynamic stderr sink: renders the
    # historical ``error: <message>`` lines byte-for-byte, but through
    # the same repro.obs layer the server uses.
    from .obs.log import StructuredLogger
    log = StructuredLogger(level="error", fmt="text")
    try:
        return handlers[args.command](args, out)
    except FileNotFoundError as exc:
        log.error("error", message=str(exc))
        return 2
    except ReproError as exc:
        log.error("error", message=str(exc))
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
