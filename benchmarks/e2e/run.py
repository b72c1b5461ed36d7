#!/usr/bin/env python3
"""End-to-end benchmark of the IDLOG engine and server.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--out DIR]

One workload runs in this process; several (by default all four, see
``BENCHMARK.json``) run one after another, each in a fresh process of its
own, because the constant pool is process-global and append-only.

A run generates its inputs from ``--seed``, sets up several times (the
median is ``setup_s``), runs untimed warm-up ops for a second, then
measures ops for ``--seconds`` and checks every answer.  With
``--trace 0`` it prints every end-to-end metric of ``BENCHMARK.json``;
with ``--trace 1`` it traces every other op (or block of ops) through the
wrappers of ``spans.py`` and prints every per-layer metric instead.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out DIR`` also writes the full result (validity,
detail metrics, op counts) and, when tracing, the raw spans as JSONL.

Exit status: 0 when every answer was correct, 1 when any op failed or
answered wrongly, 2 when the checkout is incomplete.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"

#: Untimed warm-up after set-up: at least this many ops and this long (a
#: fresh set-up's first ops run slower for about a second).
WARMUP_OPS, WARMUP_S = 3, 1.0
#: Set-up repeats: at least this many, and more while the total stays
#: under the budget (tiny set-ups get enough samples for a steady median).
SETUP_REPEATS, SETUP_BUDGET_S, SETUP_MAX = 5, 1.0, 200


def run_engine(name: str, seed: int, seconds: float, trace: bool,
               smoke: bool) -> dict:
    """One in-process engine workload, measured."""
    from engine_workloads import WORKLOADS
    from metrics import layer_metrics, percentile
    from repro.datalog.pool import GLOBAL_POOL
    from spans import SpanRecorder, total_calls

    workload = WORKLOADS[name](seed, smoke)
    setups, loads = [], []
    budget = SETUP_BUDGET_S / 10 if smoke else SETUP_BUDGET_S
    setup = None
    while len(setups) < SETUP_REPEATS or (
            sum(setups) < budget and len(setups) < SETUP_MAX):
        setup = None  # never hold two set-ups at once
        start = perf_counter()
        setup = workload.setup()
        setups.append(perf_counter() - start)
        loads.append(setup.load_s)
    state = setup.state

    failed = 0
    i = 0
    warm_until = perf_counter() + (WARMUP_S / 10 if smoke else WARMUP_S)
    while i < WARMUP_OPS or perf_counter() < warm_until:
        failed += not workload.check(i, workload.op(state, i))
        i += 1

    recorder = SpanRecorder()
    walls, traced, untraced = [], [], []
    # A traced run needs at least one traced and one untraced block.
    last_required = i + (2 * workload.block if trace else 0)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or i < last_required:
        is_traced = trace and (i // workload.block) % 2 == 0
        try:
            if is_traced:
                with recorder.installed(), recorder.op(i):
                    start = perf_counter()
                    answer = workload.op(state, i)
                    wall = perf_counter() - start
            else:
                start = perf_counter()
                answer = workload.op(state, i)
                wall = perf_counter() - start
            ok = workload.check(i, answer)
        except Exception:
            traceback.print_exc()
            ok = False
        i += 1
        if not ok:
            failed += 1
            continue
        walls.append(wall)
        (traced if is_traced else untraced).append(wall)

    measured = {"attempted": i, "failed": failed, "invalid": [],
                "detail": {}, "counts": {"ops": i, "timed_ops": len(walls),
                                         "setups": len(setups)}}
    if not walls:
        return measured
    if not trace:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        measured["e2e"] = {
            "setup_s": statistics.median(setups),
            "latency_ms.p50": percentile(walls, 50) * 1000.0,
            "ops_per_s": len(walls) / sum(walls),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        measured["detail"] = {f"latency_ms.p{q}": percentile(walls, q)
                              * 1000.0 for q in (90, 95, 99)}
        return measured
    ops = [op.as_dict() for op in recorder.ops]
    measured["counts"]["traced_ops"] = len(ops)
    measured["layers"] = layer_metrics(
        ops,
        **{"trace.overhead_ratio": percentile(traced, 50)
           / percentile(untraced, 50),
           "datalog.database.load_rows_per_s":
               setup.rows / statistics.median(loads),
           "datalog.pool.constants": len(GLOBAL_POOL),
           "server.prepared_programs": 0})
    measured["calls"] = total_calls(ops)
    measured["spans"] = recorder.span_rows()
    return measured


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    """Run one workload in this process (serve drives a subprocess)."""
    if name == "serve":
        import serve_workload
        return serve_workload.run(seed, seconds, trace, smoke,
                                  WARMUP_S / 10 if smoke else WARMUP_S)
    return run_engine(name, seed, seconds, trace, smoke)


def build_result(spec: dict, args, name: str, measured: dict,
                 loadavg: tuple) -> dict:
    """The full result record (what ``--out`` writes)."""
    section = "per_layer" if args.trace else "end_to_end"
    values = measured.get("layers" if args.trace else "e2e", {})
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section] if m["name"] in values}
    attempted, failed = measured["attempted"], measured["failed"]
    return {
        "schema": "idlog-e2e-bench/1",
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "smoke": args.smoke,
        "correct": failed == 0 and len(metrics) == len(spec[section]),
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "metrics": metrics,
        "detail": measured["detail"],
        "calls": measured.get("calls", {}),
        "validity": {
            "valid": not measured["invalid"],
            "reasons": measured["invalid"],
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg_before": loadavg[0], "loadavg_after": loadavg[1],
            "seed": args.seed, "ops": measured["counts"],
        },
    }


def write_out(directory: Path, result: dict, spans: list) -> Path:
    """``DIR/<workload>-s<seed>[-trace]-<n>.json`` (+ ``.spans.jsonl``)."""
    directory.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-s{result['seed']}" + (
        "-trace" if result["trace"] else "")
    n = 1
    while (directory / f"{stem}-{n}.json").exists():
        n += 1
    path = directory / f"{stem}-{n}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    if result["trace"]:
        with open(directory / f"{stem}-{n}.spans.jsonl", "w") as handle:
            for row in spans:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def run_children(args) -> int:
    """Each workload in a fresh process; worst exit status wins."""
    status = 0
    for name in args.workload:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        command += ["--smoke"] if args.smoke else []
        command += ["--out", str(args.out)] if args.out else []
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(command).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs="+", default=None,
                        help="workload(s) to run (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the self-test")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for result JSON (and spans)")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"error: {SRC / 'repro'} and {SPEC_PATH} are required; run "
              "from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    args.workload = args.workload or names
    unknown = sorted(set(args.workload) - set(names))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {names}")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if len(args.workload) > 1:
        return run_children(args)

    sys.path.insert(0, str(SRC))
    name = args.workload[0]
    before = os.getloadavg()
    measured = measure(name, args.seed, args.seconds, bool(args.trace),
                       args.smoke)
    result = build_result(spec, args, name, measured,
                          (before, os.getloadavg()))

    for metric, entry in result["metrics"].items():
        print(f"{name:<10} {metric:<44} {entry['value']:>16.6f} "
              f"{entry['unit']}")
    for metric, value in result["detail"].items():
        print(f"{name:<10} {metric:<44} {value:>16.6f} (detail)")
    for reason in result["validity"]["reasons"]:
        print(f"warning: run invalid: {reason}", file=sys.stderr)
    if args.out:
        path = write_out(args.out, result, measured.get("spans", []))
        print(f"wrote {path}")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
