#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

    python3 benchmarks/e2e/compare.py SET_A/ SET_B/

Each set is a directory of result files written by ``run.py --out``,
with at least three valid untraced runs per workload; traced runs are
skipped, and so are runs flagged invalid (their load generator lagged, so
they measured the host).  For every (workload, end-to-end metric) of
``BENCHMARK.json`` it prints each set's median and quartiles and a
verdict:

* ``worse`` / ``better`` — B's median moved past the metric's bound, in
  the metric's direction, and neither set's spread (quartile distance
  over median) exceeds the bound;
* ``unchanged`` — the move is within the bound;
* ``unresolved`` — a spread exceeds the bound, so the sets cannot tell
  (reported ``better`` only when every B run beats every A run).

``failed_ratio`` may not increase at all.  Detail metrics (latency tails,
serve's write, ad hoc and load-generator metrics) are printed for
information without a verdict: ``BENCHMARK.json`` bounds only the gated
metrics.

Exit status 1 when any pair is ``worse`` (or a set is unusable), else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
MIN_RUNS = 3


def load_set(directory: Path) -> tuple[dict[str, list[dict]], int]:
    """Valid untraced results of one set by workload, and how many
    invalid runs were skipped."""
    runs: dict[str, list[dict]] = {}
    invalid = 0
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace"):
            continue
        if not result["validity"]["valid"]:
            invalid += 1
            continue
        runs.setdefault(result["workload"], []).append(result)
    return runs, invalid


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """The verdict of B against A, and B's signed relative change."""
    a_q1, a_med, a_q3 = summary(a)
    b_q1, b_med, b_q3 = summary(b)
    change = (b_med - a_med) / a_med if a_med else 0.0
    worse_by = change if better == "lower" else -change
    spread = max((a_q3 - a_q1) / a_med if a_med else 0.0,
                 (b_q3 - b_q1) / b_med if b_med else 0.0)
    if spread > bound:
        beats = all(x < y for x in b for y in a) if better == "lower" \
            else all(x > y for x in b for y in a)
        return ("better" if beats else "unresolved"), change
    if worse_by > bound:
        return "worse", change
    if worse_by < -bound:
        return "better", change
    return "unchanged", change


def fmt(values: list[float]) -> str:
    q1, median, q3 = summary(values)
    return f"{median:12.4f} [{q1:.4f}, {q3:.4f}]"


def compare(set_a: Path, set_b: Path, spec: dict) -> list[tuple]:
    """Rows ``(workload, metric, a_values, b_values, verdict, change)``."""
    (runs_a, _), (runs_b, _) = load_set(set_a), load_set(set_b)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = runs_a.get(workload, []), runs_b.get(workload, [])
        if not a and not b:
            continue
        if len(a) < MIN_RUNS or len(b) < MIN_RUNS:
            rows.append((workload, "*", [], [], "missing", 0.0))
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values_a = [r["metrics"][name]["value"] for r in a]
            values_b = [r["metrics"][name]["value"] for r in b]
            rows.append((workload, name, values_a, values_b,
                         *verdict(values_a, values_b, metric["better"],
                                  metric["bound"])))
        failed_a = [r["failed_ratio"] for r in a]
        failed_b = [r["failed_ratio"] for r in b]
        rows.append((workload, "failed_ratio", failed_a, failed_b,
                     "worse" if max(failed_b) > max(failed_a)
                     else "unchanged", 0.0))
        for name in sorted(set(a[0]["detail"]) & set(b[0]["detail"])):
            values_a = [r["detail"][name] for r in a]
            values_b = [r["detail"][name] for r in b]
            change = (statistics.median(values_b)
                      - statistics.median(values_a)) \
                / statistics.median(values_a)
            rows.append((workload, name, values_a, values_b, "info",
                         change))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("set_a", type=Path, help="baseline result directory")
    parser.add_argument("set_b", type=Path,
                        help="candidate result directory")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    for directory in (args.set_a, args.set_b):
        skipped = load_set(directory)[1]
        if skipped:
            print(f"{directory}: skipped {skipped} invalid run(s)")
    rows = compare(args.set_a, args.set_b, spec)
    print(f"{'workload':<10} {'metric':<24} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'change':>8}  verdict")
    for workload, name, a, b, outcome, change in rows:
        if outcome == "missing":
            print(f"{workload:<10} needs >= {MIN_RUNS} valid untraced runs "
                  "in each set")
            continue
        print(f"{workload:<10} {name:<24} {fmt(a):>32} {fmt(b):>32} "
              f"{change:+8.1%}  {outcome}")
    bad = [row for row in rows if row[4] in ("worse", "missing")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
