#!/usr/bin/env python
"""Compare two benchmark trajectory files for perf/answer regressions.

``run_all.py`` writes one ``BENCH_*.json`` per PR; this comparator turns
the committed sequence into a regression gate::

    python benchmarks/compare.py BENCH_pr3.json BENCH_pr4.json

For every kernel x mode present in the baseline it checks, against the
candidate:

* **answers** — ``answer_digest`` must match exactly.  Kernels in
  ``NONDETERMINISTIC`` get hard equality too whenever the candidate
  record is ``replay_pinned`` (the candidate run replayed the baseline's
  ID-choice log via ``run_all.py --replay-from``, making its digest
  deterministic).  Only when no choice log was replayed does the
  documented fallback apply: the digest is exempt (seeded sampling
  digests depend on set-iteration order) and a note flags the fallback;
  ``answer_size`` is still enforced.  ``--strict-digests`` removes the
  fallback entirely.
* **counters** — ``probes``, ``iterations``, ``derived``, ``firings``,
  ``pipelines_compiled``, ``pipelines_reused`` and ``answer_size`` must
  be exactly equal.  These are set-iteration-order independent, so they
  are stable across machines and hash seeds; any drift is a real
  behavior change.  An *intended* change (e.g. a PR that makes a kernel
  start compiling pipelines it previously could not) is accepted
  explicitly with ``--accept KERNEL:COUNTER``, which downgrades that
  counter's drift to a note.
* **coverage** — a kernel or mode present in the baseline but missing
  from the candidate is a regression; extras in the candidate are noted.
* **memory** — when both reports carry a ``memory`` section for the same
  scenario, the candidate's resident ``bytes_per_tuple`` may exceed the
  baseline's by at most ``--memory-tolerance`` (default 10%).  This is
  machine-independent, so the ceiling is tight.
* **plan quality** — for every kernel/mode record where both sides
  carry a ``plan_quality`` block (the profiled ``batch/greedy`` pass),
  the candidate's median q-error may exceed the baseline's by at most
  ``--q-error-tolerance`` (default 2.0x).  The q-error compares the
  planner's cardinality estimates against the executor's actuals, so a
  worsened median means the cost model drifted from reality — a planner
  or statistics regression even when wall time hides it.

Wall time is not compared: every quick kernel runs in a few
milliseconds, well inside any cross-machine tolerance, so the timing gate
is the end-to-end benchmark (``benchmarks/e2e``).

Comparing a ``--quick`` file against a full-size one is refused (exit 2):
the counters measure different inputs.  Exit 0 = clean, 1 = regression.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Counter fields that must be exactly equal between trajectories.
HARD_KEYS = ("answer_size", "probes", "iterations", "derived", "firings",
             "pipelines_compiled", "pipelines_reused")

#: Kernels whose answer_digest may legitimately differ between versions
#: *when no choice log was replayed*: seeded one() sampling digests
#: depend on set-iteration order, which is not part of the compatibility
#: contract (the *size* still is).  A candidate produced with
#: ``run_all.py --replay-from`` marks these records ``replay_pinned``,
#: which upgrades them to hard digest equality.
NONDETERMINISTIC = frozenset({"bench_e4_sampling_one"})


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def compare_record(kernel: str, mode: str, base: dict, cand: dict,
                   strict_digests: bool,
                   accepted: frozenset = frozenset(),
                   notes: list | None = None) -> list[str]:
    """Problems (possibly empty) for one kernel/mode record pair."""
    problems = []
    where = f"{kernel} [{mode}]"
    digest_exempt = (kernel in NONDETERMINISTIC and not strict_digests
                     and not cand.get("replay_pinned"))
    if base.get("answer_digest") != cand.get("answer_digest") \
            and not digest_exempt:
        pinned = " despite replaying the baseline's choice log" \
            if cand.get("replay_pinned") else ""
        problems.append(
            f"{where}: answer_digest {base.get('answer_digest')} -> "
            f"{cand.get('answer_digest')} (answers changed{pinned})")
    for key in HARD_KEYS:
        if key in base and base[key] is not None:
            if cand.get(key) != base[key]:
                if (kernel, key) in accepted:
                    if notes is not None:
                        notes.append(
                            f"{where}: {key} {base[key]} -> "
                            f"{cand.get(key)} (accepted via --accept)")
                    continue
                problems.append(
                    f"{where}: {key} {base[key]} -> {cand.get(key)} "
                    f"(must be exactly equal)")
    return problems


def compare_memory(baseline: dict, candidate: dict,
                   memory_tolerance: float) -> tuple[list[str], list[str]]:
    """Bytes-per-tuple ceiling for the ``memory`` report sections.

    Older trajectory files (pre-PR 7) have no ``memory`` section; the
    gate only engages when both sides measured the same scenario.
    """
    problems: list[str] = []
    notes: list[str] = []
    base, cand = baseline.get("memory"), candidate.get("memory")
    if not base or not cand:
        if base and not cand:
            problems.append("memory: baseline has a memory section but "
                            "candidate does not")
        return problems, notes
    if base.get("scenario") != cand.get("scenario"):
        notes.append(f"memory: scenario changed {base.get('scenario')} -> "
                     f"{cand.get('scenario')}; ceiling not applied")
        return problems, notes
    base_bpt, cand_bpt = base.get("bytes_per_tuple"), \
        cand.get("bytes_per_tuple")
    if base_bpt and cand_bpt:
        limit = base_bpt * (1.0 + memory_tolerance)
        if cand_bpt > limit:
            problems.append(
                f"memory: bytes_per_tuple {base_bpt} -> {cand_bpt} "
                f"(limit {limit:.2f} = +{memory_tolerance:.0%})")
        else:
            notes.append(f"memory: bytes_per_tuple {base_bpt} -> "
                         f"{cand_bpt} (limit {limit:.2f})")
    return problems, notes


def compare_plan_quality(baseline: dict, candidate: dict,
                         q_error_tolerance: float
                         ) -> tuple[list[str], list[str]]:
    """Median q-error ceiling for the per-kernel ``plan_quality`` blocks.

    Trajectory files before PR 10 carry no ``plan_quality`` blocks; the
    gate engages per kernel/mode only when the baseline measured one.
    A baseline block with no candidate counterpart is a coverage
    regression (estimate capture silently lost), not a tolerated gap.
    """
    problems: list[str] = []
    notes: list[str] = []
    gated = 0
    base_benches = baseline.get("benchmarks", {})
    cand_benches = candidate.get("benchmarks", {})
    for kernel in sorted(base_benches):
        cand_modes = cand_benches.get(kernel, {})
        for mode, base_rec in sorted(base_benches[kernel].items()):
            base_q = (base_rec or {}).get("plan_quality")
            if not base_q:
                continue
            where = f"{kernel} [{mode}]"
            cand_q = (cand_modes.get(mode) or {}).get("plan_quality")
            if not cand_q:
                if kernel in cand_benches and mode in cand_modes:
                    problems.append(
                        f"{where}: baseline has a plan_quality block but "
                        "candidate does not (estimate capture lost)")
                continue  # missing kernel/mode already reported elsewhere
            base_med = base_q.get("median_q_error")
            cand_med = cand_q.get("median_q_error")
            if base_med is None or cand_med is None:
                continue
            gated += 1
            limit = base_med * q_error_tolerance
            if cand_med > limit:
                problems.append(
                    f"{where}: median q-error {base_med} -> {cand_med} "
                    f"(limit {limit:.3f} = {q_error_tolerance}x) — "
                    "cardinality estimates drifted from executed actuals")
    if gated:
        notes.append(f"plan quality: median q-error gated on {gated} "
                     f"record(s) at {q_error_tolerance}x")
    return problems, notes


def compare(baseline: dict, candidate: dict,
            strict_digests: bool = False,
            memory_tolerance: float = 0.10,
            q_error_tolerance: float = 2.0,
            accepted: frozenset = frozenset()
            ) -> tuple[list[str], list[str]]:
    """Returns ``(problems, notes)`` for two loaded trajectory reports."""
    problems, notes = compare_memory(baseline, candidate, memory_tolerance)
    quality_problems, quality_notes = compare_plan_quality(
        baseline, candidate, q_error_tolerance)
    problems.extend(quality_problems)
    notes.extend(quality_notes)
    base_benches = baseline.get("benchmarks", {})
    cand_benches = candidate.get("benchmarks", {})
    for kernel in sorted(base_benches):
        if kernel not in cand_benches:
            problems.append(f"{kernel}: present in baseline but missing "
                            "from candidate")
            continue
        base_modes = base_benches[kernel]
        cand_modes = cand_benches[kernel]
        for mode in sorted(base_modes):
            if mode not in cand_modes:
                problems.append(f"{kernel}: mode {mode} missing from "
                                "candidate")
                continue
            problems.extend(compare_record(
                kernel, mode, base_modes[mode], cand_modes[mode],
                strict_digests, accepted=accepted, notes=notes))
        for mode in sorted(set(cand_modes) - set(base_modes)):
            notes.append(f"{kernel}: new mode {mode} in candidate")
        if kernel in NONDETERMINISTIC and not strict_digests \
                and not any(cand_modes[m].get("replay_pinned")
                            for m in cand_modes):
            notes.append(
                f"{kernel}: digest exemption fallback in effect — "
                "candidate did not replay a choice log (re-run with "
                "run_all.py --replay-from to pin it)")
    for kernel in sorted(set(cand_benches) - set(base_benches)):
        notes.append(f"{kernel}: new kernel in candidate")
    return problems, notes


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("candidate", help="candidate BENCH_*.json")
    parser.add_argument("--strict-digests", action="store_true",
                        help="enforce answer_digest equality even for the "
                             "NONDETERMINISTIC kernels")
    parser.add_argument("--memory-tolerance", type=float, default=0.10,
                        help="allowed relative bytes_per_tuple growth in "
                             "the memory section (default 0.10 = 10%%)")
    parser.add_argument("--q-error-tolerance", type=float, default=2.0,
                        help="candidate median q-error may be at most "
                             "this multiple of the baseline's per "
                             "plan_quality block (default 2.0)")
    parser.add_argument("--accept", action="append", default=[],
                        metavar="KERNEL:COUNTER",
                        help="accept an intended counter change for one "
                             "kernel (all modes), e.g. "
                             "'bench_a4_incremental:pipelines_compiled'; "
                             "reported as a note instead of a problem. "
                             "Repeatable.")
    args = parser.parse_args(argv)
    accepted = frozenset(
        tuple(item.split(":", 1)) for item in args.accept)
    if any(len(pair) != 2 for pair in accepted):
        print("error: --accept takes KERNEL:COUNTER", file=sys.stderr)
        return 2

    baseline = load(args.baseline)
    candidate = load(args.candidate)
    if bool(baseline.get("quick")) != bool(candidate.get("quick")):
        print(f"error: cannot compare quick={baseline.get('quick')} "
              f"baseline against quick={candidate.get('quick')} candidate "
              "(different input sizes)", file=sys.stderr)
        return 2

    problems, notes = compare(baseline, candidate,
                              strict_digests=args.strict_digests,
                              memory_tolerance=args.memory_tolerance,
                              q_error_tolerance=args.q_error_tolerance,
                              accepted=accepted)
    kernels = len(baseline.get("benchmarks", {}))
    for note in notes:
        print(f"note: {note}", file=out)
    if problems:
        print(f"REGRESSION: {len(problems)} problem(s) comparing "
              f"{args.candidate} against {args.baseline}:", file=out)
        for problem in problems:
            print(f"  {problem}", file=out)
        return 1
    print(f"ok: {args.candidate} matches {args.baseline} "
          f"({kernels} kernel(s))", file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
