"""Structured results of a scenario run: assertions, cases, reports.

Mirrors the shape of the repository's other serialized observability
artifacts (``BENCH_*.json``, choice logs, metric snapshots): every
report is stamped with :data:`~repro.datalog.trace.SCHEMA_VERSION`, is
valid JSON even when the run died halfway (the runner flushes partial
reports in a ``finally:``), and carries enough measurement payload to
diagnose a failure without re-running.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Optional, TextIO, Union

from ..datalog.trace import SCHEMA_VERSION
from ..errors import ReproError

#: ``kind`` field distinguishing eval reports from the other JSON
#: artifacts (bench trajectories, metric snapshots) in an artifact dir.
REPORT_KIND = "eval_report"


@dataclass(frozen=True)
class AssertionResult:
    """Outcome of one assertion on one (scenario, plan) case.

    Attributes:
        name: The assertion's label, e.g. ``uniform-selection``.
        passed: Verdict.
        detail: Human-readable explanation (failure cause, or a short
            confirmation for passes).
        measurements: JSON-ready numbers backing the verdict (chi-square
            statistic, per-group counts, wall seconds, ...).
    """

    name: str
    passed: bool
    detail: str = ""
    measurements: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "detail": self.detail,
                "measurements": dict(self.measurements)}


@dataclass
class CaseResult:
    """One scenario evaluated under one plan mode.

    ``plan="differential"`` marks the synthetic case the runner emits for
    the differential check against the reference model.
    """

    scenario: str
    plan: str
    assertions: list[AssertionResult] = field(default_factory=list)
    wall_s: float = 0.0
    error: Optional[str] = None

    @property
    def passed(self) -> bool:
        """True when no assertion failed and the case did not error."""
        return self.error is None and all(a.passed for a in self.assertions)

    def as_dict(self) -> dict:
        return {"scenario": self.scenario, "plan": self.plan,
                "passed": self.passed,
                "wall_s": round(self.wall_s, 6), "error": self.error,
                "assertions": [a.as_dict() for a in self.assertions]}


class EvalReport:
    """The accumulating result set of one :class:`ScenarioRunner` run.

    Cases are appended as they finish, so serializing at any moment
    yields a valid (partial) report; ``complete`` flips to True only when
    the runner reached the end of the suite.
    """

    def __init__(self, meta: Optional[Mapping] = None) -> None:
        self.meta: dict = dict(meta or {})
        self.cases: list[CaseResult] = []
        self.complete = False

    def add(self, case: CaseResult) -> None:
        self.cases.append(case)

    @property
    def passed(self) -> bool:
        """True when every recorded case passed (and none is pending)."""
        return all(case.passed for case in self.cases)

    def summary(self) -> dict:
        """Totals over the recorded cases (JSON-ready)."""
        failed = [case for case in self.cases if not case.passed]
        return {
            "cases": len(self.cases),
            "passed": len(self.cases) - len(failed),
            "failed": len(failed),
            "scenarios": len({case.scenario for case in self.cases}),
            "assertions": sum(len(case.assertions) for case in self.cases),
            "wall_s": round(sum(case.wall_s for case in self.cases), 6),
        }

    def failures(self) -> list[tuple[CaseResult, AssertionResult]]:
        """Every failing (case, assertion) pair, plus errored cases."""
        out = []
        for case in self.cases:
            for assertion in case.assertions:
                if not assertion.passed:
                    out.append((case, assertion))
            if case.error is not None:
                out.append((case, AssertionResult(
                    "case-error", False, case.error)))
        return out

    def to_jsonable(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "kind": REPORT_KIND,
            "meta": dict(self.meta),
            "complete": self.complete,
            "summary": self.summary(),
            "cases": [case.as_dict() for case in self.cases],
        }

    def save(self, sink: Union[str, TextIO]) -> None:
        """Write the report as JSON (valid even when partial)."""
        text = json.dumps(self.to_jsonable(), indent=2, sort_keys=True)
        if isinstance(sink, str):
            with open(sink, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        else:
            sink.write(text + "\n")

    @classmethod
    def load(cls, source: Union[str, TextIO]) -> "EvalReport":
        """Read a saved report back (schema-checked)."""
        if isinstance(source, str):
            with open(source, encoding="utf-8") as handle:
                data = json.load(handle)
        else:
            data = json.load(source)
        if data.get("schema") != SCHEMA_VERSION:
            raise ReproError(
                f"eval report has schema {data.get('schema')}; this build "
                f"reads schema {SCHEMA_VERSION}")
        if data.get("kind") != REPORT_KIND:
            raise ReproError(
                f"not an eval report: kind={data.get('kind')!r}")
        report = cls(meta=data.get("meta"))
        report.complete = bool(data.get("complete", False))
        for entry in data.get("cases", ()):
            case = CaseResult(
                scenario=entry["scenario"], plan=entry["plan"],
                wall_s=entry.get("wall_s", 0.0), error=entry.get("error"))
            for a in entry.get("assertions", ()):
                case.assertions.append(AssertionResult(
                    name=a["name"], passed=a["passed"],
                    detail=a.get("detail", ""),
                    measurements=dict(a.get("measurements", {}))))
            report.add(case)
        return report


def format_report(report: EvalReport, width: int = 72) -> str:
    """Text rendering: one line per case, failure details, totals.

    Same presentation family as
    :func:`~repro.datalog.trace.format_profile` and
    :func:`~repro.core.choicelog.format_divergence`.
    """
    lines = ["EVAL REPORT"]
    for case in report.cases:
        verdict = "ok" if case.passed else "FAIL"
        label = f"{case.scenario} [{case.plan}]"
        n = len(case.assertions)
        lines.append(f"  {label.ljust(width - 22)[:width - 22]} "
                     f"{n:3d} assertion(s)  {verdict}")
    for case, assertion in report.failures():
        lines.append(f"  FAIL {case.scenario} [{case.plan}] "
                     f"{assertion.name}: {assertion.detail}")
    s = report.summary()
    status = "PASS" if report.passed else "FAIL"
    if not report.complete:
        status += " (incomplete run)"
    lines.append(
        f"total: {s['cases']} case(s) over {s['scenarios']} scenario(s), "
        f"{s['assertions']} assertion(s), {s['failed']} failure(s), "
        f"{s['wall_s']:.2f}s — {status}")
    return "\n".join(lines)


__all__ = ["REPORT_KIND", "AssertionResult", "CaseResult", "EvalReport",
           "format_report"]
