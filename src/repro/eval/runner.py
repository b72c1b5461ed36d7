"""The scenario runner: suites × the plan modes → EvalReports.

:class:`ScenarioRunner` executes every scenario of a suite under every
requested plan mode, partitioning the assertion work the way the
assertions themselves declare it:

* ``matrix=True`` assertions (exact answers, invariants, cardinality)
  run under every plan — they are cheap and catch plan-specific bugs;
* ``matrix=False`` assertions (chi-square uniformity, choice stability,
  perf envelopes) run once, under the primary plan, because their cost
  scales with the seed count;
* a synthetic **differential** case per scenario cross-checks every plan
  against the reference model (:func:`repro.testing.oracle_model`):
  canonical answers must equal the oracle's, and for non-deterministic
  programs one recorded :class:`~repro.core.choicelog.ChoiceLog` must
  replay to identical answers under every plan and through the oracle
  (digest-checked by the replay machinery itself).

Reports flush to disk inside a ``finally:`` — a suite that dies halfway
still leaves a valid, schema-stamped partial report, matching the
``run --trace`` / ``--metrics`` contract (PR 3/4).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Optional, Sequence, TextIO, Union

from ..datalog.planner import check_plan_mode
from ..errors import ReproError
from ..testing import oracle_model
from .report import AssertionResult, CaseResult, EvalReport
from .scenario import PLANS, Scenario, ScenarioContext

#: Seeds used per statistical scenario in the quick profile.
QUICK_SEEDS = 20


class ScenarioRunner:
    """Executes a scenario suite and accumulates an :class:`EvalReport`.

    Args:
        scenarios: The suite.
        plans: Planner modes to exercise (default both).
        seeds: Override the per-scenario sampling seeds (e.g. trimmed
            for a quick profile); None keeps each scenario's own.
        differential: Emit the differential case against the oracle.
        quick: Quick profile — skip scenarios tagged ``slow`` and trim
            seeds to :data:`QUICK_SEEDS` (unless ``seeds`` overrides).
        meta: Extra report metadata (suite name, CI job, ...).
        progress: Optional callback ``(message: str) -> None`` invoked
            as cases finish (the CLI points this at stderr).
    """

    def __init__(self, scenarios: Sequence[Scenario],
                 plans: Sequence[str] = PLANS,
                 seeds: Optional[Sequence[int]] = None,
                 differential: bool = True,
                 quick: bool = False,
                 meta: Optional[dict] = None,
                 progress: Optional[Callable[[str], None]] = None) -> None:
        names = [s.name for s in scenarios]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ReproError(
                f"duplicate scenario name(s): {sorted(duplicates)}")
        self.scenarios = list(scenarios)
        self.plans = tuple(check_plan_mode(p) for p in plans)
        self.differential = differential
        self.quick = quick
        if seeds is not None:
            self.seeds: Optional[tuple[int, ...]] = tuple(seeds)
        elif quick:
            self.seeds = tuple(range(QUICK_SEEDS))
        else:
            self.seeds = None
        self.meta = dict(meta or {})
        self._progress = progress

    # -- suite execution ---------------------------------------------------

    def run(self, out: Union[str, TextIO, None] = None) -> EvalReport:
        """Run the suite; always flush a (possibly partial) report.

        Args:
            out: Report sink (path or file object).  Written in a
                ``finally:`` so a crash mid-suite still leaves a valid
                partial JSON report on disk.
        """
        report = EvalReport(meta={
            **self.meta,
            "plans": list(self.plans),
            "quick": self.quick,
            "scenarios": [s.name for s in self._selected()],
        })
        try:
            for scenario in self._selected():
                self._run_scenario(scenario, report)
            report.complete = True
        finally:
            if out is not None:
                report.save(out)
        return report

    def _selected(self) -> list[Scenario]:
        if not self.quick:
            return self.scenarios
        return [s for s in self.scenarios if "slow" not in s.tags]

    def _note(self, message: str) -> None:
        if self._progress is not None:
            self._progress(message)

    def _seeds_for(self, scenario: Scenario) -> tuple[int, ...]:
        return self.seeds if self.seeds is not None else scenario.seeds

    def _run_scenario(self, scenario: Scenario, report: EvalReport) -> None:
        contexts: dict[str, ScenarioContext] = {}
        for plan in self.plans:
            ctx = ScenarioContext(scenario, plan=plan,
                                  seeds=self._seeds_for(scenario))
            contexts[plan] = ctx
            is_primary = plan == self.plans[0]
            assertions = [
                a for a in scenario.assertions
                if a.matrix or is_primary]
            report.add(self._run_case(scenario, ctx, assertions))
            self._note(f"{scenario.name} [{plan}] done")
        if self.differential:
            report.add(self._differential_case(scenario, contexts))
            self._note(f"{scenario.name} [differential] done")

    def _run_case(self, scenario: Scenario, ctx: ScenarioContext,
                  assertions: Sequence) -> CaseResult:
        case = CaseResult(scenario=scenario.name, plan=ctx.plan_mode)
        start = perf_counter()
        try:
            for assertion in assertions:
                case.assertions.append(assertion.check(ctx))
        except Exception as exc:  # noqa: BLE001 — reported, not swallowed
            case.error = f"{type(exc).__name__}: {exc}"
        case.wall_s = perf_counter() - start
        return case

    # -- the differential check against the oracle -------------------------

    def _differential_case(self, scenario: Scenario,
                           contexts: dict) -> CaseResult:
        case = CaseResult(scenario=scenario.name, plan="differential")
        start = perf_counter()
        try:
            case.assertions.append(
                self._check_canonical_agreement(scenario, contexts))
            program_has_ids = next(
                iter(contexts.values())).engine.program.has_id_atoms()
            if program_has_ids:
                case.assertions.append(
                    self._check_replay_agreement(scenario, contexts))
        except Exception as exc:  # noqa: BLE001
            case.error = f"{type(exc).__name__}: {exc}"
        case.wall_s = perf_counter() - start
        return case

    def _check_canonical_agreement(self, scenario: Scenario,
                                   contexts: dict) -> AssertionResult:
        """Every plan's canonical answers must equal the oracle's."""
        any_ctx = next(iter(contexts.values()))
        oracle, _ = oracle_model(any_ctx.engine.program, any_ctx.db)
        for plan, ctx in contexts.items():
            result = ctx.canonical()
            for pred in scenario.queries:
                expected = oracle.relation(pred).frozen()
                if result.tuples(pred) != expected:
                    delta = len(result.tuples(pred) ^ expected)
                    return AssertionResult(
                        "differential-canonical", False,
                        f"{plan} disagrees with the oracle on {pred} "
                        f"({delta} differing tuple(s))",
                        {"plan": plan, "pred": pred})
        return AssertionResult(
            "differential-canonical", True,
            f"{len(contexts)} plan(s) agree with the oracle on "
            f"{len(scenario.queries)} predicate(s)",
            {"plans": len(contexts)})

    def _check_replay_agreement(self, scenario: Scenario,
                                contexts: dict) -> AssertionResult:
        """One recorded log must replay identically everywhere.

        The replay provider digest-checks every block, so a plan (or the
        oracle) that reshapes an ID-relation's base fails loudly rather
        than silently diverging.
        """
        seeds = self._seeds_for(scenario)
        seed = seeds[0] if seeds else 0
        primary_ctx = contexts[self.plans[0]]
        recorded, log = primary_ctx.record(seed)
        digest = log.digest()
        replays = [(plan, ctx.engine.replay(ctx.db, log).database)
                   for plan, ctx in contexts.items()]
        replays.append(("oracle", oracle_model(
            primary_ctx.engine.program, primary_ctx.db, log)[0]))
        for who, model in replays:
            for pred in scenario.queries:
                if model.relation(pred).frozen() != recorded.tuples(pred):
                    return AssertionResult(
                        "differential-replay", False,
                        f"{who} replayed the recorded choice log to a "
                        f"different {pred} relation",
                        {"plan": who, "pred": pred, "log_digest": digest})
        return AssertionResult(
            "differential-replay", True,
            f"choice log {digest} replays identically under "
            f"{len(contexts)} plan(s) and the oracle",
            {"plans": len(contexts), "log_digest": digest, "seed": seed})


def run_suite(scenarios: Sequence[Scenario],
              out: Union[str, TextIO, None] = None,
              **kwargs) -> EvalReport:
    """One-call convenience: build a runner and run it."""
    return ScenarioRunner(scenarios, **kwargs).run(out)


__all__ = ["QUICK_SEEDS", "ScenarioRunner", "run_suite"]
