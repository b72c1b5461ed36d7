"""Declarative scenarios: a program, a workload, and typed assertions.

A :class:`Scenario` bundles everything needed to *verify* one workload
shape end-to-end: the IDLOG program text, a deterministic database
builder, the output predicates, and a list of assertions drawn from a
small typed vocabulary:

* :class:`ExactAnswer` — the canonical run's answer equals an expected
  relation (deterministic queries);
* :class:`AnswerSetEquals` — the *full* answer set (every perfect model)
  matches a predicate (small non-deterministic queries);
* :class:`AnswerInvariant` — a property every sampled answer must have
  (e.g. "the sample is a subset of ``emp``");
* :class:`GroupCardinality` — the exactly-k-per-group invariant of the
  paper's sampling queries, checked on every seeded draw;
* :class:`UniformSelection` — **statistical**: chi-square tolerance
  check that per-tuple selection counts across many seeds are uniform
  (see :mod:`repro.eval.stats`);
* :class:`ChoiceStability` — same-seed draws produce identical
  :class:`~repro.core.choicelog.ChoiceLog` digests, and a recorded log
  replays to the identical answer;
* :class:`PerfEnvelope` — the canonical run stays inside bounds on wall
  time and the deterministic :class:`~repro.datalog.seminaive.EvalStats`
  counters.

Assertions run against a :class:`ScenarioContext`, which lazily builds
and caches the database, the engine of one plan mode, the canonical
run, and the per-seed sample draws — so several assertions on one case
share evaluations instead of re-running them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable, Optional, Sequence

from ..core.choicelog import ChoiceLog
from ..core.engine import IdlogEngine
from ..datalog.database import Database
from ..datalog.engine import EvalResult
from ..errors import ReproError
from .report import AssertionResult
from .stats import selection_chi_square

#: The plan modes a suite is exercised across.
PLANS = ("greedy", "cost")

#: Default sampling seeds for statistical assertions (>= 20, per the
#: acceptance bar; the runner's quick profile trims this).
DEFAULT_SEEDS = tuple(range(40))


def _fmt_rows(rows: Iterable[tuple], limit: int = 4) -> str:
    rendered = sorted(map(str, rows))
    if not rendered:
        return "-"
    return ", ".join(rendered[:limit]) \
        + ("…" if len(rendered) > limit else "")


@dataclass(frozen=True)
class SelectionSpec:
    """How a scenario's sampled answers map back onto sampling blocks.

    The statistical and cardinality assertions both need the same two
    views: the *population* (block key -> items the sampler chose from)
    and, per evaluation, the *chosen* items.

    Attributes:
        blocks: db -> {block key: sequence of items}.
        selected: (EvalResult, db) -> the items that run selected.
        k: Selections per block (blocks with fewer than k items are
            selected entirely, matching the paper's semantics).
    """

    blocks: Callable[[Database], dict]
    selected: Callable[[EvalResult, Database], Iterable]
    k: int


class Assertion:
    """Base class: a named check against a :class:`ScenarioContext`.

    Attributes:
        name: Stable label used in reports.
        matrix: Run this assertion under *every* plan mode (cheap
            checks); assertions with ``matrix=False`` run under the
            primary plan only (statistical / perf checks whose cost
            scales with seeds).
        statistical: Subject to the runner's ``--seeds`` trimming and
            the ``statistical`` pytest marker.
    """

    name = "assertion"
    matrix = True
    statistical = False

    def check(self, ctx: "ScenarioContext") -> AssertionResult:
        raise NotImplementedError

    def _pass(self, detail: str = "", **measurements) -> AssertionResult:
        return AssertionResult(self.name, True, detail, measurements)

    def _fail(self, detail: str, **measurements) -> AssertionResult:
        return AssertionResult(self.name, False, detail, measurements)


@dataclass(frozen=True)
class Scenario:
    """One declarative verification scenario.

    Attributes:
        name: Unique suite-level identifier.
        description: One-line intent ("what semantics does this pin").
        program: IDLOG source text.
        workload: Zero-argument deterministic database builder (bake the
            workload seed into the closure so every run sees the same
            database; sampling seeds vary the *ID choices*, not the
            data).
        queries: Output predicates, primary first.
        assertions: The checks to run.
        seeds: Sampling seeds statistical assertions draw under.
        tags: Free-form labels; ``slow`` excludes a scenario from the
            quick profile.
    """

    name: str
    description: str
    program: str
    workload: Callable[[], Database]
    queries: tuple[str, ...]
    assertions: tuple[Assertion, ...]
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    tags: frozenset[str] = frozenset()

    @property
    def query(self) -> str:
        """The primary output predicate."""
        return self.queries[0]


class ScenarioContext:
    """Cached evaluation state for one (scenario, plan) case."""

    def __init__(self, scenario: Scenario, plan: str = "greedy",
                 seeds: Optional[Sequence[int]] = None) -> None:
        self.scenario = scenario
        self.plan_mode = plan
        self.seeds = tuple(seeds if seeds is not None else scenario.seeds)
        self._db: Optional[Database] = None
        self._engine: Optional[IdlogEngine] = None
        self._canonical: Optional[EvalResult] = None
        self._samples: dict[int, EvalResult] = {}

    @property
    def db(self) -> Database:
        if self._db is None:
            self._db = self.scenario.workload()
        return self._db

    @property
    def engine(self) -> IdlogEngine:
        if self._engine is None:
            self._engine = IdlogEngine(self.scenario.program,
                                       plan=self.plan_mode)
        return self._engine

    def canonical(self) -> EvalResult:
        """The run under the canonical (deterministic) assignment."""
        if self._canonical is None:
            self._canonical = self.engine.run(self.db)
        return self._canonical

    def sample(self, seed: int) -> EvalResult:
        """One seeded draw (cached per seed)."""
        if seed not in self._samples:
            self._samples[seed] = self.engine.one(self.db, seed=seed)
        return self._samples[seed]

    def record(self, seed: int) -> tuple[EvalResult, ChoiceLog]:
        """A fresh (uncached) seeded draw with its choice log."""
        log = ChoiceLog(meta={"scenario": self.scenario.name, "seed": seed})
        result = self.engine.one(self.db, seed=seed, record=log)
        return result, log


# -- exact / invariant assertions -------------------------------------------


class ExactAnswer(Assertion):
    """The canonical answer for one predicate equals an expected relation.

    ``expected`` is either an iterable of tuples or a callable
    ``db -> iterable of tuples`` (computed mirrors, e.g. a python
    transitive closure).
    """

    name = "exact-answer"

    def __init__(self, expected, pred: Optional[str] = None) -> None:
        self._expected = expected
        self._pred = pred

    def check(self, ctx: ScenarioContext) -> AssertionResult:
        pred = self._pred or ctx.scenario.query
        expected = self._expected(ctx.db) if callable(self._expected) \
            else self._expected
        expected = frozenset(tuple(row) for row in expected)
        found = ctx.canonical().tuples(pred)
        if found == expected:
            return self._pass(f"{pred}: {len(found)} tuple(s) as expected",
                              tuples=len(found))
        missing = expected - found
        extra = found - expected
        return self._fail(
            f"{pred}: {len(missing)} missing (e.g. {_fmt_rows(missing)}), "
            f"{len(extra)} extra (e.g. {_fmt_rows(extra)})",
            missing=len(missing), extra=len(extra))


class AnswerSetEquals(Assertion):
    """The FULL answer set matches a predicate over sets of answers.

    ``expected`` is a callable ``db -> collection of answers`` (each an
    iterable of tuples); enumeration is exact, so keep the input small.
    """

    name = "answer-set"
    matrix = False  # enumeration is exponential; once is enough

    def __init__(self, expected, pred: Optional[str] = None,
                 max_branches: int = 200_000) -> None:
        self._expected = expected
        self._pred = pred
        self._max_branches = max_branches

    def check(self, ctx: ScenarioContext) -> AssertionResult:
        pred = self._pred or ctx.scenario.query
        expected = frozenset(
            frozenset(tuple(row) for row in answer)
            for answer in self._expected(ctx.db))
        found = ctx.engine.answers(ctx.db, pred, self._max_branches)
        if found == expected:
            return self._pass(f"{pred}: {len(found)} answer(s) as expected",
                              answers=len(found))
        return self._fail(
            f"{pred}: {len(found)} answer(s), expected {len(expected)} "
            f"({len(found - expected)} unexpected, "
            f"{len(expected - found)} missing)",
            answers=len(found), expected=len(expected))


class AnswerInvariant(Assertion):
    """A property every run must satisfy (canonical + every seeded draw).

    ``predicate(result, db)`` returns None when the invariant holds, or
    a failure message.
    """

    def __init__(self, label: str,
                 predicate: Callable[[EvalResult, Database],
                                     Optional[str]]) -> None:
        self.name = f"invariant:{label}"
        self._predicate = predicate

    def check(self, ctx: ScenarioContext) -> AssertionResult:
        failure = self._predicate(ctx.canonical(), ctx.db)
        if failure:
            return self._fail(f"canonical run: {failure}")
        checked = 1
        for seed in ctx.seeds:
            failure = self._predicate(ctx.sample(seed), ctx.db)
            if failure:
                return self._fail(f"seed {seed}: {failure}", seed=seed)
            checked += 1
        return self._pass(f"held on {checked} run(s)", runs=checked)


class GroupCardinality(Assertion):
    """Every draw selects exactly ``min(k, |block|)`` items per block."""

    name = "group-cardinality"

    def __init__(self, spec: SelectionSpec) -> None:
        self._spec = spec

    def _check_one(self, result: EvalResult, db: Database,
                   blocks: dict) -> Optional[str]:
        chosen = list(self._spec.selected(result, db))
        if len(set(chosen)) != len(chosen):
            return "selected items are not distinct"
        by_block: dict = {key: 0 for key in blocks}
        membership = {item: key for key, items in blocks.items()
                      for item in items}
        for item in chosen:
            key = membership.get(item)
            if key is None:
                return f"selected item {item!r} is outside every block"
            by_block[key] += 1
        for key, items in blocks.items():
            want = min(self._spec.k, len(items))
            if by_block[key] != want:
                return (f"block {key!r}: selected {by_block[key]} "
                        f"item(s), expected {want}")
        return None

    def check(self, ctx: ScenarioContext) -> AssertionResult:
        blocks = self._spec.blocks(ctx.db)
        failure = self._check_one(ctx.canonical(), ctx.db, blocks)
        if failure:
            return self._fail(f"canonical run: {failure}")
        for seed in ctx.seeds:
            failure = self._check_one(ctx.sample(seed), ctx.db, blocks)
            if failure:
                return self._fail(f"seed {seed}: {failure}", seed=seed)
        return self._pass(
            f"exactly-k held over {len(blocks)} block(s) × "
            f"{len(ctx.seeds) + 1} run(s)",
            blocks=len(blocks), runs=len(ctx.seeds) + 1, k=self._spec.k)


# -- statistical assertions --------------------------------------------------


class UniformSelection(Assertion):
    """Chi-square tolerance check that sampling is uniform across seeds.

    Accumulates per-item selection counts over the scenario's seeds and
    rejects when the finite-population-corrected Pearson statistic is
    implausible under uniformity (``p < alpha``).  ``alpha`` defaults to
    1e-3: across a whole suite run the false-alarm rate stays well under
    a percent, while grossly biased samplers (e.g. a constant assignment)
    land at p ~ 0.
    """

    name = "uniform-selection"
    matrix = False
    statistical = True

    def __init__(self, spec: SelectionSpec, alpha: float = 1e-3,
                 min_seeds: int = 20) -> None:
        self._spec = spec
        self._alpha = alpha
        self._min_seeds = min_seeds

    def check(self, ctx: ScenarioContext) -> AssertionResult:
        if len(ctx.seeds) < self._min_seeds:
            raise ReproError(
                f"uniform-selection needs >= {self._min_seeds} seeds, "
                f"got {len(ctx.seeds)}")
        counts: dict = {}
        for seed in ctx.seeds:
            for item in self._spec.selected(ctx.sample(seed), ctx.db):
                counts[item] = counts.get(item, 0) + 1
        blocks = self._spec.blocks(ctx.db)
        result = selection_chi_square(counts, blocks, self._spec.k,
                                      trials=len(ctx.seeds))
        measurements = result.as_dict()
        measurements["alpha"] = self._alpha
        if result.uniform_at(self._alpha):
            return self._pass(
                f"uniform: chi2={result.statistic:.2f} df={result.df} "
                f"p={result.p_value:.4f} over {result.trials} seed(s)",
                **measurements)
        return self._fail(
            f"uniformity rejected: chi2={result.statistic:.2f} "
            f"df={result.df} p={result.p_value:.3g} < alpha={self._alpha}",
            **measurements)


def _choice_space(log: ChoiceLog) -> int:
    """Number of distinct ordering combinations a log's run drew from.

    Per recorded block: ``P(b, L)`` falling-factorial orderings where
    ``b`` is the block size and ``L`` the recorded (possibly
    tid-limited) ordering length.  Capped at 10**9 — callers only need
    "is this space big".
    """
    total = 1
    for rec in log:
        ways = 1
        for i in range(len(rec.ordering)):
            ways *= rec.block_size - i
        total *= max(ways, 1)
        if total >= 10 ** 9:
            return 10 ** 9
    return total


class ChoiceStability(Assertion):
    """Cross-seed reproducibility via :class:`ChoiceLog` digests.

    Three guarantees, per probe seed: (1) two draws under the same seed
    record identical choice logs; (2) replaying the recorded log
    reproduces the identical answer relations; (3) at least two distinct
    seeds exist whose logs differ — i.e. the sampler is actually
    sampling (skipped when the program has no ID-atoms).
    """

    name = "choice-stability"
    matrix = False

    def __init__(self, probe_seeds: tuple[int, ...] = (0, 1, 2)) -> None:
        self._probe_seeds = probe_seeds

    def check(self, ctx: ScenarioContext) -> AssertionResult:
        digests = {}
        for seed in self._probe_seeds:
            result_a, log_a = ctx.record(seed)
            _, log_b = ctx.record(seed)
            da, db_ = log_a.digest(), log_b.digest()
            if da != db_:
                return self._fail(
                    f"seed {seed}: two same-seed draws recorded different "
                    f"choice logs ({da} vs {db_})", seed=seed)
            replayed = ctx.engine.replay(ctx.db, log_a)
            for pred in ctx.scenario.queries:
                if replayed.tuples(pred) != result_a.tuples(pred):
                    return self._fail(
                        f"seed {seed}: replay of the recorded log gave a "
                        f"different {pred} relation", seed=seed, pred=pred)
            digests[seed] = da
        if not ctx.engine.program.has_id_atoms():
            return self._pass("no ID-atoms; stability trivially holds",
                              digests=digests)
        if len(self._probe_seeds) > 1 and len(set(digests.values())) == 1 \
                and _choice_space(log_a) >= 1000:
            # All probe seeds chose identically.  Only flag it when the
            # space of possible orderings is large enough that agreement
            # by chance is negligible (< 1e-6 for two extra seeds).
            return self._fail(
                f"{len(self._probe_seeds)} distinct seeds all drew "
                "identical ID choices — the sampler looks constant",
                digests=digests)
        return self._pass(
            f"replay-stable over seeds {list(self._probe_seeds)}; "
            f"{len(set(digests.values()))} distinct choice digest(s)",
            digests=digests)


class PerfEnvelope(Assertion):
    """The canonical run stays inside wall/counter bounds.

    Counter bounds (``max_firings``, ``max_derived``) are deterministic
    and therefore exact regressions gates; the wall bound is a generous
    backstop against pathological blowups, not a benchmark.
    """

    name = "perf-envelope"
    matrix = False

    def __init__(self, max_wall_s: Optional[float] = None,
                 max_firings: Optional[int] = None,
                 max_derived: Optional[int] = None) -> None:
        self._max_wall_s = max_wall_s
        self._max_firings = max_firings
        self._max_derived = max_derived

    def check(self, ctx: ScenarioContext) -> AssertionResult:
        start = perf_counter()
        fresh = ctx.engine.run(ctx.db)  # timed evaluation, not the cache
        wall = perf_counter() - start
        stats = fresh.stats
        measurements = {"wall_s": round(wall, 6),
                        "firings": stats.firings,
                        "derived": stats.total_derived}
        if self._max_wall_s is not None and wall > self._max_wall_s:
            return self._fail(
                f"wall {wall:.3f}s exceeds envelope {self._max_wall_s}s",
                **measurements)
        if self._max_firings is not None \
                and stats.firings > self._max_firings:
            return self._fail(
                f"{stats.firings} firings exceed envelope "
                f"{self._max_firings}", **measurements)
        if self._max_derived is not None \
                and stats.total_derived > self._max_derived:
            return self._fail(
                f"{stats.total_derived} derived tuples exceed envelope "
                f"{self._max_derived}", **measurements)
        return self._pass(
            f"wall={wall:.3f}s firings={stats.firings} "
            f"derived={stats.total_derived}", **measurements)


__all__ = [
    "PLANS", "DEFAULT_SEEDS", "Assertion", "AnswerInvariant",
    "AnswerSetEquals", "ChoiceStability", "ExactAnswer", "GroupCardinality",
    "PerfEnvelope", "Scenario", "ScenarioContext", "SelectionSpec",
    "UniformSelection",
]
