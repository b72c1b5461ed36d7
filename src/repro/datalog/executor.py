"""Batch-compiled join execution: the one rule-firing path.

Every rule firing in production runs here — the semi-naive fixpoint, DRed
maintenance, counting, provenance, the DL/DLV/stable-model interpreters
and IDLOG model checking.  Each *planned* literal order (the order still
comes from :class:`~repro.datalog.planner.ClausePlanner` or
:func:`~repro.datalog.safety.order_body` — planning and execution stay
separate concerns) compiles into a pipeline of set-oriented operators over
*binding batches*:

* a **batch** is a fixed variable layout ``tuple[Var, ...]`` plus a list of
  positional binding rows — no per-row dicts;
* each positive relation literal becomes one **hash join**: the coded index
  on the literal's bound positions is built (or reused, via
  :meth:`Relation.index_on_coded`) once, then probed for the whole incoming
  batch;
* negated literals and builtins become **batch filters** (anti-join /
  solver calls per row);
* for a clause, the head becomes a single **projection** producing the
  derived tuples (:meth:`BatchExecutor.execute_coded`); without one,
  :meth:`BatchExecutor.execute_bindings` hands back the bindings
  themselves, decoded, optionally seeded with bound variables.

Since the columnar-storage rewrite the pipelines run over **constant
codes** end-to-end (see :mod:`repro.datalog.pool`): batch rows are tuples
of int codes, clause constants are encoded once at compile time (the pool
is append-only, so baking codes into closures is safe), joins probe
int-keyed indexes and extend rows straight out of the ``array('q')``
columns, and anti-joins test coded membership — no Python-object hashing
or equality anywhere on the hot path.  Only builtins decode: solvers
compute over real values (arithmetic, comparisons), so their inputs are
decoded per row and their outputs re-encoded.  Head rows leave
:meth:`BatchExecutor.execute_coded` coded; bindings leave
:meth:`BatchExecutor.execute_bindings` decoded.

Semi-naive deltas need no special machinery: a relation override at a
position is just a different build side for that join.

**Probe accounting** intentionally matches the tuple-at-a-time reference
solver (:func:`repro.testing.evaluate_clause`) and the planner's cost
model: one probe per bucket row touched on the probe side, with a floor of
one probe per lookup — so an index probe that finds an empty bucket (or a
scan of an empty relation) still costs one.  The differential tests assert
the rows, bindings and counters of a pipeline and of the reference solver
on the same clause are *equal*, in order, not merely similar.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from ..errors import EvaluationError
from .ast import Atom, Clause, Literal
from .builtins import builtin_spec
from .database import Relation
from .pool import GLOBAL_POOL
from .pretty import format_clause, format_literal
from .safety import order_body
from .terms import Const, Value, Var
from .trace import EV_PIPELINE_COMPILED

if TYPE_CHECKING:  # pragma: no cover - type-only imports (avoids a cycle)
    from .planner import ClausePlanner
    from .seminaive import EvalStats, RelationStore

_POOL = GLOBAL_POOL

#: A batch of binding rows.  The variable layout is implicit in the
#: compiled pipeline; rows are tuples of constant codes, one slot per
#: variable.
Batch = list[tuple[int, ...]]


# -- compile-time argument classification -----------------------------------

def _arg_parts(args: tuple, layout: dict[Var, int]):
    """Classify an atom's arguments against the current batch layout.

    Returns ``(bound_positions, key_parts, new_positions, eq_pairs,
    first_seen)``:

    * ``bound_positions`` — atom positions whose value is known per input
      row (constants and layout variables), in increasing order — exactly
      the positions ``Relation.match`` would select an index on;
    * ``key_parts`` — parallel ``(is_var, payload)`` pairs building the
      probe key (payload = layout slot for variables, the constant's
      *code* for constants);
    * ``new_positions`` — atom positions holding the *first* occurrence of
      each unbound variable (the values a join appends to the row);
    * ``eq_pairs`` — ``(first, dup)`` atom-position pairs for repeated
      unbound variables, checked against the matched tuple.
    """
    bound_positions: list[int] = []
    key_parts: list[tuple[bool, object]] = []
    new_positions: list[int] = []
    eq_pairs: list[tuple[int, int]] = []
    first_seen: dict[Var, int] = {}
    for i, term in enumerate(args):
        if isinstance(term, Const):
            bound_positions.append(i)
            key_parts.append((False, _POOL.encode(term.value)))
        elif term in layout:
            bound_positions.append(i)
            key_parts.append((True, layout[term]))
        elif term in first_seen:
            eq_pairs.append((first_seen[term], i))
        else:
            first_seen[term] = i
            new_positions.append(i)
    return bound_positions, key_parts, new_positions, eq_pairs, first_seen


def _tuple_fn(parts: list[tuple[bool, object]]) -> Callable[[tuple], tuple]:
    """A row -> tuple builder for ``(is_var, payload)`` parts.

    Specialized for the common shapes: all-variable parts become an
    ``itemgetter``, all-constant parts a precomputed tuple.
    """
    if not parts:
        return lambda row: ()
    if all(is_var for is_var, _ in parts):
        slots = tuple(payload for _, payload in parts)
        if len(slots) == 1:
            slot = slots[0]
            return lambda row: (row[slot],)
        return itemgetter(*slots)
    if not any(is_var for is_var, _ in parts):
        constant = tuple(payload for _, payload in parts)
        return lambda row: constant
    frozen = tuple(parts)
    return lambda row: tuple(
        row[payload] if is_var else payload for is_var, payload in frozen)


def _key_fn(parts: list[tuple[bool, object]]) -> Callable[[tuple], object]:
    """A row -> probe-key builder matching ``Relation.index_on_coded``.

    Single-position indexes are keyed by the bare scalar code (no per-probe
    tuple allocation); multi-position indexes by the code tuple.
    """
    if len(parts) == 1:
        is_var, payload = parts[0]
        if is_var:
            slot = payload
            return lambda row: row[slot]
        return lambda row: payload
    return _tuple_fn(parts)


def _decoded_tuple_fn(parts: list[tuple[bool, object]]) -> Callable:
    """A coded-row -> *value* tuple builder (the builtin boundary).

    Variable payloads are decoded per row; constant payloads are already
    values (``None`` marks an unbound solver position).
    """
    decode = _POOL.decode
    frozen = tuple(parts)
    if not frozen:
        return lambda row: ()
    return lambda row: tuple(
        decode(row[payload]) if is_var else payload
        for is_var, payload in frozen)


def _extract_fn(positions: list[int]) -> Callable[[tuple, tuple], tuple]:
    """A (row, match) -> extended-row builder appending matched values."""
    if not positions:
        return lambda row, match: row
    if len(positions) == 1:
        p0 = positions[0]
        return lambda row, match: row + (match[p0],)
    if len(positions) == 2:
        p0, p1 = positions
        return lambda row, match: row + (match[p0], match[p1])
    frozen = tuple(positions)
    return lambda row, match: row + tuple(match[p] for p in frozen)


class _Op:
    """One compiled pipeline operator.

    Attributes:
        atom: The source atom (used to resolve the relation at run time;
            ``None`` for builtins, which need no relation).
        run: ``run(batch, relation, stats) -> batch``.
        fuse: Shape metadata ``(positions, key_slot, out_pos, new_slot)``
            when this op is a head-fusable hash join (bound on one
            variable, no equality checks, exactly one new position);
            ``None`` otherwise.
    """

    __slots__ = ("atom", "run", "fuse")

    def __init__(self, atom: Optional[Atom], run, fuse=None) -> None:
        self.atom = atom
        self.run = run
        self.fuse = fuse


def _compile_join(literal: Literal, layout: dict[Var, int]) -> _Op:
    """A positive relation literal as one hash join (or scan + filter)."""
    atom = literal.atom
    assert isinstance(atom, Atom)
    bound, key_parts, new_positions, eq_pairs, first_seen = \
        _arg_parts(atom.args, layout)
    for var in first_seen:
        layout[var] = len(layout)
    eq = tuple(eq_pairs)
    arity = len(atom.args)
    whole_row = not bound and not eq and new_positions == list(range(arity))
    fuse = None

    if bound:
        positions = tuple(bound)
        key_of = _key_fn(key_parts)
        # The overwhelmingly common probe key is one already-bound
        # variable; reading the slot inline saves a call per input row.
        single_slot: Optional[int] = None
        if len(key_parts) == 1 and key_parts[0][0]:
            single_slot = key_parts[0][1]

        if not eq and len(new_positions) == 1 and single_slot is not None:
            out_pos = new_positions[0]
            slot = single_slot
            fuse = (positions, slot, out_pos, len(layout) - 1)

            def run(batch: Batch, relation: Relation, stats) -> Batch:
                out: Batch = []
                append = out.append
                get = relation.index_on_coded(positions).get
                col = relation.coded_columns()[out_pos]
                # Every bucket element emits exactly one row here, so the
                # hit count IS len(out); only misses need a counter.
                misses = 0
                for row in batch:
                    bucket = get(row[slot])
                    if bucket is None:
                        misses += 1
                    elif len(bucket) == 1:
                        append(row + (col[bucket[0]],))
                    else:
                        for r in bucket:
                            append(row + (col[r],))
                stats.probes += len(out) + misses
                return out
        elif not eq and not new_positions:
            # Semijoin shape: every bucket row re-emits the input row.
            def run(batch: Batch, relation: Relation, stats) -> Batch:
                out: Batch = []
                extend_out = out.extend
                get = relation.index_on_coded(positions).get
                probes = 0
                for row in batch:
                    bucket = get(key_of(row))
                    if bucket:
                        n = len(bucket)
                        probes += n
                        extend_out([row] * n)
                    else:
                        probes += 1
                stats.probes += probes
                return out
        elif not eq and len(new_positions) == 1:
            out_pos = new_positions[0]

            def run(batch: Batch, relation: Relation, stats) -> Batch:
                out: Batch = []
                append = out.append
                get = relation.index_on_coded(positions).get
                col = relation.coded_columns()[out_pos]
                probes = 0
                for row in batch:
                    bucket = get(key_of(row))
                    if bucket:
                        probes += len(bucket)
                        for r in bucket:
                            append(row + (col[r],))
                    else:
                        probes += 1
                stats.probes += probes
                return out
        elif not eq and len(new_positions) == 2:
            out0, out1 = new_positions

            def run(batch: Batch, relation: Relation, stats) -> Batch:
                out: Batch = []
                append = out.append
                get = relation.index_on_coded(positions).get
                columns = relation.coded_columns()
                col0 = columns[out0]
                col1 = columns[out1]
                probes = 0
                for row in batch:
                    bucket = get(key_of(row))
                    if bucket:
                        probes += len(bucket)
                        for r in bucket:
                            append(row + (col0[r], col1[r]))
                    else:
                        probes += 1
                stats.probes += probes
                return out
        else:
            new_pos = tuple(new_positions)

            def run(batch: Batch, relation: Relation, stats) -> Batch:
                out: Batch = []
                append = out.append
                get = relation.index_on_coded(positions).get
                columns = relation.coded_columns()
                probes = 0
                for row in batch:
                    bucket = get(key_of(row))
                    if not bucket:
                        probes += 1
                        continue
                    probes += len(bucket)
                    for r in bucket:
                        if eq and any(columns[i][r] != columns[j][r]
                                      for i, j in eq):
                            continue
                        append(row + tuple(columns[p][r] for p in new_pos))
                stats.probes += probes
                return out
    else:
        extend = _extract_fn(new_positions)

        def run(batch: Batch, relation: Relation, stats) -> Batch:
            # A scan charges every scanned row per input row, floor one.
            size = len(relation)
            stats.probes += max(1, size) * len(batch)
            if not size:
                return []
            matches = relation.coded_rows()
            if whole_row:
                # Common case: all arguments are fresh distinct variables.
                if len(batch) == 1 and not batch[0]:
                    return matches
                return [row + match for row in batch for match in matches]
            out: Batch = []
            append = out.append
            for row in batch:
                for match in matches:
                    if eq and any(match[i] != match[j] for i, j in eq):
                        continue
                    append(extend(row, match))
            return out

    return _Op(atom, run, fuse)


def _compile_antijoin(literal: Literal, layout: dict[Var, int]) -> _Op:
    """A negated relation literal as a batch anti-join filter."""
    atom = literal.atom
    assert isinstance(atom, Atom)
    parts: list[tuple[bool, object]] = []
    for term in atom.args:
        if isinstance(term, Const):
            parts.append((False, _POOL.encode(term.value)))
        elif term in layout:
            parts.append((True, layout[term]))
        else:
            raise EvaluationError(
                f"negated literal {atom} evaluated with unbound variables")
    row_of = _tuple_fn(parts)

    def run(batch: Batch, relation: Relation, stats) -> Batch:
        # Each membership test is one probe, as in the reference solver.
        stats.probes += len(batch)
        contains = relation.contains_coded
        return [row for row in batch if not contains(row_of(row))]

    return _Op(atom, run)


def _compile_builtin(literal: Literal, layout: dict[Var, int]) -> _Op:
    """A builtin literal as a per-row solver call (filter or generator).

    Builtins are the decode boundary: solvers compute over real values,
    so bound arguments are decoded per row and generated solutions are
    re-encoded into the batch.
    """
    atom = literal.atom
    assert isinstance(atom, Atom)
    spec = builtin_spec(atom.pred)

    if not literal.positive:
        parts: list[tuple[bool, object]] = []
        for term in atom.args:
            if isinstance(term, Const):
                parts.append((False, term.value))
            elif term in layout:
                parts.append((True, layout[term]))
            else:
                raise EvaluationError(
                    f"negated builtin {atom} evaluated with unbound "
                    "arguments")
        row_of = _decoded_tuple_fn(parts)
        solve = spec.solve

        def run(batch: Batch, relation, stats) -> Batch:
            stats.probes += len(batch)
            return [row for row in batch
                    if not any(True for _ in solve(row_of(row)))]

        return _Op(None, run)

    # Positive builtin: build the partial argument tuple per row, consume
    # the solver's ground solutions, and re-check every position — bound
    # positions because the reference solver's _match_args does, unbound
    # repeated variables because solvers only see the partial tuple.
    partial_parts: list[tuple[bool, object]] = []
    checks: list[tuple[bool, int, object]] = []  # (is_var, pos, payload)
    new_positions: list[int] = []
    eq_pairs: list[tuple[int, int]] = []
    first_seen: dict[Var, int] = {}
    for i, term in enumerate(atom.args):
        if isinstance(term, Const):
            partial_parts.append((False, term.value))
            checks.append((False, i, term.value))
        elif term in layout:
            partial_parts.append((True, layout[term]))
            checks.append((True, i, layout[term]))
        elif term in first_seen:
            partial_parts.append((False, None))
            eq_pairs.append((first_seen[term], i))
        else:
            partial_parts.append((False, None))
            first_seen[term] = i
            new_positions.append(i)
    for var in first_seen:
        layout[var] = len(layout)
    partial_of = _decoded_tuple_fn(partial_parts)
    eq = tuple(eq_pairs)
    new_pos = tuple(new_positions)
    frozen_checks = tuple(checks)
    solve = spec.solve

    def run(batch: Batch, relation, stats) -> Batch:
        out: Batch = []
        append = out.append
        decode = _POOL.decode
        encode = _POOL.encode
        probes = 0
        for row in batch:
            solved = False
            for solution in solve(partial_of(row)):
                solved = True
                probes += 1
                ok = True
                for is_var, pos, payload in frozen_checks:
                    expected = decode(row[payload]) if is_var else payload
                    if solution[pos] != expected:
                        ok = False
                        break
                if ok and eq:
                    ok = all(solution[i] == solution[j] for i, j in eq)
                if ok:
                    append(row + tuple(
                        encode(solution[p]) for p in new_pos))
            if not solved:
                probes += 1
        stats.probes += probes
        return out

    return _Op(None, run)


def _compile_head(head: Atom, layout: dict[Var, int]) -> Callable:
    """The final projection: batch row -> derived (coded) head tuple."""
    parts: list[tuple[bool, object]] = []
    for term in head.args:
        if isinstance(term, Const):
            parts.append((False, _POOL.encode(term.value)))
        else:
            parts.append((True, layout[term]))
    return _tuple_fn(parts)


def _fused_join(op: _Op, head: Atom, layout: dict[Var, int]) -> Optional[_Op]:
    """Fuse the head projection into a final hash join, when possible.

    The last operator of most recursive pipelines is a single-new-variable
    hash join whose output rows immediately get projected to head tuples;
    run separately that materializes one intermediate tuple per derived
    row just to pick slots out of it.  The fused operator emits head
    tuples straight from the probe loop instead.  Returns ``None`` when
    the head shape does not qualify.
    """
    if op.fuse is None:
        return None
    positions, slot, out_pos, new_slot = op.fuse
    # Classify head arguments: row slot, the joined-in value, or constant.
    parts: list[tuple[str, object]] = []
    for term in head.args:
        if isinstance(term, Const):
            parts.append(("const", _POOL.encode(term.value)))
        elif layout[term] == new_slot:
            parts.append(("new", None))
        else:
            parts.append(("row", layout[term]))
    kinds = tuple(kind for kind, _ in parts)

    if kinds == ("row", "new"):
        a = parts[0][1]

        def run(batch: Batch, relation: Relation, stats) -> Batch:
            out: Batch = []
            append = out.append
            get = relation.index_on_coded(positions).get
            col = relation.coded_columns()[out_pos]
            misses = 0
            for row in batch:
                bucket = get(row[slot])
                if bucket is None:
                    misses += 1
                elif len(bucket) == 1:
                    append((row[a], col[bucket[0]]))
                else:
                    ra = row[a]
                    for r in bucket:
                        append((ra, col[r]))
            stats.probes += len(out) + misses
            return out
    elif kinds == ("new", "row"):
        b = parts[1][1]

        def run(batch: Batch, relation: Relation, stats) -> Batch:
            out: Batch = []
            append = out.append
            get = relation.index_on_coded(positions).get
            col = relation.coded_columns()[out_pos]
            misses = 0
            for row in batch:
                bucket = get(row[slot])
                if bucket is None:
                    misses += 1
                elif len(bucket) == 1:
                    append((col[bucket[0]], row[b]))
                else:
                    rb = row[b]
                    for r in bucket:
                        append((col[r], rb))
            stats.probes += len(out) + misses
            return out
    else:
        frozen = tuple(parts)

        def head_row(row: tuple, value: int) -> tuple:
            return tuple(
                value if kind == "new"
                else (row[payload] if kind == "row" else payload)
                for kind, payload in frozen)

        def run(batch: Batch, relation: Relation, stats) -> Batch:
            out: Batch = []
            append = out.append
            get = relation.index_on_coded(positions).get
            col = relation.coded_columns()[out_pos]
            misses = 0
            for row in batch:
                bucket = get(row[slot])
                if bucket is None:
                    misses += 1
                elif len(bucket) == 1:
                    append(head_row(row, col[bucket[0]]))
                else:
                    for r in bucket:
                        append(head_row(row, col[r]))
            stats.probes += len(out) + misses
            return out

    return _Op(op.atom, run)


class _Pipeline:
    """A compiled literal order: operator chain plus optional head projection.

    ``bound`` names the variables every input row already binds (the
    layout's first slots); :attr:`layout` is the final variable layout of
    the binding rows.  Clause pipelines are cached per (clause, delta
    position) by :class:`BatchExecutor`; the recorded ``order`` detects
    plan changes (the cost planner may re-order a clause when
    cardinalities drift), which force recompilation.

    When the final operator is a fusable hash join (see
    :func:`_fused_join`), :attr:`fused` replaces both that operator and
    the head projection: its output rows *are* the head tuples.
    """

    __slots__ = ("order", "ops", "head_of", "fused", "layout")

    def __init__(self, order: tuple[Literal, ...],
                 head: Optional[Atom] = None,
                 bound: tuple[Var, ...] = ()) -> None:
        self.order = order
        layout: dict[Var, int] = {var: i for i, var in enumerate(bound)}
        self.ops: list[_Op] = []
        for literal in order:
            atom = literal.atom
            assert isinstance(atom, Atom)
            if atom.is_builtin:
                self.ops.append(_compile_builtin(literal, layout))
            elif literal.positive:
                self.ops.append(_compile_join(literal, layout))
            else:
                self.ops.append(_compile_antijoin(literal, layout))
        self.layout = tuple(layout)
        self.fused = None
        self.head_of = None
        if head is None:
            return
        # Never fuse ops[0]: the delta override must target a live op.
        if len(self.ops) >= 2:
            fused = _fused_join(self.ops[-1], head, layout)
            if fused is not None:
                self.fused = fused
                self.ops.pop()
        self.head_of = _compile_head(head, layout)


class BatchExecutor:
    """Executes planned literal orders as batch pipelines, caching
    compilations.

    One executor lives per evaluation (mirroring
    :class:`~repro.datalog.planner.ClausePlanner`) or per maintenance /
    model-checking engine.  Clause pipelines are keyed by ``(clause
    identity, delta position)`` and recompiled only when the planner hands
    back a different literal order; binding pipelines are keyed by the
    order and the seeded variables.

    Args:
        tracer: Optional span-event receiver; every clause pipeline
            *compilation* (not cache hits) emits one ``pipeline_compiled``
            event.  The :attr:`stratum` attribute labels those events and
            is maintained by the stratum loop.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        #: Stratum index stamped on emitted events (set by the caller).
        self.stratum = 0
        #: Per-stage estimate-vs-actual capture of the most recent traced
        #: ``execute_coded`` call (None when nothing was captured) — the
        #: semi-naive loop attaches it to the ``clause_fire`` event.
        #: Only maintained while a tracer is installed.
        self.last_stages: Optional[list[dict]] = None
        self._pipelines: dict[tuple[int, Optional[int]], _Pipeline] = {}
        self._binding_pipelines: dict[tuple, _Pipeline] = {}

    def execute_coded(self, clause: Clause, store: "RelationStore",
                      stats: "EvalStats",
                      delta_index: Optional[int] = None,
                      delta: Optional[Relation] = None,
                      planner: Optional["ClausePlanner"] = None,
                      ) -> list[tuple[int, ...]]:
        """All head tuples derivable from one clause, as coded rows.

        The semi-naive hot path: derived rows stay in code space all the
        way into relation storage.  ``delta``/``delta_index`` substitute the
        delta relation for the body literal at that source position
        (scheduled first).  Rows (in order), ``probes`` and ``firings``
        match :func:`repro.testing.evaluate_clause` on the same clause and
        plan.
        """
        estimates = None
        if planner is not None:
            plan = planner.plan(clause, store.base_relation,
                                delta_index=delta_index, stats=stats)
            order = plan.order
            estimates = plan.estimates
        else:
            first: Optional[Literal] = None
            if delta_index is not None:
                first = clause.body[delta_index]
            order = order_body(clause, first=first)

        key = (id(clause), delta_index)
        pipeline = self._pipelines.get(key)
        if pipeline is None or pipeline.order != order:
            recompiled = pipeline is not None
            pipeline = _Pipeline(order, clause.head)
            self._pipelines[key] = pipeline
            stats.pipelines_compiled += 1
            if self.tracer is not None:
                self.tracer.emit(
                    EV_PIPELINE_COMPILED, clause=format_clause(clause),
                    stratum=self.stratum, delta_index=delta_index,
                    recompiled=recompiled,
                    order=" -> ".join(format_literal(lit)
                                      for lit in order))
        else:
            stats.pipelines_reused += 1

        overrides = None
        if delta_index is not None and delta is not None:
            overrides = {0: delta}
        capture = None
        if self.tracer is not None:
            self.last_stages = None  # never leak a previous call's capture
            if estimates is not None:
                capture = self._capture(estimates)
        batch = self._run(pipeline, store, stats, [()], overrides, capture)
        if not batch:
            if capture is not None:
                # Stages the pipeline never reached (an upstream join
                # emptied the batch) record zero actuals: the planner
                # predicted work there that never happened.
                for index in range(len(self.last_stages), len(estimates)):
                    capture(index, 0, 0)
            return []
        fused = pipeline.fused
        if fused is not None:
            probes_before = stats.probes
            batch = fused.run(batch, store.resolve(fused.atom), stats)
            if capture is not None:
                capture(len(estimates) - 1, len(batch),
                        stats.probes - probes_before)
            stats.firings += len(batch)
            return batch
        stats.firings += len(batch)
        head_of = pipeline.head_of
        return list(map(head_of, batch))

    def execute_bindings(self, order: tuple[Literal, ...],
                         store: "RelationStore", stats: "EvalStats",
                         seed: Optional[dict[Var, Value]] = None,
                         overrides: Optional[dict[int, Relation]] = None,
                         ) -> Iterator[dict[Var, Value]]:
        """Every binding satisfying ``order``, as ``{Var: value}`` dicts.

        The entry point for callers that need the body bindings rather
        than head tuples (maintenance, provenance, model checking and the
        one-firing-at-a-time interpreters).  Each binding includes
        ``seed``'s variables.  ``seed`` binds variables before the first
        literal runs (its values are looked up in the pool, never
        interned: a value the pool has never seen matches nothing, so
        there are no bindings); ``overrides`` maps positions in ``order``
        to the relations those literals read instead of their stored
        ones.  Bindings come in the reference solver's enumeration order,
        with equal probes.  The joins (and their probes) run at call
        time; each binding is decoded when the iterator reaches it.
        """
        bound = tuple(seed) if seed else ()
        key = (order, bound)
        pipeline = self._binding_pipelines.get(key)
        if pipeline is None:
            pipeline = _Pipeline(order, bound=bound)
            self._binding_pipelines[key] = pipeline
            stats.pipelines_compiled += 1
        else:
            stats.pipelines_reused += 1
        first = tuple(map(_POOL.try_encode, seed.values())) if seed else ()
        if None in first:
            return iter(())
        rows = self._run(pipeline, store, stats, [first], overrides)
        layout = pipeline.layout
        decode = _POOL.decode_row
        return (dict(zip(layout, decode(row))) for row in rows)

    @staticmethod
    def _run(pipeline: _Pipeline, store: "RelationStore",
             stats: "EvalStats", batch: Batch,
             overrides: Optional[dict[int, Relation]],
             capture: Optional[Callable] = None) -> Batch:
        """Feed ``batch`` through the pipeline's operators (not the head).

        Stops at the first operator that empties the batch.  ``capture``,
        when given, receives ``(stage, rows out, probes)`` per operator.
        """
        for i, op in enumerate(pipeline.ops):
            if op.atom is None:
                relation = None
            elif overrides and i in overrides:
                relation = overrides[i]
            else:
                relation = store.resolve(op.atom)
            if capture is None:
                batch = op.run(batch, relation, stats)
            else:
                probes_before = stats.probes
                batch = op.run(batch, relation, stats)
                capture(i, len(batch), stats.probes - probes_before)
            if not batch:
                return batch
        return batch

    def _capture(self, estimates) -> Callable[[int, int, int], None]:
        """A per-stage estimate-vs-actual recorder into :attr:`last_stages`.

        Each ``clause_fire`` event then carries ``(est_rows, actual_rows,
        est_probes, actual_probes)`` per join stage.
        """
        stages: list[dict] = []
        self.last_stages = stages

        def capture(index: int, rows: int, probes: int) -> None:
            est = estimates[index]
            stages.append({
                "literal": format_literal(est.literal),
                "kind": est.kind,
                "est_rows": est.rows, "actual_rows": rows,
                "est_probes": est.probes, "actual_probes": probes})
        return capture
