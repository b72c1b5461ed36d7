"""Recording, replaying and diffing ID-function choices.

The whole point of IDLOG is that the ID-function is an *arbitrary*
bijection (Section 2.1), so a program denotes a **set** of answers — which
makes any single run irreproducible unless the choices it made are
captured.  This module is the nondeterminism audit trail:

* :class:`ChoiceRecord` — one ID-function decision: which ordering one
  block of one ``(predicate, grouping)`` pair received, together with a
  content digest of the block so later replays can detect input drift.
* :class:`ChoiceLog` — the ordered sequence of all decisions of one
  evaluation, plus (optionally) the answer relations the run produced.
  It is a tracer: :meth:`ChoiceLog.emit` folds the ``id_choice`` and
  ``id_materialized`` span events, and the same fold builds every
  record — live, in :meth:`ChoiceLog.from_jsonable` and in
  :meth:`ChoiceLog.load`.  Entries read from outside are checked first:
  a malformed one raises :class:`~repro.errors.InputError` naming it.
  Its JSONL ``id_choice`` lines are *exactly* the events a
  :class:`~repro.datalog.trace.JsonTracer` writes, so a ``--trace``
  file of an IDLOG run loads as the same choice log.
* :func:`diverge` / :func:`format_divergence` — given two logs (plus
  their answer snapshots), report the first differing ID choice per
  ``(pred, grouping, block)`` and attribute the downstream answer-set
  delta to it.

Recording is a traced run: :class:`~repro.core.engine.IdlogEngine`
``run(record=...)`` / ``one(record=...)`` tee the log onto the
evaluation's tracer.  Replay is wired into
:meth:`~repro.core.engine.IdlogEngine.replay`.
:func:`~repro.core.run.run_program` drives both for the CLI
(``repro-idlog run --record/--replay``) and the server, and
``repro-idlog diverge`` surfaces the differ.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, TextIO, Union

from ..datalog.trace import (EV_ID_CHOICE, EV_ID_MATERIALIZED,
                             SCHEMA_VERSION, clip, read_events)
from ..errors import InputError, ReproError
from .idrelations import Grouping, IdFunction


def block_digest(rows: Iterable[tuple]) -> str:
    """Content digest of one block: order-independent, repr-canonical.

    Two blocks digest equally iff they contain the same tuples — the
    drift detector replay relies on.  16 hex chars (64 bits) is plenty
    for block-count scales while keeping log lines readable.
    """
    payload = "\n".join(sorted(repr(row) for row in rows))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ChoiceRecord:
    """One ID-function decision: the ordering chosen for one block.

    Attributes:
        pred: Base predicate of the ID-relation.
        group: Grouping positions, sorted ascending.
        block: The grouping-key values identifying the block.
        block_digest: :func:`block_digest` of the *full* block contents
            (not just the recorded prefix) at recording time.
        block_size: Number of tuples in the full block.
        ordering: The block's tuples in tid order — a prefix of length
            ``tid_limit`` when the Section 4 group-limit optimization
            truncated the materialization.
        tid_limit: The tid limit in force, or None for a full ordering.
    """

    pred: str
    group: tuple[int, ...]
    block: tuple
    block_digest: str
    block_size: int
    ordering: tuple[tuple, ...]
    tid_limit: Optional[int]

    @property
    def key(self) -> tuple[str, tuple[int, ...], tuple]:
        """The identity ``(pred, group, block)`` of this decision."""
        return (self.pred, self.group, self.block)

    def describe(self) -> str:
        """Human-readable site label, e.g. ``emp[2] block ('toys',)``."""
        positions = ",".join(map(str, self.group))
        return f"{self.pred}[{positions}] block {self.block!r}"

    def as_event_fields(self) -> dict:
        """The record as ``id_choice`` trace-event fields (JSON-ready)."""
        return {
            "pred": self.pred, "group": list(self.group),
            "block": list(self.block), "block_digest": self.block_digest,
            "block_size": self.block_size,
            "ordering": [list(row) for row in self.ordering],
            "tid_limit": self.tid_limit,
        }


def choice_records(pred: str, group: Grouping, id_function: IdFunction,
                   limit: Optional[int] = None) -> list[ChoiceRecord]:
    """The :class:`ChoiceRecord` per block of one ID-function application.

    ``id_function`` must order every tuple of each block, as a draw
    does: digest and size cover the full block, the record keeps the
    ``limit``-prefix.  Blocks are emitted in deterministic (repr-sorted
    key) order, so two logs of the same decisions are comparable line by
    line regardless of relation iteration order.
    """
    gtuple = tuple(sorted(group))
    return [
        ChoiceRecord(pred=pred, group=gtuple, block=key,
                     block_digest=block_digest(ordering),
                     block_size=len(ordering),
                     ordering=tuple(ordering[:limit]), tid_limit=limit)
        for key, ordering in sorted(id_function.items(),
                                    key=lambda item: repr(item[0]))]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_row(value) -> bool:
    return isinstance(value, (list, tuple)) and all(
        isinstance(cell, str) or _is_int(cell) for cell in value)


def _is_rows(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(_is_row, value))


#: Field -> (check, what it must be) of a choice-log entry read from
#: JSON.  ``tid_limit`` may be absent: it reads as None.
_FIELD_CHECKS = {
    "pred": (lambda v: isinstance(v, str), "a string"),
    "group": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
              "a list of integers"),
    "tid_limit": (lambda v: v is None or _is_int(v), "an integer or null"),
    "block": (_is_row, "a list of strings/integers"),
    "block_digest": (lambda v: isinstance(v, str), "a string"),
    "block_size": (_is_int, "an integer"),
    "ordering": (_is_rows, "a list of rows"),
}


def _checked(kind: str, entry, where: str) -> Mapping:
    """``entry`` if it is a well-formed ``kind`` record, else
    :class:`~repro.errors.InputError` naming it as ``where``."""
    if not isinstance(entry, Mapping):
        raise InputError(f"choice log {where}: expected an object, got "
                         f"{type(entry).__name__}")
    names = _FIELD_CHECKS if kind == EV_ID_CHOICE \
        else ("pred", "group", "tid_limit")
    for name in names:
        check, wanted = _FIELD_CHECKS[name]
        if not check(entry.get(name)):
            got = f"{entry[name]!r:.60}" if name in entry else "nothing"
            raise InputError(f"choice log {where}: {kind} field {name!r} "
                             f"must be {wanted}, got {got}")
    return entry


def _mapping(value, where: str) -> Mapping:
    """A JSON object field (absent reads as empty)."""
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise InputError(f"choice log {where} must be an object, got "
                         f"{type(value).__name__}")
    return value


def _tupled_answers(answers) -> dict[str, tuple[tuple, ...]]:
    """JSON answer relations back to the tuples the engine compares."""
    answers = _mapping(answers, "answers")
    for pred, rows in answers.items():
        if not isinstance(pred, str) or not _is_rows(rows):
            raise InputError(f"choice log answers[{pred!r}] must be a "
                             "list of rows of strings/integers")
    return {pred: tuple(map(tuple, rows)) for pred, rows in answers.items()}


class ChoiceLog:
    """The ordered ID-choice audit trail of one IDLOG evaluation.

    Grows through :meth:`emit` (a recorded run tees the log onto its
    tracer) and optionally carries the run's answer relations
    (:meth:`set_answers`) so a replay — or the :func:`diverge` differ —
    can check end results, not just choices.

    The log indexes decisions by ``(pred, group)`` and, within a pair, by
    block key; a ``(pred, group)`` pair whose base relation was *empty*
    is still registered (with zero blocks), so replay can distinguish
    "recorded as empty" from "never materialized".
    """

    def __init__(self, meta: Optional[Mapping] = None) -> None:
        self.meta: dict = dict(meta or {})
        self.records: list[ChoiceRecord] = []
        #: pred -> sorted tuples of the recorded answer relation.
        self.answers: dict[str, tuple[tuple, ...]] = {}
        self._groups: dict[tuple[str, tuple[int, ...]], dict] = {}

    # -- building ----------------------------------------------------------

    def emit(self, kind: str, **fields) -> None:
        """Fold one span event into the log (the tracer protocol).

        ``id_choice`` adds a :class:`ChoiceRecord`; ``id_materialized``
        registers its ``(pred, group)`` pair and tid limit, so a pair
        materialized over an empty relation is kept too.  Other fields
        and kinds are ignored.  A block the log already holds raises
        :class:`~repro.errors.InputError`: one log records one
        evaluation.
        """
        self._fold(kind, fields)

    def _fold(self, kind: str, fields: Mapping) -> None:
        if kind not in (EV_ID_CHOICE, EV_ID_MATERIALIZED):
            return
        group = tuple(fields["group"])
        blocks = self._groups.setdefault(
            (fields["pred"], group),
            {"tid_limit": fields.get("tid_limit"), "blocks": {}})["blocks"]
        if kind == EV_ID_CHOICE:
            record = ChoiceRecord(
                pred=fields["pred"], group=group,
                block=tuple(fields["block"]),
                block_digest=fields["block_digest"],
                block_size=fields["block_size"],
                ordering=tuple(map(tuple, fields["ordering"])),
                tid_limit=fields.get("tid_limit"))
            if record.block in blocks:
                raise InputError(
                    f"choice log already holds a decision for "
                    f"{record.describe()}; one log records one evaluation")
            blocks[record.block] = record
            self.records.append(record)

    def set_answers(self, answers: Mapping[str, Iterable[tuple]]) -> None:
        """Attach the run's answer relations (sorted for determinism)."""
        self.answers = {
            pred: tuple(sorted(rows, key=lambda r: tuple(map(repr, r))))
            for pred, rows in answers.items()}

    # -- lookup ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ChoiceRecord]:
        return iter(self.records)

    def records_for(self, pred: str, group: Grouping,
                    ) -> Optional[dict[tuple, ChoiceRecord]]:
        """Block-keyed records of one ``(pred, group)`` pair.

        Returns an empty dict when the pair was recorded over an empty
        base relation, and ``None`` when it was never recorded at all —
        replay treats the two very differently.
        """
        entry = self._groups.get((pred, tuple(sorted(group))))
        if entry is None:
            return None
        return entry["blocks"]

    def limit_for(self, pred: str, group: Grouping) -> Optional[int]:
        """The tid limit recorded for one ``(pred, group)`` pair."""
        entry = self._groups.get((pred, tuple(sorted(group))))
        return entry["tid_limit"] if entry else None

    def answer_tuples(self, pred: str) -> frozenset[tuple]:
        """The recorded answer relation for ``pred`` as a frozenset."""
        return frozenset(self.answers.get(pred, ()))

    def digest(self) -> str:
        """Run-level digest of the ordered choice sequence.

        Folds every decision's identity *and* outcome — ``(pred, group,
        block, block digest, tid limit, chosen ordering)`` in recording
        order — so two evaluations digest equally iff they made the
        same ID choices on the same inputs.  This is the per-request
        attribution handle the server returns in ``run`` responses and
        persists in its slow-query log; a round-tripped log
        (:meth:`to_jsonable` → :meth:`from_jsonable`) digests
        identically.  16 hex chars, like :func:`block_digest`.
        """
        fold = hashlib.sha256()
        for rec in self.records:
            fold.update(repr((rec.pred, rec.group, rec.block,
                              rec.block_digest, rec.tid_limit,
                              rec.ordering)).encode())
        return fold.hexdigest()[:16]

    # -- serialization -----------------------------------------------------

    def to_jsonable(self) -> dict:
        """JSON-ready form (embedded in ``BENCH_*.json`` trajectories)."""
        return {
            "schema": SCHEMA_VERSION,
            "meta": dict(self.meta),
            "groupings": [
                {"pred": pred, "group": list(gtuple),
                 "tid_limit": entry["tid_limit"]}
                for (pred, gtuple), entry in self._groups.items()],
            "choices": [rec.as_event_fields() for rec in self.records],
            "answers": {
                pred: [list(row) for row in rows]
                for pred, rows in sorted(self.answers.items())},
        }

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "ChoiceLog":
        """Inverse of :meth:`to_jsonable`; a malformed entry raises
        :class:`~repro.errors.InputError` naming it."""
        schema = data.get("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ReproError(
                f"choice log has schema {schema}; this build reads "
                f"schema {SCHEMA_VERSION}")
        log = cls(meta=_mapping(data.get("meta"), "meta"))
        for name, kind in (("groupings", EV_ID_MATERIALIZED),
                           ("choices", EV_ID_CHOICE)):
            log._fold_all(kind, data.get(name, ()), name)
        log.answers = _tupled_answers(data.get("answers"))
        return log

    def _fold_all(self, kind: str, entries, where: str) -> None:
        if not isinstance(entries, (list, tuple)):
            raise InputError(f"choice log {where} must be a list, got "
                             f"{type(entries).__name__}")
        for index, entry in enumerate(entries):
            self._fold(kind, _checked(kind, entry, f"{where}[{index}]"))

    def save(self, sink: Union[str, TextIO]) -> None:
        """Write the log as JSONL (header, ``id_choice`` lines, answers).

        The ``id_choice`` lines carry the same fields a
        :class:`~repro.datalog.trace.JsonTracer` writes for the
        ``id_choice`` trace event, each stamped with
        :data:`~repro.datalog.trace.SCHEMA_VERSION`.
        """
        data = self.to_jsonable()
        lines = [{"event": "choice_log", "schema": data["schema"],
                  "meta": data["meta"], "groupings": data["groupings"]}]
        lines.extend({"event": EV_ID_CHOICE, "seq": seq,
                      "schema": SCHEMA_VERSION, **fields}
                     for seq, fields in enumerate(data["choices"]))
        if data["answers"]:
            lines.append({"event": "answers", "schema": SCHEMA_VERSION,
                          "answers": data["answers"]})
        handle = open(sink, "w", encoding="utf-8") \
            if isinstance(sink, str) else sink
        try:
            for line in lines:
                handle.write(json.dumps(line) + "\n")
        finally:
            if isinstance(sink, str):
                handle.close()

    @classmethod
    def load(cls, source: Union[str, TextIO]) -> "ChoiceLog":
        """Read a log from JSONL — a saved log *or* any ``--trace`` file.

        The ``choice_log`` header and the ``answers`` line are read
        here; the ``id_choice`` / ``id_materialized`` events are folded
        like live ones and every other line (clause firings, rounds,
        ...) is skipped.  That is what lets a full JSONL trace double as
        a choice log, empty groupings included.  A malformed entry
        raises :class:`~repro.errors.InputError` naming its event number.
        """
        log = cls()
        for index, (kind, fields) in enumerate(read_events(source), 1):
            where = f"event {index}"
            if kind == "choice_log":
                log.meta = dict(_mapping(fields.get("meta"),
                                         f"{where} meta"))
                log._fold_all(EV_ID_MATERIALIZED,
                              fields.get("groupings", ()),
                              f"{where} groupings")
            elif kind == "answers":
                log.answers = _tupled_answers(fields.get("answers"))
            elif kind in (EV_ID_CHOICE, EV_ID_MATERIALIZED):
                log._fold(kind, _checked(kind, fields, where))
        if not log._groups:
            raise ReproError(
                "no id_choice lines found; not a choice log (or a "
                "trace of a run that materialized no ID-relations)")
        return log


# -- the divergence differ ---------------------------------------------------

#: Divergence kinds, from "the runs chose differently" to "the runs saw
#: different inputs" to "one run never made this decision at all".
DIV_ORDERING = "ordering"
DIV_INPUT = "input"
DIV_LIMIT = "limit"
DIV_ONLY_A = "only-A"
DIV_ONLY_B = "only-B"


@dataclass(frozen=True)
class ChoiceDivergence:
    """One differing ID choice between two logs."""

    pred: str
    group: tuple[int, ...]
    block: tuple
    kind: str
    detail: str
    a: Optional[ChoiceRecord] = None
    b: Optional[ChoiceRecord] = None

    def site(self) -> str:
        """``pred[group] block`` label for tables and messages."""
        positions = ",".join(map(str, self.group))
        return f"{self.pred}[{positions}] {self.block!r}"


@dataclass
class DivergenceReport:
    """Outcome of :func:`diverge`: differing choices + answer deltas."""

    divergences: list[ChoiceDivergence]
    #: pred -> (tuples only in A, tuples only in B); only differing preds.
    answer_deltas: dict[str, tuple[frozenset, frozenset]]
    choices_compared: int

    @property
    def first(self) -> Optional[ChoiceDivergence]:
        """The first differing choice in A's recording order, if any."""
        return self.divergences[0] if self.divergences else None

    @property
    def identical(self) -> bool:
        """True when choices AND recorded answers agree."""
        return not self.divergences and not self.answer_deltas


def diverge(a: ChoiceLog, b: ChoiceLog) -> DivergenceReport:
    """Compare two choice logs (and their answer snapshots).

    Walks A's decisions in recording order, so :attr:`~DivergenceReport.first`
    is the *earliest* point the two runs parted ways — under stratified
    evaluation every later difference is potentially downstream of it.
    """
    b_index = {rec.key: rec for rec in b.records}
    a_keys = set()
    divergences: list[ChoiceDivergence] = []
    for rec in a.records:
        a_keys.add(rec.key)
        other = b_index.get(rec.key)
        if other is None:
            divergences.append(ChoiceDivergence(
                rec.pred, rec.group, rec.block, DIV_ONLY_A,
                "block only recorded in A (input drift or earlier "
                "divergence reshaped the relation)", a=rec))
        elif rec.block_digest != other.block_digest:
            divergences.append(ChoiceDivergence(
                rec.pred, rec.group, rec.block, DIV_INPUT,
                f"block contents differ: digest {rec.block_digest} vs "
                f"{other.block_digest} (sizes {rec.block_size} vs "
                f"{other.block_size})", a=rec, b=other))
        elif rec.tid_limit != other.tid_limit:
            divergences.append(ChoiceDivergence(
                rec.pred, rec.group, rec.block, DIV_LIMIT,
                f"tid limit differs: {rec.tid_limit} vs "
                f"{other.tid_limit}", a=rec, b=other))
        elif rec.ordering != other.ordering:
            divergences.append(ChoiceDivergence(
                rec.pred, rec.group, rec.block, DIV_ORDERING,
                "same block, different chosen ordering", a=rec, b=other))
    for rec in b.records:
        if rec.key not in a_keys:
            divergences.append(ChoiceDivergence(
                rec.pred, rec.group, rec.block, DIV_ONLY_B,
                "block only recorded in B (input drift or earlier "
                "divergence reshaped the relation)", b=rec))

    answer_deltas: dict[str, tuple[frozenset, frozenset]] = {}
    for pred in sorted(set(a.answers) | set(b.answers)):
        only_a = a.answer_tuples(pred) - b.answer_tuples(pred)
        only_b = b.answer_tuples(pred) - a.answer_tuples(pred)
        if only_a or only_b:
            answer_deltas[pred] = (only_a, only_b)
    return DivergenceReport(divergences, answer_deltas,
                            choices_compared=len(a_keys | set(b_index)))


def _ordering_cell(record: Optional[ChoiceRecord]) -> str:
    if record is None:
        return "-"
    rendered = " ".join(",".join(map(str, row)) for row in record.ordering)
    return rendered or "(empty)"


def format_divergence(report: DivergenceReport,
                      a_name: str = "A", b_name: str = "B",
                      site_width: int = 30,
                      ordering_width: int = 24) -> str:
    """Render a :class:`DivergenceReport` as a text table.

    Same presentation family as
    :func:`repro.datalog.trace.format_profile`: a header line, fixed-width
    columns, one totals/verdict line — the ``repro-idlog diverge``
    output.
    """
    lines = [f"CHOICE DIVERGENCE  (A={a_name}, B={b_name}, "
             f"{report.choices_compared} choice site(s) compared)"]
    if report.identical:
        lines.append("  identical: every ID choice and every recorded "
                     "answer agrees")
        return "\n".join(lines)

    if report.divergences:
        head = ("  " + "site".ljust(site_width)
                + "  " + "kind".rjust(8)
                + "  " + f"{a_name} ordering".ljust(ordering_width)
                + "  " + f"{b_name} ordering".ljust(ordering_width))
        lines.append(head)
        for div in report.divergences:
            lines.append(
                "  " + clip(div.site(), site_width).ljust(site_width)
                + "  " + div.kind.rjust(8)
                + "  " + clip(_ordering_cell(div.a),
                               ordering_width).ljust(ordering_width)
                + "  " + clip(_ordering_cell(div.b),
                               ordering_width).ljust(ordering_width))
        first = report.first
        lines.append(f"first divergent choice: {first.site()} "
                     f"[{first.kind}] — {first.detail}")
    else:
        lines.append("  all ID choices agree")

    if report.answer_deltas:
        for pred, (only_a, only_b) in sorted(report.answer_deltas.items()):
            bits = []
            if only_a:
                bits.append(f"{len(only_a)} tuple(s) only in {a_name}: "
                            + ", ".join(sorted(map(str, only_a))[:4])
                            + ("…" if len(only_a) > 4 else ""))
            if only_b:
                bits.append(f"{len(only_b)} tuple(s) only in {b_name}: "
                            + ", ".join(sorted(map(str, only_b))[:4])
                            + ("…" if len(only_b) > 4 else ""))
            line = f"answer delta {pred}: " + "; ".join(bits)
            if report.first is not None:
                line += (f"  [attributed to first divergent choice "
                         f"{report.first.site()}]")
            lines.append(line)
    elif report.divergences:
        lines.append("recorded answers agree despite the divergent "
                     "choices (different models, same projection)")
    return "\n".join(lines)


__all__ = [
    "EV_ID_CHOICE", "ChoiceRecord", "ChoiceLog", "ChoiceDivergence",
    "DivergenceReport", "block_digest", "choice_records", "diverge",
    "format_divergence",
]
