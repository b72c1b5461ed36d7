"""Relations and databases (the paper's Section 2.1), stored columnar.

A *relation of type s1...sm over a u-domain D* is a finite set of tuples whose
i-th components come from ``D`` when ``si = 0`` and from the naturals when
``si = 1``.  A *database* bundles a u-domain with a collection of named
relations; queries are C-generic mappings from databases to sets of relations.

:class:`Relation` is the storage unit shared by the EDB, the IDB under
evaluation, and materialized ID-relations.  Internally it is **column
oriented**: every constant is dictionary-encoded to one machine word by the
process-wide :data:`~repro.datalog.pool.GLOBAL_POOL` (see
:mod:`repro.datalog.pool` for the tagged encoding), each column is one
``array('q')`` of codes, set membership is an open-addressed table of row
indexes (also an ``array('q')``), and hash indexes map probe keys — a bare
int code for single-position indexes, a code tuple otherwise — to lists of
row indexes.  The batch executor (:mod:`repro.datalog.executor`) joins and
projects over these codes end-to-end; the value-level API below (``add``,
``match``, iteration...) encodes on the way in and decodes on the way out,
so every caller that speaks values — the tuple-at-a-time reference
solver in :mod:`repro.testing`, ID-materialization, the ChoiceLog, the
CLI — behaves exactly as it did over the old tuple-set storage.
"""

from __future__ import annotations

import csv
import io
import sys
from array import array
from typing import Iterable, Iterator, Mapping, Optional

from ..errors import SchemaError
from .pool import GLOBAL_POOL
from .terms import RelationType, Value, format_type, type_of_tuple

_POOL = GLOBAL_POOL

#: Membership tables hold at most 2/3 of their slots; a rebuild resizes to
#: the smallest power of two with room for 1.5x the live rows.
_MIN_TABLE = 8


def _table_cap(rows: int) -> int:
    """The membership-table capacity for ``rows`` live rows."""
    need = 3 * rows // 2 + 2
    cap = _MIN_TABLE
    while cap < need:
        cap <<= 1
    return cap


_EMPTY_SLOT = -1
_TOMBSTONE = -2


def _known_codes(values) -> Optional[tuple[int, ...]]:
    """The codes of ``values``, or None when the pool has never seen one
    of them (looked up, never interned: such a row is stored nowhere)."""
    coded = tuple(map(_POOL.try_encode, values))
    return None if None in coded else coded


class CodedDelta:
    """A semi-naive delta as a bare list of coded rows.

    The coded emit path already holds each round's fresh rows as a list of
    code tuples; a delta only ever feeds the *next* round's first pipeline
    operator, so instead of copying the rows into a second columnar
    relation this view adapts the list to the executor-facing read API —
    ``len``, :meth:`coded_rows` (zero-copy), and lazily-built
    :meth:`coded_columns` / :meth:`index_on_coded` for the rare delta
    literal with bound positions.
    """

    __slots__ = ("rows", "_columns", "_indexes")

    def __init__(self, rows: list) -> None:
        self.rows = rows
        self._columns: Optional[list[array]] = None
        self._indexes: dict[tuple[int, ...], dict] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def coded_rows(self) -> list:
        return self.rows

    def coded_columns(self) -> list[array]:
        if self._columns is None:
            rows = self.rows
            arity = len(rows[0]) if rows else 0
            self._columns = [array("q", (row[i] for row in rows))
                             for i in range(arity)]
        return self._columns

    def index_on_coded(self, positions: tuple[int, ...]) -> dict:
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            if len(positions) == 1:
                p = positions[0]
                for r, row in enumerate(self.rows):
                    key = row[p]
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = [r]
                    else:
                        bucket.append(r)
            else:
                for r, row in enumerate(self.rows):
                    key = tuple(row[p] for p in positions)
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = [r]
                    else:
                        bucket.append(r)
            self._indexes[positions] = index
        return index


class Relation:
    """A finite, typed set of ground tuples with on-demand hash indexes.

    Args:
        arity: Number of attributes.
        schema: Optional declared :data:`RelationType`; when omitted the type
            is inferred from the first tuple inserted and enforced afterwards.
        tuples: Optional initial contents.
    """

    __slots__ = ("arity", "_schema", "_columns", "_size", "_table", "_mask",
                 "_tombs", "_indexes", "_column_stats")

    def __init__(self, arity: int, schema: Optional[RelationType] = None,
                 tuples: Iterable[tuple[Value, ...]] = ()) -> None:
        if schema is not None and len(schema) != arity:
            raise SchemaError(
                f"schema {format_type(schema)} does not match arity {arity}")
        self.arity = arity
        self._schema = schema
        self._columns: list[array] = [array("q") for _ in range(arity)]
        self._size = 0
        #: Open-addressed membership table of row indexes (-1 empty, -2
        #: tombstone), built lazily: append-only deltas never pay for it.
        self._table: Optional[array] = None
        self._mask = 0
        self._tombs = 0
        self._indexes: dict[tuple[int, ...], dict] = {}
        self._column_stats: Optional[tuple[int, ...]] = None
        for row in tuples:
            self.add(row)

    @property
    def schema(self) -> Optional[RelationType]:
        """The relation type, if declared or inferred."""
        return self._schema

    # -- membership table ----------------------------------------------------

    def _rebuild_table(self, cap: int) -> None:
        table = array("q", [_EMPTY_SLOT]) * cap
        mask = cap - 1
        columns = self._columns
        for r in range(self._size):
            h = hash(tuple(col[r] for col in columns))
            slot = h & mask
            perturb = h & 0xFFFFFFFFFFFFFFFF
            while table[slot] != _EMPTY_SLOT:
                perturb >>= 5
                slot = (slot * 5 + perturb + 1) & mask
            table[slot] = r
        self._table = table
        self._mask = mask
        self._tombs = 0

    def _ensure_table(self) -> None:
        if self._table is None:
            self._rebuild_table(_table_cap(self._size))

    def _find(self, coded: tuple[int, ...]) -> tuple[int, int]:
        """Locate a coded row: ``(row index or -1, slot to insert at)``."""
        mask = self._mask
        table = self._table
        columns = self._columns
        arity = self.arity
        h = hash(coded)
        slot = h & mask
        perturb = h & 0xFFFFFFFFFFFFFFFF
        free = -1
        while True:
            r = table[slot]
            if r == _EMPTY_SLOT:
                return -1, (slot if free < 0 else free)
            if r == _TOMBSTONE:
                if free < 0:
                    free = slot
            else:
                for j in range(arity):
                    if columns[j][r] != coded[j]:
                        break
                else:
                    return r, slot
            perturb >>= 5
            slot = (slot * 5 + perturb + 1) & mask

    def add_coded(self, coded: tuple[int, ...]) -> bool:
        """Insert a trusted coded row; returns True when it was new.

        No arity or sort check (rows derived in code space are already
        well-formed); a relation without a schema takes the row's sorts.
        """
        if self._schema is None:
            self._schema = tuple(map(_POOL.sort_of_code, coded))
        if self._table is None:
            self._rebuild_table(_table_cap(self._size))
        r, slot = self._find(coded)
        if r >= 0:
            return False
        n = self._size
        for col, code in zip(self._columns, coded):
            col.append(code)
        if self._table[slot] == _TOMBSTONE:
            self._tombs -= 1
        self._table[slot] = n
        self._size = n + 1
        self._column_stats = None
        for positions, index in self._indexes.items():
            if len(positions) == 1:
                key = coded[positions[0]]
            else:
                key = tuple(coded[p] for p in positions)
            bucket = index.get(key)
            if bucket is None:
                index[key] = [n]
            else:
                bucket.append(n)
        if (self._size + self._tombs) * 3 >= (self._mask + 1) * 2:
            self._rebuild_table(_table_cap(self._size))
        return True

    # -- value-level mutation ------------------------------------------------

    def check_row(self, row: tuple[Value, ...]) -> None:
        """Arity + sort validation: what :meth:`add` raises, without
        interning the row's constants."""
        if len(row) != self.arity:
            raise SchemaError(
                f"tuple {row!r} has arity {len(row)}, relation expects "
                f"{self.arity}")
        try:
            rowtype = type_of_tuple(row)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"tuple {row!r}: {exc}") from exc
        if self._schema is None:
            self._schema = rowtype
        elif rowtype != self._schema:
            raise SchemaError(
                f"tuple {row!r} of type {format_type(rowtype)} inserted into "
                f"relation of type {format_type(self._schema)}")

    def add(self, row: tuple[Value, ...]) -> bool:
        """Insert a tuple; returns True when it was new.

        Raises:
            SchemaError: on arity or sort mismatch.
        """
        self.check_row(row)
        return self.add_coded(tuple(map(_POOL.encode, row)))

    #: A bulk ``update`` at least this large (and bigger than half the
    #: current contents) drops existing indexes instead of maintaining them
    #: row by row; the next probe rebuilds it lazily.
    BULK_REINDEX_THRESHOLD = 64

    def update(self, rows: Iterable[tuple[Value, ...]]) -> int:
        """Insert many tuples; returns the number that were new.

        Large bursts (see :data:`BULK_REINDEX_THRESHOLD`) invalidate the
        hash indexes up front rather than paying per-row maintenance for
        index entries the burst would mostly rewrite anyway.
        """
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        if (self._indexes
                and len(rows) >= self.BULK_REINDEX_THRESHOLD
                and len(rows) * 2 > self._size):
            self._indexes.clear()
        return sum(1 for row in rows if self.add(row))

    def discard(self, row: tuple[Value, ...]) -> bool:
        """Remove a tuple if present; returns True when it was removed."""
        if len(row) != self.arity:
            return False
        coded = _known_codes(row)
        return coded is not None and self.discard_coded(coded)

    def discard_coded(self, coded: tuple[int, ...]) -> bool:
        """Remove a coded row if present; returns True when it was removed.

        Swap-remove: the last row moves into the hole so the column arrays
        stay dense; the membership table and any hash indexes are patched
        in place.
        """
        self._ensure_table()
        r, slot = self._find(coded)
        if r < 0:
            return False
        columns = self._columns
        indexes = self._indexes
        for positions, index in indexes.items():
            if len(positions) == 1:
                key = coded[positions[0]]
            else:
                key = tuple(coded[p] for p in positions)
            bucket = index[key]
            bucket.remove(r)
            if not bucket:
                del index[key]
        self._table[slot] = _TOMBSTONE
        self._tombs += 1
        last = self._size - 1
        if r != last:
            last_coded = tuple(col[last] for col in columns)
            _, last_slot = self._find(last_coded)
            self._table[last_slot] = r
            for positions, index in indexes.items():
                if len(positions) == 1:
                    key = last_coded[positions[0]]
                else:
                    key = tuple(last_coded[p] for p in positions)
                bucket = index[key]
                bucket[bucket.index(last)] = r
            for col in columns:
                col[r] = col[last]
        for col in columns:
            col.pop()
        self._size = last
        self._column_stats = None
        if self._tombs * 4 >= self._mask + 1:
            self._rebuild_table(_table_cap(self._size))
        return True

    # -- coded (executor-facing) API ----------------------------------------

    def coded_columns(self) -> list[array]:
        """The raw per-column code arrays (read-only by convention)."""
        return self._columns

    def coded_rows(self) -> list[tuple[int, ...]]:
        """All rows as tuples of codes (a fresh list, scan order)."""
        if not self.arity:
            return [()] * self._size
        return list(zip(*self._columns))

    def contains_coded(self, coded: tuple[int, ...]) -> bool:
        """Membership of a coded row."""
        self._ensure_table()
        return self._find(coded)[0] >= 0

    def index_on_coded(self, positions: tuple[int, ...]) -> dict:
        """The coded hash index on 0-based positions (built on demand).

        Maps a bare int code (single position) or a code tuple to the list
        of row indexes carrying that key.
        """
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            columns = self._columns
            if len(positions) == 1:
                col = columns[positions[0]]
                for r in range(self._size):
                    key = col[r]
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = [r]
                    else:
                        bucket.append(r)
            else:
                pcols = [columns[p] for p in positions]
                for r in range(self._size):
                    key = tuple(c[r] for c in pcols)
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = [r]
                    else:
                        bucket.append(r)
            self._indexes[positions] = index
        return index

    def extend_coded(self, rows: list) -> None:
        """Append coded rows known to be new and mutually distinct.

        The semi-naive emit fast path: rows the evaluation's seen-set
        proved globally fresh need no membership work here, so a pristine
        relation (no table, no indexes — the usual state during a
        fixpoint, where recursive heads are scanned or probed through
        *other* relations' indexes) takes them as plain ``array`` appends.
        When a membership table or index does exist it is maintained row
        by row, so the rows-known-new contract never corrupts reads.

        Only the first row's sorts are validated: one clause firing derives
        same-typed rows.
        """
        if not rows:
            return
        first = rows[0]
        if len(first) != self.arity:
            raise SchemaError(
                f"coded tuple of arity {len(first)} inserted into "
                f"relation of arity {self.arity}")
        rowtype = tuple(map(_POOL.sort_of_code, first))
        if self._schema is None:
            self._schema = rowtype
        elif rowtype != self._schema:
            raise SchemaError(
                f"coded tuple of type {format_type(rowtype)} inserted into "
                f"relation of type {format_type(self._schema)}")
        columns = self._columns
        n = self._size
        # C-level transpose + bulk extend: zip(*rows) never touches
        # bytecode per cell the way a per-row append loop would.
        for col, values in zip(columns, zip(*rows)):
            col.extend(values)
        self._size = n + len(rows)
        self._column_stats = None
        # Maintain any live index incrementally: keys come off the row
        # tuples (already boxed), row numbers continue from the old size.
        for positions, index in self._indexes.items():
            get = index.get
            if len(positions) == 1:
                p = positions[0]
                r = n
                for coded in rows:
                    key = coded[p]
                    bucket = get(key)
                    if bucket is None:
                        index[key] = [r]
                    else:
                        bucket.append(r)
                    r += 1
            else:
                r = n
                for coded in rows:
                    key = tuple(coded[p] for p in positions)
                    bucket = get(key)
                    if bucket is None:
                        index[key] = [r]
                    else:
                        bucket.append(r)
                    r += 1
        # Maintain the membership table only if one was already built
        # (rows are known new, so no duplicate check — just find a free
        # slot).  A pristine relation stays table-less.
        if self._table is not None:
            if (self._size + self._tombs) * 3 >= (self._mask + 1) * 2:
                # The rebuild re-hashes every row, new ones included.
                self._rebuild_table(_table_cap(self._size))
            else:
                table = self._table
                mask = self._mask
                r = n
                for coded in rows:
                    h = hash(coded)
                    slot = h & mask
                    perturb = h & 0xFFFFFFFFFFFFFFFF
                    while table[slot] >= 0:
                        perturb >>= 5
                        slot = (slot * 5 + perturb + 1) & mask
                    if table[slot] == _TOMBSTONE:
                        self._tombs -= 1
                    table[slot] = r
                    r += 1

    def drop_indexes(self) -> None:
        """Discard all hash indexes (they rebuild lazily on next probe).

        The semi-naive loop calls this on head relations between the
        naive round and the delta rounds: an index probed once during the
        naive pass would otherwise be maintained on every append for the
        rest of the fixpoint.  If a delta round does probe the relation
        again, the index rebuilds once and is maintained from then on.
        """
        self._indexes.clear()

    def _code_set(self) -> set[int]:
        """All distinct codes stored anywhere in the relation."""
        codes: set[int] = set()
        for col in self._columns:
            codes.update(col)
        return codes

    # -- value-level reads ---------------------------------------------------

    def match(self, pattern: tuple[Optional[Value], ...]) -> Iterator[tuple]:
        """Yield tuples matching a partial pattern (``None`` = wildcard).

        Uses the coded hash index on the bound positions when any exist; a
        bound constant the pool has never seen matches nothing.
        """
        bound = tuple(i for i, v in enumerate(pattern) if v is not None)
        if not bound:
            yield from self
            return
        key = _known_codes(pattern[i] for i in bound)
        if key is None:
            return
        index = self.index_on_coded(bound)
        bucket = index.get(key[0] if len(bound) == 1 else key)
        if not bucket:
            return
        columns = self._columns
        decode = _POOL.decode
        for r in bucket:
            yield tuple(decode(col[r]) for col in columns)

    def column_stats(self) -> tuple[int, ...]:
        """Per-position distinct-value counts, cached until the next mutation.

        The selectivity statistics the cost-based planner
        (:mod:`repro.datalog.planner`) feeds its uniform-distribution
        estimates, computed directly over the code arrays — no decoding,
        one C-speed ``set`` per column.
        """
        if self._column_stats is None:
            self._column_stats = tuple(
                len(set(col)) for col in self._columns)
        return self._column_stats

    def memory_stats(self) -> dict:
        """Resource introspection: rows, index shape, resident bytes.

        Returns a JSON-ready dict.  ``approx_bytes`` is the relation's
        *resident* footprint — column arrays, membership table, and every
        hash index (dict, keys, row-index buckets) — while
        ``logical_bytes`` is the information-theoretic floor of the code
        matrix (8 bytes per cell).  ``distinct_constants`` over ``cells``
        is the relation's interning ratio: how much the dictionary
        encoding deduplicates.  The constant pool itself is shared,
        process-global state and is reported once by ``Database.stats()``,
        not per relation.
        """
        resident = sys.getsizeof(self._columns)
        resident += sum(sys.getsizeof(col) for col in self._columns)
        if self._table is not None:
            resident += sys.getsizeof(self._table)
        resident += sys.getsizeof(self._indexes)
        buckets = 0
        for index in self._indexes.values():
            resident += sys.getsizeof(index)
            buckets += len(index)
            for key, bucket in index.items():
                resident += sys.getsizeof(key) + sys.getsizeof(bucket)
        rows = self._size
        return {
            "rows": rows,
            "arity": self.arity,
            "indexes": len(self._indexes),
            "index_buckets": buckets,
            "approx_bytes": resident,
            "bytes_per_tuple": round(resident / rows, 1) if rows else 0.0,
            "logical_bytes": 8 * self.arity * rows,
            "distinct_constants": len(self._code_set()),
            "cells": rows * self.arity,
        }

    def project(self, positions: tuple[int, ...]) -> "Relation":
        """Return the projection onto the given 0-based positions."""
        schema = None
        if self._schema is not None:
            schema = tuple(self._schema[p] for p in positions)
        result = Relation(len(positions), schema)
        columns = self._columns
        if len(positions) == 1:
            col = columns[positions[0]]
            for code in set(col):
                result.add_coded((code,))
        else:
            pcols = [columns[p] for p in positions]
            insert = result.add_coded
            for r in range(self._size):
                insert(tuple(c[r] for c in pcols))
        return result

    def u_constants(self) -> frozenset[str]:
        """All sort-u values appearing in the relation."""
        consts: set[str] = set()
        decode = _POOL.decode
        for col in self._columns:
            for code in set(col):
                if not code & 1:
                    value = decode(code)
                    if isinstance(value, str):
                        consts.add(value)
        return frozenset(consts)

    def copy(self) -> "Relation":
        """An independent copy (indexes are not copied).

        The contents are already known valid, so the copy shares the
        schema and duplicates the code arrays and membership table
        directly instead of re-validating every row through :meth:`add`.
        """
        clone = Relation(self.arity, self._schema)
        clone._columns = [array("q", col) for col in self._columns]
        clone._size = self._size
        if self._table is not None:
            clone._table = array("q", self._table)
            clone._mask = self._mask
            clone._tombs = self._tombs
        return clone

    def frozen(self) -> frozenset[tuple[Value, ...]]:
        """The contents as a frozenset of value tuples (hashable snapshot)."""
        if not self.arity:
            return frozenset([()] * min(self._size, 1))
        return frozenset(zip(*map(_POOL.decode_column, self._columns)))

    def __contains__(self, row: tuple[Value, ...]) -> bool:
        if len(row) != self.arity:
            return False
        coded = _known_codes(row)
        return coded is not None and self.contains_coded(coded)

    def __iter__(self) -> Iterator[tuple[Value, ...]]:
        if not self.arity:
            for _ in range(self._size):
                yield ()
            return
        yield from zip(*map(_POOL.decode_column, self._columns))

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self.arity != other.arity or self._size != other._size:
            return False
        contains = other.contains_coded
        return all(contains(coded) for coded in self.coded_rows())

    def __hash__(self) -> int:  # pragma: no cover - relations are mutable
        raise TypeError("Relation is mutable; use .frozen() for hashing")

    def __repr__(self) -> str:
        sample = sorted(self, key=repr)[:4]
        suffix = ", ..." if self._size > 4 else ""
        rows = ", ".join(repr(r) for r in sample)
        return f"Relation(arity={self.arity}, {{{rows}{suffix}}})"


class Database:
    """A named collection of relations plus a u-domain (Section 2.1).

    The u-domain defaults to the set of u-constants appearing in the stored
    relations but can be declared larger (the paper allows domain elements
    not mentioned by any tuple).
    """

    def __init__(self, relations: Optional[Mapping[str, Relation]] = None,
                 udomain: Optional[Iterable[str]] = None) -> None:
        self._relations: dict[str, Relation] = dict(relations or {})
        self._declared_udomain = frozenset(udomain) if udomain is not None else None

    @classmethod
    def from_facts(cls, facts: Mapping[str, Iterable[tuple[Value, ...]]],
                   udomain: Optional[Iterable[str]] = None) -> "Database":
        """Build a database from ``{predicate: iterable of tuples}``.

        >>> db = Database.from_facts({"emp": [("ann", "toys"), ("bob", "toys")]})
        >>> len(db.relation("emp"))
        2
        """
        relations = {}
        for name, rows in facts.items():
            rows = [tuple(r) for r in rows]
            if not rows:
                raise SchemaError(
                    f"cannot infer the arity of empty relation {name}; "
                    "use add_relation with an explicit arity")
            relation = Relation(len(rows[0]))
            relation.update(rows)
            relations[name] = relation
        return cls(relations, udomain)

    @property
    def udomain(self) -> frozenset[str]:
        """The u-domain: declared, or inferred from stored u-constants."""
        inferred: set[str] = set()
        for relation in self._relations.values():
            inferred |= relation.u_constants()
        if self._declared_udomain is not None:
            return self._declared_udomain | frozenset(inferred)
        return frozenset(inferred)

    def relation_names(self) -> frozenset[str]:
        """The names of all stored relations."""
        return frozenset(self._relations)

    def relation(self, name: str) -> Relation:
        """Look up a relation by name.

        Raises:
            KeyError: when no relation of that name exists.
        """
        return self._relations[name]

    def relation_or_empty(self, name: str, arity: int) -> Relation:
        """Look up a relation, or return a fresh empty one of ``arity``."""
        existing = self._relations.get(name)
        if existing is not None:
            return existing
        return Relation(arity)

    def add_relation(self, name: str, relation: Relation,
                     replace: bool = False) -> None:
        """Install a relation under ``name``.

        Raises:
            SchemaError: when the name is taken and ``replace`` is False.
        """
        if name in self._relations and not replace:
            raise SchemaError(f"relation {name} already exists")
        self._relations[name] = relation

    def add_fact(self, name: str, row: tuple[Value, ...]) -> bool:
        """Insert one tuple, creating the relation on first use."""
        relation = self._relations.get(name)
        if relation is None:
            relation = Relation(len(row))
            self._relations[name] = relation
        return relation.add(row)

    def copy(self) -> "Database":
        """A deep-ish copy (relations copied, code arrays duplicated)."""
        return Database({n: r.copy() for n, r in self._relations.items()},
                        self._declared_udomain)

    def facts(self) -> frozenset[tuple[str, tuple[Value, ...]]]:
        """Every stored tuple as a ``(name, row)`` fact."""
        facts = set()
        for name in self.relation_names():
            for row in self._relations[name]:
                facts.add((name, row))
        return frozenset(facts)

    def snapshot(self) -> dict[str, frozenset]:
        """Hashable snapshot: name -> frozenset of tuples."""
        return {n: r.frozen() for n, r in self._relations.items()}

    def stats(self) -> dict:
        """Memory/cardinality introspection over every stored relation.

        Returns ``{"relations": {name: Relation.memory_stats()},
        "relation_count", "total_rows", "total_approx_bytes",
        "total_logical_bytes", "udomain_size"}`` plus the dictionary-
        encoding report: ``distinct_constants`` (over all stored cells),
        ``total_cells``, their quotient ``interning_ratio``, and the
        process-wide constant pool's ``pool_constants`` /
        ``pool_approx_bytes`` (shared state, counted once, not per
        relation) — the report behind ``repro-idlog stats``.
        """
        per_relation = {name: relation.memory_stats()
                        for name, relation in self._relations.items()}
        codes: set[int] = set()
        for relation in self._relations.values():
            codes |= relation._code_set()
        cells = sum(s["cells"] for s in per_relation.values())
        pool = GLOBAL_POOL.stats()
        return {
            "relations": per_relation,
            "relation_count": len(per_relation),
            "total_rows": sum(s["rows"] for s in per_relation.values()),
            "total_approx_bytes": sum(
                s["approx_bytes"] for s in per_relation.values()),
            "total_logical_bytes": sum(
                s["logical_bytes"] for s in per_relation.values()),
            "distinct_constants": len(codes),
            "total_cells": cells,
            "interning_ratio": round(len(codes) / cells, 4) if cells else 0.0,
            "pool_constants": pool["constants"],
            "pool_approx_bytes": pool["approx_bytes"],
            "udomain_size": len(self.udomain),
        }

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{n}/{r.arity}:{len(r)}" for n, r in sorted(self._relations.items()))
        return f"Database({parts})"


def relation_from_csv(text: str, numeric_columns: Iterable[int] = ()) -> Relation:
    """Parse CSV text into a relation.

    Args:
        text: CSV content; every row must have the same number of fields.
        numeric_columns: 0-based column indexes to parse as sort-i integers.
    """
    numeric = frozenset(numeric_columns)
    rows = []
    for record in csv.reader(io.StringIO(text)):
        if not record:
            continue
        row = tuple(
            int(field) if i in numeric else field
            for i, field in enumerate(record))
        rows.append(row)
    if not rows:
        raise SchemaError("empty CSV: cannot infer relation arity")
    relation = Relation(len(rows[0]))
    relation.update(rows)
    return relation


def relation_to_csv(relation: Relation) -> str:
    """Render a relation as CSV text with deterministic (sorted) row order."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in sorted(relation, key=lambda r: tuple(map(str, r))):
        writer.writerow(row)
    return buffer.getvalue()
