"""Directory-based database persistence.

A database saves to a directory of one CSV file per relation plus a
``_schema.json`` describing arities, sorts (the paper's 0/1 strings) and
the declared u-domain.  :func:`save_database` writes one format and
:func:`load_database` reads two:

* **Format 2** is the columnar snapshot: ``_pool.json`` holds
  the interned constants the snapshot references (ints first, then
  strings, each group sorted — byte-stable regardless of insertion
  order), and each relation CSV holds *file-local tagged codes*: odd
  cells are inline sort-i integers exactly as the in-memory encoding has
  them (``value*2+1``), even cells are ``local_index*2`` into
  ``_pool.json``.  Loading re-encodes each pooled object through the
  process's own :data:`~repro.datalog.pool.GLOBAL_POOL` — snapshots move
  between processes whose pools have nothing in common, and the flat
  int-only CSVs are the stepping stone to mmap/spill storage.
* **Format 1** is the legacy value-level CSV layout (``_schema.json``
  without a ``format`` key); old snapshots still load, and their sort
  strings bring numeric columns back as sort-i integers.  For
  value-level CSV interchange, use
  :func:`~repro.datalog.database.relation_to_csv`.

>>> import os, tempfile
>>> db = Database.from_facts({"emp": [("ann", 3), ("bob", 5)]})
>>> with tempfile.TemporaryDirectory() as tmp:
...     save_database(db, os.path.join(tmp, "snapshot"))
...     db2 = load_database(os.path.join(tmp, "snapshot"))
>>> db2.snapshot() == db.snapshot()
True
"""

from __future__ import annotations

import json
import os

from ..errors import SchemaError
from .database import Database, Relation, relation_from_csv
from .pool import GLOBAL_POOL
from .terms import Sort, format_type, parse_type

SCHEMA_FILE = "_schema.json"
POOL_FILE = "_pool.json"

#: The snapshot layout :func:`save_database` writes.
STORAGE_FORMAT = 2


def _referenced_objects(db: Database) -> list:
    """Every interned constant a relation of ``db`` stores, sorted.

    Ints (the rare oversized ones) come first, then strings; each group
    is sorted so the pool file is deterministic for a given database
    content no matter what order tuples were inserted in.
    """
    codes: set[int] = set()
    for name in db.relation_names():
        for column in db.relation(name).coded_columns():
            codes.update(column)
    objs = [GLOBAL_POOL.decode(code) for code in codes if not code & 1]
    ints = sorted(o for o in objs if not isinstance(o, str))
    strs = sorted(o for o in objs if isinstance(o, str))
    return ints + strs


def save_database(db: Database, directory: str) -> None:
    """Write ``db`` to ``directory`` (created if needed) as a format-2
    snapshot: code CSVs plus ``_pool.json``.

    Raises:
        SchemaError: when a relation name is not filesystem-safe.
    """
    os.makedirs(directory, exist_ok=True)
    schema: dict = {"relations": {}, "udomain": sorted(db.udomain),
                    "format": STORAGE_FORMAT}
    pooled = _referenced_objects(db)
    local = {GLOBAL_POOL.encode(obj): i << 1
             for i, obj in enumerate(pooled)}
    with open(os.path.join(directory, POOL_FILE), "w") as handle:
        json.dump(pooled, handle)
    for name in sorted(db.relation_names()):
        if not name.replace("_", "").isalnum():
            raise SchemaError(f"relation name {name!r} is not file-safe")
        relation = db.relation(name)
        reltype = relation.schema
        if reltype is None:
            # Empty relation with undeclared schema: store all-u.
            reltype = (Sort.U,) * relation.arity
        schema["relations"][name] = {
            "arity": relation.arity,
            "type": format_type(reltype),
        }
        with open(os.path.join(directory, f"{name}.csv"), "w") as handle:
            for row in relation.coded_rows():
                handle.write(",".join(
                    str(c) if c & 1 else str(local[c]) for c in row))
                handle.write("\n")
    with open(os.path.join(directory, SCHEMA_FILE), "w") as handle:
        json.dump(schema, handle, indent=2, sort_keys=True)


def directory_stats(directory: str) -> dict:
    """On-disk introspection of a database saved by :func:`save_database`.

    Returns ``{"relations": {name: {"arity", "rows", "csv_bytes"}},
    "relation_count", "total_rows", "total_csv_bytes", "udomain_size",
    "format"}`` without loading any relation into memory — row counts
    come from counting CSV lines (both formats keep one row per line).
    The disk-side counterpart of
    :meth:`~repro.datalog.database.Database.stats`, surfaced as
    ``repro-idlog stats --dir``.

    Raises:
        SchemaError: on a missing schema file or relation CSV.
    """
    schema_path = os.path.join(directory, SCHEMA_FILE)
    if not os.path.exists(schema_path):
        raise SchemaError(f"{directory} has no {SCHEMA_FILE}")
    with open(schema_path) as handle:
        schema = json.load(handle)
    relations: dict[str, dict] = {}
    for name, info in schema["relations"].items():
        path = os.path.join(directory, f"{name}.csv")
        if not os.path.exists(path):
            raise SchemaError(
                f"relation {name} is recorded in {SCHEMA_FILE} but "
                f"{name}.csv is missing")
        with open(path) as handle:
            rows = sum(1 for line in handle if line.strip())
        relations[name] = {"arity": info["arity"], "rows": rows,
                           "csv_bytes": os.path.getsize(path)}
    return {
        "relations": relations,
        "relation_count": len(relations),
        "total_rows": sum(s["rows"] for s in relations.values()),
        "total_csv_bytes": sum(
            s["csv_bytes"] for s in relations.values()),
        "udomain_size": len(schema.get("udomain", ())),
        "format": schema.get("format", 1),
    }


def _load_coded_relation(path: str, arity: int, reltype,
                         remap: list, name: str) -> Relation:
    """Read a format-2 code CSV, remapping local codes to global ones."""
    rows: list[tuple[int, ...]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                cells = [int(cell) for cell in line.split(",")]
                row = tuple(c if c & 1 else remap[c >> 1] for c in cells)
            except (ValueError, IndexError) as exc:
                raise SchemaError(
                    f"relation {name}: corrupt coded CSV row {line!r}: "
                    f"{exc}") from exc
            if len(row) != arity:
                raise SchemaError(
                    f"relation {name}: CSV arity {len(row)} != "
                    f"recorded arity {arity}")
            rows.append(row)
    relation = Relation(arity, schema=reltype)
    if rows:
        relation.extend_coded(rows)
    return relation


def load_database(directory: str) -> Database:
    """Read a database previously written by :func:`save_database`.

    Handles both snapshot formats; format-2 pooled constants are
    re-interned into this process's global pool, so codes in the file
    never leak into memory unchanged.

    Raises:
        SchemaError: on a missing schema file, a missing pool file
            (format 2), or a CSV whose shape disagrees with the recorded
            arity.
    """
    schema_path = os.path.join(directory, SCHEMA_FILE)
    if not os.path.exists(schema_path):
        raise SchemaError(f"{directory} has no {SCHEMA_FILE}")
    with open(schema_path) as handle:
        schema = json.load(handle)
    fmt = schema.get("format", 1)
    remap: list = []
    if fmt == 2:
        pool_path = os.path.join(directory, POOL_FILE)
        if not os.path.exists(pool_path):
            raise SchemaError(
                f"{directory} is a format-2 snapshot but has no {POOL_FILE}")
        with open(pool_path) as handle:
            pooled = json.load(handle)
        # File-local even code i<<1 becomes this process's code of the
        # i-th pooled object (interned on first sight).
        remap = [GLOBAL_POOL.encode(obj) for obj in pooled]
    elif fmt != 1:
        raise SchemaError(f"unknown snapshot format {fmt!r}")
    relations: dict[str, Relation] = {}
    for name, info in schema["relations"].items():
        reltype = parse_type(info["type"])
        if len(reltype) != info["arity"]:
            raise SchemaError(
                f"relation {name}: type {info['type']} does not match "
                f"arity {info['arity']}")
        path = os.path.join(directory, f"{name}.csv")
        if fmt == 2:
            relations[name] = _load_coded_relation(
                path, info["arity"], reltype, remap, name)
            continue
        numeric = [i for i, sort in enumerate(reltype) if sort is Sort.I]
        with open(path) as handle:
            text = handle.read()
        if text.strip():
            relation = relation_from_csv(text, numeric_columns=numeric)
            if relation.arity != info["arity"]:
                raise SchemaError(
                    f"relation {name}: CSV arity {relation.arity} != "
                    f"recorded arity {info['arity']}")
        else:
            relation = Relation(info["arity"], schema=reltype)
        relations[name] = relation
    return Database(relations, udomain=schema.get("udomain"))
