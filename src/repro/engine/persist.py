"""Saving and loading databases.

A :class:`~repro.engine.database.Database` round-trips through a directory:

* ``schema.json`` — dimensions (level names, member names, parent arrays),
  measure, schema name;
* ``catalog.json`` — per table: levels, clustered flag, source aggregate,
  page size, which join indexes exist (kind + dimension + level);
* ``<table>.npz`` — the table's rows as numpy arrays (keys as int64
  columns, measure as float64).

Join indexes and table statistics are *rebuilt* on load rather than
serialized: they are derived data, their builders are deterministic, and
rebuilding keeps the format small and forward-compatible.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Dict, List

import numpy as np

from ..schema.dimension import Dimension
from ..schema.star import StarSchema
from ..storage.iostats import CostRates
from .database import Database

FORMAT_VERSION = 1

_SAFE_NAME_TABLE = str.maketrans({"'": "_p", "(": "_", ")": "_", "*": "_s"})


def _file_stem(table_name: str) -> str:
    """A filesystem-safe stem for a table name (primes etc. translated)."""
    return table_name.translate(_SAFE_NAME_TABLE)


def save_database(db: Database, directory: str | Path) -> Path:
    """Serialize ``db`` into ``directory`` (created if needed)."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    schema_doc = {
        "version": FORMAT_VERSION,
        "name": db.schema.name,
        "measure": db.schema.measure,
        "page_size": db.page_size,
        "buffer_pages": db.pool.capacity_pages,
        "dimensions": [
            {
                "name": dim.name,
                "level_names": [lv.name for lv in dim.levels],
                "member_names": [
                    [dim.member_name(depth, m) for m in range(dim.n_members(depth))]
                    for depth in range(dim.n_levels)
                ],
                "parents": [
                    dim.rollup_map(depth, depth + 1).tolist()
                    for depth in range(dim.n_levels - 1)
                ],
            }
            for dim in db.schema.dimensions
        ],
    }
    (root / "schema.json").write_text(json.dumps(schema_doc, indent=1))

    catalog_doc: Dict[str, dict] = {}
    for entry in db.catalog.entries():
        stem = _file_stem(entry.name)
        catalog_doc[entry.name] = {
            "file": f"{stem}.npz",
            "levels": list(entry.levels),
            "clustered": entry.clustered,
            "source_aggregate": entry.source_aggregate,
            "indexes": [
                {
                    "dim_index": dim_index,
                    "level": level,
                    "kind": type(index).__name__,
                }
                for (dim_index, level), index in sorted(entry.indexes.items())
            ],
        }
        keys, measures = entry.table.read_columns(db.schema.n_dims)
        arrays = {f"key{d}": key for d, key in enumerate(keys)}
        arrays["measure"] = measures
        np.savez_compressed(root / f"{stem}.npz", **arrays)
    (root / "catalog.json").write_text(json.dumps(catalog_doc, indent=1))
    return root


def _typed(doc: dict, **fields) -> dict:
    """``doc``, its ``fields`` checked to have exactly those types (so a
    bool is no int; a tuple lists the choices)."""
    for key, kind in fields.items():
        if type(doc[key]) not in (kind if isinstance(kind, tuple) else (kind,)):
            raise ValueError(f"field {key!r} is a {type(doc[key]).__name__}")
    return doc


def load_database(
    directory: str | Path, rates: CostRates | None = None
) -> Database:
    """Reconstruct a database saved by :func:`save_database`.

    Join indexes are rebuilt from the declared metadata; statistics are not
    restored (re-run :meth:`Database.analyze` if needed).  Bad input — a
    missing or unreadable file, invalid JSON, a missing or wrong-typed field,
    an unsupported version, a table file outside ``directory`` — raises
    :class:`ValueError` naming the file."""
    root = Path(directory)
    where = root / "schema.json"
    try:
        schema_doc = _typed(
            json.loads(where.read_text()), version=int, name=str, measure=str,
            page_size=int, buffer_pages=int, dimensions=list,
        )
        if schema_doc["version"] != FORMAT_VERSION:
            raise ValueError(
                f"unsupported format version {schema_doc['version']!r}"
            )
        dimensions: List[Dimension] = []
        for doc in schema_doc["dimensions"]:
            _typed(doc, name=str, level_names=list, parents=list, member_names=list)
            dimensions.append(
                Dimension(
                    name=doc["name"],
                    level_names=doc["level_names"],
                    parents=[np.asarray(p, dtype=np.int64) for p in doc["parents"]],
                    member_names=doc["member_names"],
                )
            )
        schema = StarSchema(
            schema_doc["name"], dimensions, measure=schema_doc["measure"]
        )
        db = Database(
            schema,
            page_size=schema_doc["page_size"],
            buffer_pages=schema_doc["buffer_pages"],
            rates=rates,
        )
        where = catalog_path = root / "catalog.json"
        catalog_doc = json.loads(where.read_text())
        # Base tables load first: register order is stable, derivations hold.
        ordered = sorted(
            catalog_doc.items(),
            key=lambda item: (item[1]["source_aggregate"] is not None, item[0]),
        )
        from ..storage.table import HeapTable

        for name, doc in ordered:
            _typed(doc, file=str, levels=list, clustered=bool,
                   source_aggregate=(str, type(None)), indexes=list)
            if root.resolve() not in (root / doc["file"]).resolve().parents:
                raise ValueError(f"table {name!r}'s file is outside {root}")
            where = root / doc["file"]
            with np.load(where) as arrays:
                keys = [arrays[f"key{d}"] for d in range(schema.n_dims)]
                measures = arrays["measure"]
            columns = [dim.name for dim in schema.dimensions]
            columns.append(schema.measure)
            table = HeapTable(name, columns, page_size=db.page_size)
            table.extend_columns(keys, measures)
            where = catalog_path
            entry = db.catalog.register(
                table,
                tuple(doc["levels"]),
                clustered=doc["clustered"],
                source_aggregate=doc["source_aggregate"],
            )
            for index_doc in doc["indexes"]:
                _typed(index_doc, dim_index=int, level=int, kind=str)
                kind = (
                    "btree"
                    if index_doc["kind"] == "PositionListJoinIndex"
                    else "bitmap"
                )
                db.create_bitmap_index(
                    entry.name,
                    schema.dimensions[index_doc["dim_index"]].name,
                    level=index_doc["level"],
                    kind=kind,
                )
    except (OSError, ValueError, LookupError, TypeError, AttributeError,
            EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{where}: {type(exc).__name__}: {exc}") from exc
    return db
