"""Saving and loading databases.

A :class:`~repro.engine.database.Database` round-trips through a directory:

* ``schema.json`` — dimensions (level names, member names, parent arrays),
  measure, schema name;
* ``catalog.json`` — per table: levels, clustered flag, source aggregate,
  page size, which join indexes exist (kind + dimension + level);
* ``<table>.npz`` — the table's rows as numpy arrays (keys as int64
  columns, the measure as float64 in its unit: ``12.34``, or a COUNT
  view's counts).  Storage holds the measure as int64 cents (or counts);
  loading converts back with :func:`~repro.storage.table.to_cents`, so a
  measure that is not whole cents is a bad file.

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

from ..document import DocumentError, field_of, load_json
from ..schema.dimension import Dimension
from ..schema.star import StarSchema
from ..storage.iostats import CostRates
from ..storage.table import CENTS, HeapTable, to_cents
from .database import Database

FORMAT_VERSION = 1

_SAFE_NAME_TABLE = str.maketrans({"'": "_p", "(": "_", ")": "_", "*": "_s"})


def _file_stem(table_name: str) -> str:
    """A filesystem-safe stem for a table name (primes etc. translated)."""
    return table_name.translate(_SAFE_NAME_TABLE)


def _scale(source_aggregate: str | None) -> int:
    """Stored units per saved unit: cents, or a COUNT view's counts."""
    return 1 if source_aggregate == "count" else CENTS


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
        arrays["measure"] = measures / _scale(entry.source_aggregate)
        np.savez_compressed(root / f"{stem}.npz", **arrays)
    (root / "catalog.json").write_text(json.dumps(catalog_doc, indent=1))
    return root


def load_database(
    directory: str | Path, rates: CostRates | None = None
) -> Database:
    """Reconstruct a database saved by :func:`save_database`.

    Join indexes are rebuilt from the declared metadata; statistics are not
    restored (re-run :meth:`Database.analyze` if needed).  Bad input follows
    docs/architecture.md §"Files from outside the program": a
    :class:`~repro.document.DocumentError` naming the file, also for an
    unsupported version or a table file outside ``directory``."""
    root = Path(directory)
    hint = "save one with `repro info --save DIR`"
    where = root / "schema.json"
    schema_doc = load_json(where, "saved database", hint=hint)
    catalog_doc = load_json(root / "catalog.json", "saved database", hint=hint)
    try:
        version = field_of(schema_doc, "version", int)
        if version != FORMAT_VERSION:
            raise DocumentError(f"unsupported format version {version!r}")
        dimensions: List[Dimension] = []
        for index, doc in enumerate(field_of(schema_doc, "dimensions", [dict])):
            at = f"dimensions[{index}]"
            dimensions.append(Dimension(
                field_of(doc, "name", str, where=at),
                field_of(doc, "level_names", [str], where=at),
                field_of(doc, "parents", [[int]], where=at),
                field_of(doc, "member_names", [[str]], where=at),
            ))
        schema = StarSchema(
            field_of(schema_doc, "name", str),
            dimensions,
            measure=field_of(schema_doc, "measure", str),
        )
        db = Database(
            schema,
            page_size=field_of(schema_doc, "page_size", int),
            buffer_pages=field_of(schema_doc, "buffer_pages", int),
            rates=rates,
        )
        where = catalog_path = root / "catalog.json"
        sources = {
            name: field_of(doc, "source_aggregate", (str, None), where=name)
            for name, doc in catalog_doc.items()
        }
        # Base tables load first: register order is stable, derivations hold.
        for name in sorted(sources, key=lambda n: (sources[n] is not None, n)):
            doc = catalog_doc[name]
            file = field_of(doc, "file", str, where=name)
            if root.resolve() not in (root / file).resolve().parents:
                raise DocumentError(f"table {name!r}'s file is outside {root}")
            where = root / file
            with np.load(where) as arrays:
                keys = [arrays[f"key{d}"] for d in range(schema.n_dims)]
                measures = to_cents(arrays["measure"], _scale(sources[name]))
            columns = [dim.name for dim in schema.dimensions]
            columns.append(schema.measure)
            table = HeapTable(name, columns, page_size=db.page_size)
            table.extend_columns(keys, measures)
            where = catalog_path
            entry = db.catalog.register(
                table,
                tuple(field_of(doc, "levels", [int], where=name)),
                clustered=field_of(doc, "clustered", bool, where=name),
                source_aggregate=sources[name],
            )
            indexes = field_of(doc, "indexes", [dict], where=name)
            for index, index_doc in enumerate(indexes):
                at = f"{name}.indexes[{index}]"
                dim_index = field_of(index_doc, "dim_index", int, where=at)
                kind = field_of(index_doc, "kind", str, where=at)
                db.create_bitmap_index(
                    entry.name,
                    schema.dimensions[dim_index].name,
                    level=field_of(index_doc, "level", int, where=at),
                    kind="btree" if kind == "PositionListJoinIndex" else "bitmap",
                )
    except (OSError, ValueError, LookupError, EOFError, zipfile.BadZipFile) as exc:
        raise DocumentError(f"saved database {where}: {exc}") from exc
    return db
