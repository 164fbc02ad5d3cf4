"""Isolated per-layer probes of the traced pass.

These time single public functions of the storage, index and planning
layers on their own, away from any query: a replayed database build, a
bare table scan, a join-index lookup and positional fetch, and one
planning call per registered search strategy.  Unlike the workloads they
reach below the package exports (``HeapTable.scan_batches``, the join
index's ``lookup``, the ``OPTIMIZERS`` registry), so each runs under
:func:`harness.probe`: when a probed name is gone the metric reads 0 with
a note, and the benchmark keeps running on the commit that simplified the
layer away.
"""

from __future__ import annotations

import random
from typing import Dict, List

import gen
from harness import probe, timed
from repro import Database
from repro.workload import build_paper_schema, generate_fact_rows

SWEEP_STRATEGIES = ("tplo", "etplg", "gg", "bgg", "dag")
SWEEP_REPEATS = 3
INDEX_REPEATS = 20


def replay_build(config, out: Dict[str, float]):
    """Rebuild the workload's database step by step, as
    ``build_paper_database`` does, timing load, materialization and
    indexing apart.  Returns the fresh database, never yet scanned."""
    schema = build_paper_schema(config)
    db = Database(
        schema, page_size=config.page_size, buffer_pages=config.buffer_pages
    )
    rows = generate_fact_rows(schema, config.n_base_rows, seed=config.seed)
    _, load_s = timed(db.load_base, rows, name="ABCD")
    out["storage.load_rows_per_s"] = len(rows) / load_s
    _, out["storage.materialize_s"] = timed(
        lambda: [db.materialize(groupby) for groupby in config.materialized]
    )
    _, out["index.build_s"] = timed(
        lambda: [
            db.index_all_dimensions(table, dim_names=list(config.indexed_dims))
            for table in config.indexed_tables
        ]
    )
    return db


def _private_pool(db):
    from repro.storage import BufferPool, IOStats

    return BufferPool(IOStats(), capacity_pages=db.pool.capacity_pages)


def scan_probe(db, out: Dict[str, float], notes: List[str]) -> None:
    """A bare columnar scan of the base table on a private pool: the first
    touch after the build (which pays any lazy column decode) and a warm
    repeat."""

    def scan_ms() -> float:
        table = db.catalog.get("ABCD").table
        pool = _private_pool(db)
        batches = table.scan_batches(pool, db.schema.n_dims)
        return timed(lambda: sum(1 for _ in batches))[1] * 1e3

    out["storage.first_scan_ms"] = probe(scan_ms, notes, "storage.first_scan_ms")
    out["storage.scan_ms"] = probe(
        lambda: min(scan_ms() for _ in range(3)), notes, "storage.scan_ms"
    )


def index_probe(db, seed: int, out: Dict[str, float], notes: List[str]) -> None:
    """The index side of a ``probe4`` class in isolation: per point query,
    look its members up in the base table's join indexes and AND the
    bitmaps; then fetch the rows under the union bitmap."""
    queries = gen.point_queries(db.schema, random.Random(seed), 4)

    def union_bitmap():
        from repro import IOStats

        entry = db.catalog.get("ABCD")
        stats = IOStats()
        union = None
        for query in queries:
            selected = None
            for pred in query.predicates:
                index = entry.index_for(pred.dim_index, entry.levels[pred.dim_index])
                if index is None:
                    continue
                dim = db.schema.dimensions[pred.dim_index]
                members = [
                    leaf
                    for member in pred.member_ids
                    for leaf in dim.descendants(pred.level, member, index.level)
                ]
                bitmap = index.lookup(members, stats)
                selected = bitmap if selected is None else selected & bitmap
            union = selected if union is None else union | selected
        return union

    def lookup_ms() -> float:
        return min(timed(union_bitmap)[1] for _ in range(INDEX_REPEATS)) * 1e3

    def fetch_ms() -> float:
        table = db.catalog.get("ABCD").table
        positions = union_bitmap().positions()
        pool = _private_pool(db)
        return (
            min(
                timed(table.fetch_positions, pool, positions, db.schema.n_dims)[1]
                for _ in range(INDEX_REPEATS)
            )
            * 1e3
        )

    out["index.lookup_ms"] = probe(lookup_ms, notes, "index.lookup_ms")
    out["index.fetch_ms"] = probe(fetch_ms, notes, "index.fetch_ms")


def optimizer_sweep(db, queries, out: Dict[str, float], notes: List[str]) -> None:
    """Planning wall of each registered strategy on one query set (best of
    ``SWEEP_REPEATS``).  A strategy missing from the registry reads 0."""

    def registered() -> set:
        from repro.core.optimizer import OPTIMIZERS

        return set(OPTIMIZERS)

    names = probe(registered, notes, "plan.<strategy>_ms") or set()
    for name in SWEEP_STRATEGIES:
        metric = f"plan.{name}_ms"
        if name not in names:
            notes.append(f"{metric}: strategy not registered")
            out[metric] = 0.0
            continue
        out[metric] = (
            min(timed(db.optimize, queries, name)[1] for _ in range(SWEEP_REPEATS))
            * 1e3
        )
