"""Test helpers: tiny databases and random query generation."""

from __future__ import annotations

import itertools
import random

import numpy as np
from typing import List, Optional, Sequence, Tuple

from repro.core.operators.hash_join import SharedScanStarJoin
from repro.core.operators.results import QueryResult
from repro.core.optimizer import make_optimizer
from repro.engine.database import Database
from repro.schema.query import Aggregate, DimPredicate, GroupBy, GroupByQuery
from repro.schema.star import StarSchema
from repro.storage.iostats import IOStats
from repro.workload.generator import generate_fact_rows

from conftest import make_tiny_schema


def make_tiny_db(
    n_rows: int = 500,
    seed: int = 3,
    page_size: int = 64,
    materialized: Sequence[str] = (),
    index_tables: Sequence[str] = ("XY",),
) -> Database:
    """A loaded two-dimension database with optional views and indexes."""
    schema = make_tiny_schema()
    db = Database(schema, page_size=page_size, buffer_pages=256)
    db.load_base(generate_fact_rows(schema, n_rows, seed=seed), name="XY")
    for groupby in materialized:
        db.materialize(groupby)
    for table in index_tables:
        db.index_all_dimensions(table)
    return db


#: Aggregates whose result does not depend on fold order.
ORDER_FREE = (Aggregate.COUNT, Aggregate.MIN, Aggregate.MAX)


def assert_same_execution(expected, actual, context: str = "") -> None:
    """The numeric contract (DESIGN.md §6.1) between two executions of one
    plan that differ only in how the scan was batched: every integer
    ledger (per-class ``IOStats``, ``OperatorActuals``) and every
    COUNT/MIN/MAX value bit-equal; SUM/AVG equal under ``approx_equals``."""
    assert actual.failed_qids == expected.failed_qids, context
    for name in ("sim", "actuals"):
        assert [
            getattr(e, name).as_dict() for e in actual.class_executions
        ] == [
            getattr(e, name).as_dict() for e in expected.class_executions
        ], f"{context}: per-class {name} differ"
    assert set(actual.results) == set(expected.results), context
    for qid, want in expected.results.items():
        got = actual.results[qid]
        label = f"{context}: {want.query.display_name()}"
        if want.query.aggregate in ORDER_FREE:
            assert got.groups == want.groups, label
        else:
            assert got.approx_equals(want), label


def measured_execution(db: Database, plan):
    """Execute ``plan`` cold; return ``(report, db.stats delta)``."""
    before = db.stats.snapshot()
    report = db.execute(plan)
    return report, db.stats.delta_since(before).as_dict()


def assert_morsel_size_invariant(db, plans, monkeypatch, pages_rows) -> None:
    """Execute each ``(name, plan)`` page-at-a-time, check it against the
    reference evaluator, then re-execute at coarser morsel sizes — three
    pages (``pages_rows`` = 3 × the base table's rows per page), the
    shipped constant, the whole table — and hold every run to the numeric
    contract (:func:`assert_same_execution`, plus the ``db.stats`` delta
    and bit-equality of a repeat: morsel boundaries depend on page numbers
    only)."""
    from repro.check import first_divergence, reference_answer
    from repro.storage import table as table_module

    sizes = {
        "3 pages": pages_rows,
        "default": table_module.MORSEL_ROWS,
        "whole table": 10**9,
    }
    monkeypatch.setattr(table_module, "MORSEL_ROWS", 1)
    page_at_a_time = [measured_execution(db, plan) for _name, plan in plans]
    for (name, plan), (report, _delta) in zip(plans, page_at_a_time):
        for query in plan.queries:
            divergence = first_divergence(
                reference_answer(db, query).groups,
                report.result_for(query).groups,
            )
            assert divergence is None, f"{name}: {divergence.describe()}"
    for size, rows in sizes.items():
        monkeypatch.setattr(table_module, "MORSEL_ROWS", rows)
        for (name, plan), (expected, expected_delta) in zip(
            plans, page_at_a_time
        ):
            report, delta = measured_execution(db, plan)
            context = f"{name} at {size}"
            assert delta == expected_delta, context
            assert_same_execution(expected, report, context)
            again, _delta = measured_execution(db, plan)
            assert [
                list(r.groups.items()) for r in again.results.values()
            ] == [
                list(r.groups.items()) for r in report.results.values()
            ], context


def probe_positions(table, pool, positions):
    """The row-at-a-time oracle for ``HeapTable.fetch_positions``: one
    random ``get_page`` per page *change*, yielding ``(position, row)``."""
    current, rows = -1, []
    for position in positions:
        page_no, slot = table.position_to_page(position)
        if page_no != current:
            current, rows = page_no, pool.get_page(table, page_no, sequential=False).rows
        yield position, rows[slot]


def hash_star_join(db: Database, table: str, query: GroupByQuery) -> QueryResult:
    """One query through the shared-scan operator on its own — the paper's
    Figure 1 single-query hash star join."""
    return SharedScanStarJoin(db.ctx(), table, [query]).run()[query.qid]


def random_query(
    schema: StarSchema,
    rng: random.Random,
    label: str = "",
    max_members: int = 3,
) -> GroupByQuery:
    """A random well-formed query: random target levels, random predicates
    on a random subset of dimensions (at levels >= the target level is NOT
    required — predicates and targets are independent in MDX)."""
    levels = []
    predicates = []
    for d, dim in enumerate(schema.dimensions):
        levels.append(rng.randint(0, dim.all_level))
        if rng.random() < 0.6:
            pred_level = rng.randint(0, dim.n_levels - 1)
            domain = dim.n_members(pred_level)
            k = rng.randint(1, min(max_members, domain))
            members = frozenset(rng.sample(range(domain), k))
            predicates.append(DimPredicate(d, pred_level, members))
    # Mostly SUM (what views support), with occasional other aggregates to
    # exercise the routing rules.
    aggregate = Aggregate.SUM
    if rng.random() < 0.3:
        aggregate = rng.choice(
            [Aggregate.COUNT, Aggregate.MIN, Aggregate.MAX, Aggregate.AVG]
        )
    return GroupByQuery(
        groupby=GroupBy(tuple(levels)),
        predicates=tuple(predicates),
        aggregate=aggregate,
        label=label,
    )


def brute_force_optimum(
    db: Database, queries: Sequence[GroupByQuery]
) -> Tuple[float, List[Tuple[str, List[GroupByQuery]]]]:
    """The optimal global plan "found by exploring all possible query
    plans" (the paper's Table 2): every query→base-table assignment is
    costed as the classes it induces and the first cheapest kept.  t^n
    assignments — the independent oracle for the ``optimal``/``dp``
    planner.  Returns ``(cost, [(source, members), ...])``."""
    model = make_optimizer("naive", db).model  # a fresh, unshared CostModel
    candidates = [
        [e for e in db.catalog.entries() if model.standalone(e, query)]
        for query in queries
    ]
    best_cost, best_classes = float("inf"), []
    for assignment in itertools.product(*candidates):
        by_source = {}
        for query, entry in zip(queries, assignment):
            by_source.setdefault(entry.name, (entry, []))[1].append(query)
        total = 0.0
        for entry, group in by_source.values():
            costing = model.plan_class(entry, group)
            total += costing.cost_ms if costing else float("inf")
        if total < best_cost:
            best_cost = total
            best_classes = [(name, g) for name, (_e, g) in by_source.items()]
    return best_cost, best_classes


def reference_append_rows(db: Database, rows: Sequence[Tuple]) -> dict:
    """The tuple-at-a-time write path the engine shipped until PR 17, kept
    as the oracle for :func:`repro.engine.maintenance.append_rows`: append
    row by row, fold each view's delta into a dict in row order, merge it
    in ``sorted(delta.items())`` order — an existing group updated in its
    slot, a new one appended — and rebuild every index from scratch."""
    schema = db.schema
    n_dims = schema.n_dims
    (base,) = [entry for entry in db.catalog.entries() if entry.is_raw]
    rows = [tuple(row) for row in rows]
    for row in rows:
        base.table.append(row)
    report = {}
    for entry in db.catalog.entries():
        if entry.is_raw:
            continue
        aggregate = Aggregate(entry.source_aggregate)
        delta = {}
        for row in rows:
            key = tuple(
                dim.rollup(0, level, int(row[d]))
                for d, (dim, level) in enumerate(
                    zip(schema.dimensions, entry.levels)
                )
            )
            value = float(row[n_dims])
            if aggregate is Aggregate.SUM:
                delta[key] = delta.get(key, 0.0) + value
            elif aggregate is Aggregate.COUNT:
                delta[key] = delta.get(key, 0.0) + 1.0
            elif aggregate is Aggregate.MIN:
                delta[key] = min(delta.get(key, value), value)
            else:
                delta[key] = max(delta.get(key, value), value)
        positions = {
            tuple(row[:n_dims]): position
            for position, row in enumerate(entry.table.all_rows())
        }
        appended = 0
        for key, value in sorted(delta.items()):
            position = positions.get(key)
            if position is None:
                entry.table.append(key + (value,))
                appended += 1
                continue
            current = float(entry.table.row_at(position)[n_dims])
            if aggregate in (Aggregate.SUM, Aggregate.COUNT):
                merged = current + value
            elif aggregate is Aggregate.MIN:
                merged = min(current, value)
            else:
                merged = max(current, value)
            entry.table.update_measures(
                np.asarray([position]), np.asarray([merged])
            )
        report[entry.name] = appended
        if appended:
            entry.clustered = False
    for entry in db.catalog.entries():
        for key, index in entry.indexes.items():
            entry.indexes[key] = fresh_index(schema, entry, *key, type(index))
    report[base.name] = len(rows)
    db.notify_mutation()
    return report


def fresh_index(schema: StarSchema, entry, dim_index: int, level: int, kind):
    """A join index of ``kind`` built from scratch over ``entry``."""
    dim = schema.dimensions[dim_index]
    return kind.build(
        entry.table,
        entry.name,
        dim_index,
        level,
        column_index=dim_index,
        key_to_member=dim.rollup_map(entry.levels[dim_index], level),
        n_members=dim.n_members(level),
    )


def index_state(index, n_members: int) -> dict:
    """A join index's observable state — size accounting, every member's
    lookup bitmap and what the lookups charge — comparable with ``==``."""
    stats = IOStats()
    return {
        "kind": type(index).__name__,
        "n_rows": index.n_rows,
        "n_members": index.n_members,
        "n_pages": index.n_pages,
        "pages_per_lookup": [index.pages_per_lookup(n) for n in range(4)],
        "bitmaps": [
            index.lookup([member], stats).words.tobytes()
            for member in range(n_members)
        ],
        "charged": stats.as_dict(),
    }
