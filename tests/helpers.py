"""Test helpers: tiny databases and random query generation."""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.core.operators.hash_join import SharedScanStarJoin
from repro.core.operators.results import QueryResult
from repro.engine.database import Database
from repro.schema.query import Aggregate, DimPredicate, GroupBy, GroupByQuery
from repro.schema.star import StarSchema
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
