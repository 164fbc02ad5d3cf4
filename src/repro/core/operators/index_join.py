"""Bitmap-index star joins: the single-query plan (the Figure 3/steps 1–7
walkthrough) and the paper's *shared index join* (Section 3.2).

A query's result bitmap is built by OR-ing the bitmaps of its selected
members within each dimension and AND-ing across dimensions.  The shared
operator then ORs the per-query result bitmaps, probes the base table once
with the union, and routes each retrieved tuple to the queries whose own
bitmap has that position set (the paper's "Filter tuples" operators).

The probe phase is a vectorized columnar gather
(:meth:`~repro.storage.table.HeapTable.fetch_positions`) and routing tests
positions directly against the packed bitmap words
(:meth:`~repro.index.bitmap.Bitmap.test_positions`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ...index.bitmap import Bitmap, and_all
from ...index.bitmap_index import JoinIndex
from ...obs.metrics import default_registry
from ...schema.lattice import source_can_answer
from ...schema.query import DimPredicate, GroupByQuery
from ...storage.catalog import TableEntry
from .pipeline import ExecContext, QueryPipeline, RollupCache
from .results import OperatorActuals, QueryResult


class MissingIndexError(LookupError):
    """Raised when an index-based plan needs a join index that was not built."""


def usable_index(
    ctx: ExecContext, entry: TableEntry, predicate: DimPredicate
) -> Optional[Tuple[JoinIndex, List[int]]]:
    """Find a join index able to evaluate ``predicate`` on ``entry``.

    The index is :meth:`TableEntry.covering_index`'s; when it sits at a
    finer level than the predicate, each predicate member is translated into
    its descendant members there.  Returns the index and the member ids to
    look up, or None when no usable index exists (the predicate then becomes
    a residual filter in the query pipeline).
    """
    best = entry.covering_index(predicate.dim_index, predicate.level)
    if best is None:
        return None
    if best.level == predicate.level:
        members = sorted(predicate.member_ids)
    else:
        dim = ctx.schema.dimensions[predicate.dim_index]
        members = sorted(
            descendant
            for member in predicate.member_ids
            for descendant in dim.descendants(predicate.level, member, best.level)
        )
    return best, members


def query_result_bitmap(
    ctx: ExecContext, entry: TableEntry, query: GroupByQuery
) -> Bitmap:
    """Steps 1–5 of the paper's bitmap join: per-dimension OR (inside the
    index lookup), then AND across dimensions.

    Predicates on unindexed dimensions do not narrow the bitmap; the query
    pipeline re-applies every predicate as a residual filter, so correctness
    never depends on index availability.  Raises :class:`MissingIndexError`
    when *no* predicate is indexable (an index plan would be pointless).
    """
    if not query.predicates:
        # Degenerate: no selection — every row qualifies.
        return Bitmap.ones(entry.table.n_rows)
    per_dim: List[Bitmap] = []
    for predicate in query.predicates:
        found = usable_index(ctx, entry, predicate)
        if found is None:
            continue
        index, members = found
        per_dim.append(index.lookup(members, ctx.stats, faults=ctx.faults))
    if not per_dim:
        raise MissingIndexError(
            f"table {entry.name!r} has no join index usable by any "
            f"predicate of {query.display_name()}"
        )
    result = and_all(per_dim, n_bits=entry.table.n_rows)
    if len(per_dim) > 1:
        ctx.stats.charge_bitmap_words(result.n_words * (len(per_dim) - 1))
        default_registry().counter(
            "bitmap.and_ops", "bitmap AND operations (across dimensions)"
        ).inc(len(per_dim) - 1)
    return result


class IndexStarJoin:
    """Single-query bitmap-index star join (steps 1–7 of Section 3.2)."""

    def __init__(self, ctx: ExecContext, source_name: str, query: GroupByQuery):
        self.ctx = ctx
        self.source = ctx.entry(source_name)
        self.query = query
        #: Filled during :meth:`run` — the operator's measured actuals.
        self.actuals = OperatorActuals(
            operator=type(self).__name__, source=source_name
        )
        if not source_can_answer(
            self.source.levels, self.source.source_aggregate, query
        ):
            raise ValueError(
                f"{query.display_name()} cannot be answered from "
                f"{source_name!r} (levels {self.source.levels}, "
                f"measure {self.source.source_aggregate!r})"
            )

    def run_single(self) -> QueryResult:
        """Execute for the single query; returns its result."""
        ctx = self.ctx
        bitmap = query_result_bitmap(ctx, self.source, self.query)
        positions = bitmap.positions()
        actuals = self.actuals
        actuals.union_popcount = int(bitmap.count())
        actuals.probes_issued = int(positions.size)
        actuals.bitmap_popcounts[self.query.qid] = int(bitmap.count())
        if ctx.faults is not None:
            ctx.faults.check(
                "operator.pipeline",
                operator=type(self).__name__,
                table=self.source.name,
            )
        # Random page reads through the pool, one per page change in
        # first-touch order; rows come back column-wise in position order.
        keys, measures = self.source.table.fetch_positions(
            ctx.pool, positions, ctx.schema.n_dims
        )
        rollups = RollupCache(
            ctx.schema, ctx.stats, pool=ctx.pool, dim_tables=ctx.dim_tables
        )
        pipeline = QueryPipeline(
            ctx.schema,
            self.query,
            self.source.levels,
            rollups,
            source_aggregate=self.source.source_aggregate,
        )
        pipeline.process_batch(keys, measures, ctx.stats)
        result = pipeline.result()
        actuals.record_pipeline(
            self.query.qid, pipeline, result, ctx.stats.rates
        )
        return result

    def run(self) -> List[QueryResult]:
        """Execute the operator; returns per-query results in input order."""
        return [self.run_single()]


class SharedIndexStarJoin:
    """Shared index join: one probe of the base table serves every query."""

    def __init__(
        self,
        ctx: ExecContext,
        source_name: str,
        queries: Sequence[GroupByQuery],
    ):
        if not queries:
            raise ValueError("need at least one query")
        self.ctx = ctx
        self.source = ctx.entry(source_name)
        self.queries = list(queries)
        #: Filled during :meth:`run` — the operator's measured actuals.
        self.actuals = OperatorActuals(
            operator=type(self).__name__, source=source_name
        )
        for query in self.queries:
            if not source_can_answer(
                self.source.levels, self.source.source_aggregate, query
            ):
                raise ValueError(
                    f"{query.display_name()} cannot be answered from "
                    f"{source_name!r} (levels {self.source.levels}, "
                    f"measure {self.source.source_aggregate!r})"
                )

    def run(self) -> List[QueryResult]:
        """Execute the operator; returns per-query results in input order."""
        ctx = self.ctx
        actuals = self.actuals
        # Step 1: per-query result bitmaps, then OR them into one probe set.
        per_query = [
            query_result_bitmap(ctx, self.source, q) for q in self.queries
        ]
        union = per_query[0].copy()
        for bitmap in per_query[1:]:
            union.words |= bitmap.words
        if len(per_query) > 1:
            ctx.stats.charge_bitmap_words(union.n_words * (len(per_query) - 1))
        metrics = default_registry()
        metrics.counter(
            "bitmap.or_ops", "bitmap OR operations (union of result bitmaps)"
        ).inc(max(len(per_query) - 1, 0))
        # Step 2: probe the base table once with the union bitmap.
        positions = union.positions()
        actuals.union_popcount = int(union.count())
        actuals.probes_issued = int(positions.size)
        keys, measures = self.source.table.fetch_positions(
            ctx.pool, positions, ctx.schema.n_dims
        )
        # Step 3: "Filter tuples" — route each tuple to the queries whose own
        # bitmap has its position set.  Step 4: per-query aggregation.
        routed = metrics.counter(
            "executor.tuples_routed",
            "retrieved tuples tested against a query's result bitmap",
        )
        rollups = RollupCache(
            ctx.schema, ctx.stats, pool=ctx.pool, dim_tables=ctx.dim_tables
        )
        results: List[QueryResult] = []
        for query, bitmap in zip(self.queries, per_query):
            if ctx.faults is not None:
                ctx.faults.check(
                    "operator.pipeline",
                    operator=type(self).__name__,
                    table=self.source.name,
                )
            ctx.stats.charge_bitmap_test(positions.size)
            routed.inc(int(positions.size))
            # Packed-word routing: gather each position's covering word
            # and mask its bit — no full-bitmap unpack.
            mine = bitmap.test_positions(positions)
            actuals.bitmap_popcounts[query.qid] = int(bitmap.count())
            actuals.tuples_tested[query.qid] = int(positions.size)
            actuals.tuples_routed[query.qid] = int(mine.sum())
            pipeline = QueryPipeline(
                ctx.schema,
                query,
                self.source.levels,
                rollups,
                source_aggregate=self.source.source_aggregate,
            )
            pipeline.process_batch(
                [col[mine] for col in keys], measures[mine], ctx.stats
            )
            result = pipeline.result()
            actuals.record_pipeline(query.qid, pipeline, result, ctx.stats.rates)
            results.append(result)
        return results
