"""The paper's *shared index join* (Section 3.2), whose one-query case is
the single-query bitmap-index star join (steps 1–7 of the Figure 3
walkthrough).

A query's result bitmap is built by OR-ing the bitmaps of its selected
members within each dimension and AND-ing across dimensions.  The shared
operator then ORs the per-query result bitmaps, probes the base table once
with the union, and routes each retrieved tuple to the queries whose own
bitmap has that position set (the paper's "Filter tuples" operators).  With
one query there is nothing to OR or route: its bitmap is the probe set and
every retrieved tuple is its own.

The probe phase is a vectorized columnar gather
(:meth:`~repro.storage.table.HeapTable.fetch_positions`).  Routing is the
shared scan's router (:class:`~.pipeline.SharedProbe`) run over the
retrieved rows: a member's bitmap is the AND of its indexed predicates, so
a retrieved row is in it and passes the member's residual predicates
exactly when it passes all of the member's predicates — which one probe
per dimension decides for every member at once.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ...index.bitmap import Bitmap, and_all, or_all
from ...index.bitmap_index import JoinIndex
from ...schema.query import DimPredicate, GroupByQuery
from ...storage.catalog import TableEntry
from ...storage.iostats import merge_counts, routing_counts
from .pipeline import ExecContext, QueryPipeline, SharedProbe, settle_builds
from .pipeline import require_answerable
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
    ctx: ExecContext, entry: TableEntry, query: GroupByQuery, actuals: OperatorActuals
) -> Bitmap:
    """Steps 1–5 of the paper's bitmap join: per-dimension OR (inside the
    index lookup), then AND across dimensions (counted in ``actuals``).

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
        ctx.stats.charge(merge_counts(len(per_dim), result.n_words))
        actuals.and_ops += len(per_dim) - 1
    return result


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
        #: The paper's name for what this join is doing; recorded in the
        #: actuals and passed as the ``operator=`` fault-site attribute.
        self.label = (
            "SharedIndexStarJoin" if len(self.queries) > 1 else "IndexStarJoin"
        )
        #: Filled during :meth:`run` — the operator's measured actuals.
        self.actuals = OperatorActuals(operator=self.label, source=source_name)
        levels, aggregate = self.source.levels, self.source.source_aggregate
        require_answerable(levels, aggregate, self.queries, repr(source_name))

    def run(self) -> List[QueryResult]:
        """Execute the operator; returns per-query results in input order."""
        ctx, actuals, source = self.ctx, self.actuals, self.source
        n_members = len(self.queries)
        # Step 1: per-query result bitmaps, then OR them into one probe set.
        per_query = [
            query_result_bitmap(ctx, source, q, actuals) for q in self.queries
        ]
        union = or_all(per_query)
        if n_members > 1:
            ctx.stats.charge(merge_counts(n_members, union.n_words))
            actuals.or_ops += n_members - 1
        # Step 2: probe the base table once with the union bitmap.
        positions = union.positions()
        actuals.union_popcount = int(union.count())
        actuals.probes_issued = int(positions.size)
        keys, measures = source.table.fetch_positions(
            ctx.pool, positions, ctx.schema.n_dims
        )
        # Step 3: "Filter tuples" — one shared probe routes each tuple to the
        # queries whose predicates it passes, so every pipeline is built
        # first and charged for its builds in its turn.  Step 4: per-query
        # aggregation.
        masks: dict = {}  # each distinct predicate mask, built once
        pipes = [
            QueryPipeline(
                ctx.schema, query, source.levels, source.source_aggregate, masks
            )
            for query in self.queries
        ]
        probe = SharedProbe(pipes) if n_members > 1 else None
        routed = probe.split(probe.alive(keys)) if probe else [None]
        results: List[QueryResult] = []
        held: set = set()
        for query, bitmap, pipe, rows in zip(self.queries, per_query, pipes, routed):
            if ctx.faults is not None:
                ctx.faults.check(
                    "operator.pipeline", operator=self.label, table=source.name
                )
            fed = int(bitmap.count())
            actuals.bitmap_popcounts[query.qid] = fed
            if n_members > 1:
                actuals.tuples_tested[query.qid] = int(positions.size)
                actuals.tuples_routed[query.qid] = fed
            settle_builds(ctx, held, [pipe])
            ctx.stats.charge(routing_counts(n_members, positions.size))
            ctx.stats.charge(pipe.process_batch(keys, measures, rows, fed))
            result = pipe.result()
            actuals.record_pipeline(query.qid, pipe, result, ctx.stats.rates)
            results.append(result)
        return results
