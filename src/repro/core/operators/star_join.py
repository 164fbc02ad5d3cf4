"""The paper's shared star joins (Section 3) as one operator over a row
source.

Section 3.3 treats an index plan as a way to *filter* a shared scan, so the
three shared operators are one :class:`StarJoin`: a
:class:`~.pipeline.QueryPipeline` per member, each distinct dimension
structure built once (:func:`~.pipeline.settle_builds`) and probed once for
every member (:class:`~.pipeline.SharedProbe`), and the members that fold
alike folded together (:class:`~.pipeline.MemberGroup`; the fold state is
integers, so each answer is byte-identical to its plan run alone).  They
differ only in where the rows come from: :class:`ScanRows` (Sections 3.1
and 3.3) or :class:`ProbeRows` (Section 3.2).
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...index.bitmap import Bitmap, and_all, or_all
from ...index.bitmap_index import JoinIndex
from ...schema.lattice import intermediate_source_aggregate
from ...schema.query import DimPredicate, GroupByQuery
from ...storage.catalog import TableEntry
from ...storage.iostats import filter_counts, merge_counts, pipeline_counts
from ...storage.iostats import routing_counts
from ..optimizer.plans import DeriveStep, operator_kind
from . import aggregate
from .pipeline import ExecContext, QueryPipeline, SharedProbe, member_groups
from .pipeline import require_answerable, settle_builds
from .results import OperatorActuals, QueryResult

#: The paper's name for each operator kind (:func:`~.plans.operator_kind`,
#: the suffix of its ``operator.<kind>`` span): the label a
#: :class:`StarJoin` records for what it did, and EXPLAIN's title.
OPERATOR_LABELS = {
    "shared_scan_hash": "SharedScanHashStarJoin",
    "shared_hybrid": "SharedHybridStarJoin",
    "shared_dag": "SharedDagStarJoin",
    "shared_index": "SharedIndexStarJoin",
    "index_star": "IndexStarJoin",
}


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
    members = predicate.member_ids
    if best.level != predicate.level:
        dim = ctx.schema.dimensions[predicate.dim_index]
        members = [
            descendant
            for member in members
            for descendant in dim.descendants(predicate.level, member, best.level)
        ]
    return best, sorted(members)


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
        if found is not None:
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


class StarJoin:
    """One class's star join on one source: hash members, bitmap-filtered
    index members and shared-sub-aggregate derive steps, fed by the row
    source ``rows`` (:class:`ScanRows` or :class:`ProbeRows`, which feeds
    index members only): its ``feed(join, pipes, bitmaps, popcounts)``
    feeds the pipelines (the members', then the intermediates') their rows
    and returns the structures the class built."""

    def __init__(
        self,
        ctx: ExecContext,
        source_name: str,
        rows: type,
        hash_queries: Sequence[GroupByQuery] = (),
        index_queries: Sequence[GroupByQuery] = (),
        derives: Sequence[DeriveStep] = (),
    ):
        if not hash_queries and not index_queries and not derives:
            raise ValueError("need at least one query")
        probe = rows is ProbeRows
        if probe and (hash_queries or derives):
            raise ValueError("an index probe feeds index members only")
        self.ctx = ctx
        self.source = ctx.entry(source_name)
        self.rows = rows
        self.hash_queries = list(hash_queries)
        self.index_queries = list(index_queries)
        self.derives = list(derives)
        #: The hash members, then the index members: their results' order.
        self.members = self.hash_queries + self.index_queries
        #: The paper's name for what this join is doing; recorded in the
        #: actuals and passed as the ``operator=`` fault-site attribute.
        self.label = OPERATOR_LABELS[
            operator_kind(probe, len(self.members), bool(index_queries), bool(derives))
        ]
        #: Filled during :meth:`run` — the operator's measured actuals
        #: (intermediates appear under their synthetic qids).
        self.actuals = OperatorActuals(operator=self.label, source=source_name)
        levels, source_agg = self.source.levels, self.source.source_aggregate
        intermediates = [step.intermediate for step in self.derives]
        where = repr(source_name)
        require_answerable(levels, source_agg, self.members + intermediates, where)
        for step in self.derives:
            intermediate = step.intermediate
            if intermediate.predicates or not step.queries:
                raise ValueError(
                    f"derive step {intermediate.display_name()} needs a "
                    "predicate-free intermediate and member queries"
                )
            require_answerable(
                intermediate.groupby.levels,
                intermediate_source_aggregate(source_agg, intermediate),
                step.queries,
                f"intermediate {intermediate.display_name()}",
            )

    def run(self) -> List[QueryResult]:
        """Run all queries; returns their results in member order: the
        hash members, the index members, then each step's derived ones
        (an intermediate's result is only in :attr:`actuals`)."""
        ctx, actuals, source = self.ctx, self.actuals, self.source
        # Phase 1 of each index plan: its result bitmap.
        bitmaps = [
            query_result_bitmap(ctx, source, q, actuals) for q in self.index_queries
        ]
        popcounts = [int(bitmap.count()) for bitmap in bitmaps]
        for query, n in zip(self.index_queries, popcounts):
            actuals.bitmap_popcounts[query.qid] = n
        masks: dict = {}  # each distinct predicate mask, built once

        def pipeline(query, levels=source.levels, agg=source.source_aggregate):
            return QueryPipeline(ctx.schema, query, levels, agg, masks)

        members = self.members
        intermediates = [step.intermediate for step in self.derives]
        pipes = [pipeline(query) for query in members + intermediates]
        # Every member is fed the same batches: those that fold alike fold
        # them together.
        member_groups(pipes)
        # The structures the class has built, for the derive phase to add to.
        held = self.rows.feed(self, pipes, bitmaps, popcounts)
        out = list(map(self._finish, members, pipes))
        # Phase 3: take each finished intermediate's groups as one in-memory
        # columnar batch and run every derived member's pipeline over it.
        for step, pipe in zip(self.derives, pipes[len(members) :]):
            intermediate = step.intermediate
            self._check("operator.derive")
            self._finish(intermediate, pipe)
            inter_keys, inter_measures = pipe.columns()
            inter_agg = intermediate_source_aggregate(
                source.source_aggregate, intermediate
            )
            derived = [
                pipeline(query, intermediate.groupby.levels, inter_agg)
                for query in step.queries
            ]
            member_groups(derived)
            for derived_pipe in derived:
                settle_builds(ctx, held, [derived_pipe])
                ctx.stats.charge(
                    derived_pipe.process_batch(inter_keys, inter_measures)
                )
                actuals.derive_rows += int(inter_measures.size)
            out.extend(map(self._finish, step.queries, derived))
        return out

    def _check(self, site: str) -> None:
        """Check the fault site ``site`` for this join."""
        if self.ctx.faults is not None:
            self.ctx.faults.check(site, operator=self.label, table=self.source.name)

    def _route(self, query: GroupByQuery, tested: int, routed: int) -> None:
        """Count ``tested`` rows tested against index member ``query``'s
        bitmap, ``routed`` of them in it."""
        actuals, qid = self.actuals, query.qid
        actuals.tuples_tested[qid] = actuals.tuples_tested.get(qid, 0) + tested
        actuals.tuples_routed[qid] = actuals.tuples_routed.get(qid, 0) + routed

    def _finish(self, query: GroupByQuery, pipe: QueryPipeline) -> QueryResult:
        """Member ``query``'s result, its pipeline recorded in the actuals."""
        result = pipe.result()
        self.actuals.record_pipeline(query.qid, pipe, result, self.ctx.stats.rates)
        return result


class ScanRows:
    """One shared sequential scan.  Hash members see every row, and only the
    per-query CPU charge grows with their number (Test 1 / Figure 10).
    Index members take their result bitmap's rows off the scan, residual
    predicates re-applied: the random-probe I/O disappears and a bitmap test
    per row remains (Test 3 / Figure 12).  Each derive step (:mod:`repro.dag`)
    accumulates a predicate-free intermediate from the same scan.

    The scan **accounts per page, probes per morsel and folds per**
    :data:`~.aggregate.FOLD_ROWS` **rows** (DESIGN.md §6.1): every page is
    fault-checked and charged as it is read, every morsel of whole pages is
    probed and the class's CPU charged once, and the pending rows are then
    fed to each member once.  Every build is settled before the scan."""

    @staticmethod
    def feed(join: StarJoin, pipes: list, bitmaps: list, _popcounts: list) -> set:
        ctx, actuals, source = join.ctx, join.actuals, join.source
        held: set = set()
        settle_builds(ctx, held, pipes)
        n_hash, n_index = len(join.hash_queries), len(bitmaps)
        index_pipes = pipes[n_hash : n_hash + n_index]
        # Hash members and intermediates both consume every scanned tuple;
        # their predicates are evaluated together, once per morsel.
        full_scan_pipes = pipes[:n_hash] + pipes[n_hash + n_index :]
        probe = SharedProbe(full_scan_pipes)
        # Each index member's rows, ascending, to route off the scan.
        routed_rows = [bitmap.positions() for bitmap in bitmaps]
        # What the class charges per scanned row, whoever survives.
        probes_per_row = sum(p.n_probe_dims for p in full_scan_pipes)
        tests_per_row = sum(p.n_predicates for p in full_scan_pipes)
        n_whole = sum(not p.n_predicates for p in full_scan_pipes)
        #: Morsels accounted, probed and charged but not fed yet: ``(first
        #: row, rows, probe words, each index member's passing flags)``.
        pending: List[tuple] = []

        def feed_pending() -> None:
            starts, sizes, words, flags = zip(*pending)
            pending.clear()
            first, stop = starts[0], starts[-1] + sizes[-1]
            keys, measures = source.table.read_columns(ctx.schema.n_dims, first, stop)
            words = [np.concatenate(word) for word in zip(*words)]
            for pipe, rows in zip(full_scan_pipes, probe.split(words)):
                pipe.process_batch(keys, measures, rows)
            for pipe, mine, passed in zip(index_pipes, routed_rows, zip(*flags)):
                lo, hi = np.searchsorted(mine, (first, stop))
                rows = mine[lo:hi] - first
                if pipe.n_predicates:
                    rows = rows[np.concatenate(passed)]
                pipe.process_batch(keys, measures, rows, int(hi - lo))

        for query in join.index_queries:
            join._route(query, 0, 0)  # each index member reports, rows or not
        after_page = None  # or each page's fault check, once it is charged
        if ctx.faults is not None:
            after_page = partial(join._check, "operator.pipeline")
        for start, n_pages, n_rows, keys, _measures in source.table.scan_batches(
            ctx.pool, ctx.schema.n_dims, after_page
        ):
            actuals.morsels += 1
            actuals.pages_scanned += n_pages
            actuals.rows_scanned += n_rows
            words = probe.alive(keys)
            n_pass = n_rows * n_whole
            for word in words:
                n_pass += int(np.bitwise_count(word).sum())
            # What the morsel charges, all members' pipelines at once.
            counts = pipeline_counts(n_rows, probes_per_row, tests_per_row, n_pass)
            flags = []
            for query, pipe, mine in zip(join.index_queries, index_pipes, routed_rows):
                # Its bitmap's rows in this morsel, then its residual
                # predicates on those rows only.
                lo, hi = np.searchsorted(mine, (start, start + n_rows))
                passed = pipe.passing(keys, mine[lo:hi] - start)
                flags.append(passed)
                n_routed = int(hi - lo)
                counts += filter_counts(n_rows) + pipeline_counts(
                    n_routed,
                    pipe.n_probe_dims,
                    pipe.n_predicates,
                    n_routed if passed is None else int(passed.sum()),
                )
                join._route(query, n_rows, n_routed)
            ctx.stats.charge(counts)
            pending.append((start, n_rows, words, flags))
            if start + n_rows - pending[0][0] > aggregate.FOLD_ROWS:
                feed_pending()
        if pending:
            feed_pending()
        return held


class ProbeRows:
    """The shared index join (its one-member case is the single-query index
    plan of the Figure 3 walkthrough): the members' result bitmaps OR-ed into
    one probe set, its rows fetched once
    (:meth:`~repro.storage.table.HeapTable.fetch_positions`) and routed by
    the shared probe (the paper's "Filter tuples").  A member's bitmap is the
    AND of its indexed predicates, so a fetched row is in it and passes the
    member's residual predicates exactly when it passes all of the member's
    predicates — which one probe per dimension decides for every member at
    once.  With one member there is nothing to OR or route.  Each member in
    its turn is then fault-checked, charged its builds, and run over the
    fetched rows, its routing and its pipeline charged together."""

    @staticmethod
    def feed(join: StarJoin, pipes: list, bitmaps: list, popcounts: list) -> set:
        ctx, actuals = join.ctx, join.actuals
        n_members = len(pipes)
        union = or_all(bitmaps)
        if n_members > 1:
            ctx.stats.charge(merge_counts(n_members, union.n_words))
            actuals.or_ops += n_members - 1
        positions = union.positions()
        actuals.union_popcount = actuals.probes_issued = int(positions.size)
        keys, measures = join.source.table.fetch_positions(
            ctx.pool, positions, ctx.schema.n_dims
        )
        probe = SharedProbe(pipes) if n_members > 1 else None
        routed = probe.split(probe.alive(keys)) if probe else [None]
        routing = routing_counts(n_members, positions.size)
        held: set = set()
        for query, pipe, rows, n in zip(join.index_queries, pipes, routed, popcounts):
            join._check("operator.pipeline")
            if n_members > 1:
                join._route(query, int(positions.size), n)
            settle_builds(ctx, held, [pipe])
            ctx.stats.charge(routing + pipe.process_batch(keys, measures, rows, n))
        return held
