"""The shared-scan star join: one sequential scan of one base table serving
every plan of a class that reads it.

The paper's Section 3.3 operator (hash *and* index plans on one scan)
contains its Section 3.1 operator (the shared scan hash-based star join) as
the case with no index members, and the DAG layer's derive phase
(:mod:`repro.dag`) is one more consumer of the same scan — so there is one
operator, :class:`SharedScanStarJoin`, taking three kinds of member:

* **hash members** see every scanned tuple: the scan I/O is charged once,
  the dimension hash tables are built once per distinct structure
  (:func:`~.pipeline.settle_builds`) and probed once per morsel for all
  members (:class:`~.pipeline.SharedProbe`), and only the per-query
  probe/filter/aggregate CPU *charge* grows with the number of queries — the
  trade-off the paper measures in Test 1 / Figure 10;
* **index members** still build their result bitmap, but instead of
  fetching pages at random they take the bitmap's rows off the scan as it
  passes (residual predicates re-applied): the random-probe I/O disappears
  and a small bitmap-test CPU cost per tuple remains — Test 3 / Figure 12;
* **derive steps** accumulate a predicate-free *intermediate* group-by from
  the same scan; afterwards each finished intermediate hands over its
  groups as one in-memory columnar batch — its group keys are member ids at
  the intermediate's levels — and every derived member runs an ordinary
  :class:`~.pipeline.QueryPipeline` over those few rows, charging no I/O.

The scan **accounts per page, probes per morsel and folds per scan**
(DESIGN.md §6.1): every page is fault-checked and charged on its own
(:func:`~.pipeline.scan_columns`), every morsel of whole pages is probed and
the class's CPU charged once, and each member's pipeline runs *once*, over
its surviving rows; the members that fold alike (one target group-by, fold
and result aggregate: a :class:`~.pipeline.MemberGroup`) fold them
together, once — the fold state is integers, so the answer is
byte-identical to a fold per member per morsel, and a derived or
bitmap-filtered answer to scanning for it alone.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ...schema.lattice import intermediate_source_aggregate
from ...schema.query import GroupByQuery
from ...storage.iostats import filter_counts, pipeline_counts
from ..optimizer.plans import DeriveStep
from . import aggregate
from .index_join import query_result_bitmap
from .pipeline import ExecContext, QueryPipeline, SharedProbe, member_groups
from .pipeline import require_answerable, scan_columns, settle_builds
from .results import OperatorActuals, QueryResult


class SharedScanStarJoin:
    """One scan serving hash members, bitmap-filtered index members, and
    shared-sub-aggregate derive steps."""

    def __init__(
        self,
        ctx: ExecContext,
        source_name: str,
        hash_queries: Sequence[GroupByQuery],
        index_queries: Sequence[GroupByQuery] = (),
        derives: Sequence[DeriveStep] = (),
    ):
        if not hash_queries and not index_queries and not derives:
            raise ValueError("need at least one query")
        self.ctx = ctx
        self.source = ctx.entry(source_name)
        self.hash_queries = list(hash_queries)
        self.index_queries = list(index_queries)
        self.derives = list(derives)
        #: The paper's name for what this scan is doing; recorded in the
        #: actuals and passed as the ``operator=`` fault-site attribute.
        if self.derives:
            self.label = "SharedDagStarJoin"
        elif self.index_queries:
            self.label = "SharedHybridStarJoin"
        else:
            self.label = "SharedScanHashStarJoin"
        #: Filled during :meth:`run` — the operator's measured actuals
        #: (intermediates appear under their synthetic qids).
        self.actuals = OperatorActuals(operator=self.label, source=source_name)
        source_levels = self.source.levels
        source_agg = self.source.source_aggregate
        members = self.hash_queries + self.index_queries
        require_answerable(source_levels, source_agg, members, repr(source_name))
        for step in self.derives:
            intermediate = step.intermediate
            if intermediate.predicates:
                raise ValueError(
                    "derive intermediates must be predicate-free: "
                    f"{intermediate.display_name()}"
                )
            if not step.queries:
                raise ValueError(
                    f"derive step {intermediate.display_name()} has no "
                    f"member queries"
                )
            require_answerable(
                source_levels, source_agg, [intermediate], repr(source_name)
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
        ctx = self.ctx
        actuals = self.actuals
        # Phase 1 of each index plan is unchanged: build the result bitmap,
        # here its rows, ascending, to route off the scan as it passes.
        routed_rows = [
            query_result_bitmap(ctx, self.source, q, actuals).positions()
            for q in self.index_queries
        ]
        for query, mine in zip(self.index_queries, routed_rows):
            actuals.bitmap_popcounts[query.qid] = int(mine.size)
            actuals.tuples_tested[query.qid] = 0
            actuals.tuples_routed[query.qid] = 0
        source_agg = self.source.source_aggregate
        masks: dict = {}  # each distinct predicate mask, built once

        def pipeline(query: GroupByQuery) -> QueryPipeline:
            return QueryPipeline(
                ctx.schema, query, self.source.levels, source_agg, masks
            )

        hash_pipes = [pipeline(q) for q in self.hash_queries]
        index_pipes = [pipeline(q) for q in self.index_queries]
        inter_pipes = [pipeline(step.intermediate) for step in self.derives]
        held: set = set()
        settle_builds(ctx, held, hash_pipes + index_pipes + inter_pipes)
        # Every member is fed the pending rows' batch: those that fold
        # alike fold it together.
        groups = member_groups(hash_pipes + index_pipes + inter_pipes)
        # Hash members and intermediates both consume every scanned tuple;
        # their predicates are evaluated together, once per morsel.
        full_scan_pipes = hash_pipes + inter_pipes
        probe = SharedProbe(full_scan_pipes)
        # What the class charges per scanned row, whoever survives.
        probes_per_row = sum(p.n_probe_dims for p in full_scan_pipes)
        tests_per_row = sum(p.n_predicates for p in full_scan_pipes)
        n_whole = sum(not p.n_predicates for p in full_scan_pipes)
        #: Morsels accounted, probed and charged but not folded yet: ``(first
        #: row, rows, probe words, each index member's passing flags)``.
        pending: List[tuple] = []

        def fold() -> None:
            """Stage the pending rows of every member, then fold them once
            per member group."""
            starts, sizes, words, flags = zip(*pending)
            pending.clear()
            first, stop = starts[0], starts[-1] + sizes[-1]
            keys, measures = self.source.table.read_columns(
                ctx.schema.n_dims, first, stop
            )
            words = [np.concatenate(word) for word in zip(*words)]
            for pipe, rows in zip(full_scan_pipes, probe.split(words)):
                pipe.process_batch(keys, measures, rows)
            for pipe, mine, passed in zip(index_pipes, routed_rows, zip(*flags)):
                lo, hi = np.searchsorted(mine, (first, stop))
                rows = mine[lo:hi] - first
                if pipe.n_predicates:
                    rows = rows[np.concatenate(passed)]
                pipe.process_batch(keys, measures, rows, int(hi - lo))
            for group in groups:
                group.fold()

        # Phase 2: one shared sequential scan feeds everybody, a morsel of
        # whole pages at a time: probe and charge now, fold later.
        for start, n_pages, n_rows, keys, _measures in scan_columns(
            ctx, self.source, self.label
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
            for query, pipe, mine in zip(
                self.index_queries, index_pipes, routed_rows
            ):
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
                actuals.tuples_tested[query.qid] += n_rows
                actuals.tuples_routed[query.qid] += n_routed
            ctx.stats.charge(counts)
            pending.append((start, n_rows, words, flags))
            if start + n_rows - pending[0][0] > aggregate.FOLD_ROWS:
                fold()
        if pending:
            fold()

        def finish(query: GroupByQuery, pipe: QueryPipeline) -> QueryResult:
            result = pipe.result()
            actuals.record_pipeline(query.qid, pipe, result, ctx.stats.rates)
            return result

        out = list(map(
            finish, self.hash_queries + self.index_queries, hash_pipes + index_pipes
        ))
        # Phase 3: take each finished intermediate's groups as one in-memory
        # columnar batch and run every derived member's pipeline over it.
        for step, pipe in zip(self.derives, inter_pipes):
            intermediate = step.intermediate
            if ctx.faults is not None:
                ctx.faults.check(
                    "operator.derive",
                    operator=self.label,
                    table=self.source.name,
                )
            finish(intermediate, pipe)
            inter_keys, inter_measures = pipe.columns()
            inter_agg = intermediate_source_aggregate(source_agg, intermediate)
            derived = [
                QueryPipeline(
                    ctx.schema, query, intermediate.groupby.levels, inter_agg,
                    masks,
                )
                for query in step.queries
            ]
            member_groups(derived)
            for derived_pipe in derived:
                settle_builds(ctx, held, [derived_pipe])
                ctx.stats.charge(
                    derived_pipe.process_batch(inter_keys, inter_measures)
                )
                actuals.derive_rows += int(inter_measures.size)
            out.extend(map(finish, step.queries, derived))
        return out
