"""The shared-scan star join: one sequential scan of one base table serving
every plan of a class that reads it.

The paper's Section 3.3 operator (hash *and* index plans on one scan)
contains its Section 3.1 operator (the shared scan hash-based star join) as
the case with no index members, and the DAG layer's derive phase
(:mod:`repro.dag`) is one more consumer of the same scan — so there is one
operator, :class:`SharedScanStarJoin`, taking three kinds of member:

* **hash members** see every scanned tuple: the scan I/O is charged once,
  the dimension hash tables are built once per distinct structure (the
  shared :class:`~.pipeline.RollupCache`) and probed once per morsel for all
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
its surviving rows — the fold state is integers, so the answer is
byte-identical to a fold per morsel, and a derived or bitmap-filtered
answer to scanning for it alone.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ...schema.lattice import intermediate_source_aggregate, source_can_answer
from ...schema.query import GroupByQuery
from ..optimizer.plans import DeriveStep
from . import aggregate
from .index_join import query_result_bitmap
from .pipeline import ExecContext, QueryPipeline, RollupCache, SharedProbe
from .pipeline import scan_columns
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
        for query in self.hash_queries + self.index_queries:
            if not source_can_answer(source_levels, source_agg, query):
                raise ValueError(
                    f"{query.display_name()} cannot be answered from "
                    f"{source_name!r} (levels {source_levels}, "
                    f"measure {source_agg!r})"
                )
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
            if not source_can_answer(source_levels, source_agg, intermediate):
                raise ValueError(
                    f"intermediate {intermediate.display_name()} cannot be "
                    f"computed from {source_name!r}"
                )
            inter_agg = intermediate_source_aggregate(source_agg, intermediate)
            for query in step.queries:
                if not source_can_answer(
                    intermediate.groupby.levels, inter_agg, query
                ):
                    raise ValueError(
                        f"{query.display_name()} cannot be derived from "
                        f"intermediate {intermediate.display_name()} "
                        f"(levels {intermediate.groupby.levels}, "
                        f"measure {inter_agg!r})"
                    )

    def run(self) -> Dict[int, QueryResult]:
        """Run all queries; returns ``{query.qid: result}`` with each
        intermediate's result included under its synthetic qid."""
        ctx = self.ctx
        actuals = self.actuals
        # Phase 1 of each index plan is unchanged: build the result bitmap.
        index_bitmaps = [
            query_result_bitmap(ctx, self.source, q, actuals)
            for q in self.index_queries
        ]
        for query, bitmap in zip(self.index_queries, index_bitmaps):
            actuals.bitmap_popcounts[query.qid] = int(bitmap.count())
            actuals.tuples_tested[query.qid] = 0
            actuals.tuples_routed[query.qid] = 0
        rollups = RollupCache(
            ctx.schema, ctx.stats, pool=ctx.pool, dim_tables=ctx.dim_tables
        )
        source_agg = self.source.source_aggregate

        def pipeline(
            query: GroupByQuery,
            levels=self.source.levels,
            aggregate=source_agg,
        ) -> QueryPipeline:
            return QueryPipeline(
                ctx.schema, query, levels, rollups, source_aggregate=aggregate
            )

        hash_pipes = [pipeline(q) for q in self.hash_queries]
        index_pipes = [pipeline(q) for q in self.index_queries]
        inter_pipes = [pipeline(step.intermediate) for step in self.derives]
        # Hash members and intermediates both consume every scanned tuple;
        # their predicates are evaluated together, once per morsel.
        full_scan_pipes = hash_pipes + inter_pipes
        probe = SharedProbe(full_scan_pipes)
        # What the class charges per scanned row, whoever survives.
        probes_per_row = sum(p.n_probe_dims for p in full_scan_pipes)
        tests_per_row = sum(p.n_predicates for p in full_scan_pipes)
        n_whole = sum(not p.n_predicates for p in full_scan_pipes)
        routed_rows = [bitmap.positions() for bitmap in index_bitmaps]
        stats = ctx.stats
        #: Morsels accounted, probed and charged but not folded yet: ``(first
        #: row, rows, probe words, each index member's passing flags)``.
        pending: List[tuple] = []

        def fold() -> None:
            """Gather, roll up and fold the pending rows, once per member."""
            starts, sizes, words, flags = zip(*pending)
            pending.clear()
            first, stop = starts[0], starts[-1] + sizes[-1]
            keys, measures = self.source.table.read_columns(
                ctx.schema.n_dims, first, stop
            )
            words = [np.concatenate(word) for word in zip(*words)]
            for pipe, rows in zip(full_scan_pipes, probe.split(words)):
                pipe.process_batch(keys, measures, None, rows)
            for pipe, mine, passed in zip(index_pipes, routed_rows, zip(*flags)):
                lo, hi = np.searchsorted(mine, (first, stop))
                rows = mine[lo:hi] - first
                pipe.process_batch(
                    [column[rows] for column in keys],
                    measures[rows],
                    None,
                    np.concatenate(passed) if pipe.n_predicates else None,
                )

        # Phase 2: one shared sequential scan feeds everybody, a morsel of
        # whole pages at a time: probe and charge now, fold later.
        for start, n_pages, n_rows, keys, _measures in scan_columns(
            ctx, self.source, self.label
        ):
            actuals.morsels += 1
            actuals.pages_scanned += n_pages
            actuals.rows_scanned += n_rows
            words = probe.alive(keys)
            n_probes = n_rows * probes_per_row
            n_tests = n_rows * tests_per_row
            n_pass = n_rows * n_whole
            for word in words:
                n_pass += int(np.bitwise_count(word).sum())
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
                n_probes += n_routed * pipe.n_probe_dims
                n_tests += n_routed * pipe.n_predicates
                n_pass += n_routed if passed is None else int(passed.sum())
                actuals.tuples_tested[query.qid] += n_rows
                actuals.tuples_routed[query.qid] += n_routed
            if index_pipes:
                stats.charge_bitmap_test(n_rows * len(index_pipes))
            stats.charge_hash_probe(n_probes)
            stats.charge_predicate(n_tests)
            stats.charge_tuple_copy(n_pass)
            stats.charge_agg_update(n_pass)
            pending.append((start, n_rows, words, flags))
            if start + n_rows - pending[0][0] > aggregate.FOLD_ROWS:
                fold()
        if pending:
            fold()
        out: Dict[int, QueryResult] = {}

        def finish(query: GroupByQuery, pipe: QueryPipeline) -> None:
            out[query.qid] = pipe.result()
            actuals.record_pipeline(
                query.qid, pipe, out[query.qid], ctx.stats.rates
            )

        for query, pipe in zip(
            self.hash_queries + self.index_queries, hash_pipes + index_pipes
        ):
            finish(query, pipe)
        if not self.derives:
            return out
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
            for query in step.queries:
                derived_pipe = pipeline(
                    query, intermediate.groupby.levels, inter_agg
                )
                derived_pipe.process_batch(
                    inter_keys, inter_measures, ctx.stats
                )
                actuals.derive_rows += int(inter_measures.size)
                finish(query, derived_pipe)
        return out

    def run_ordered(self) -> List[QueryResult]:
        """Results in constructor order (hash, index, then derived members)."""
        by_qid = self.run()
        ordered = self.hash_queries + self.index_queries
        for step in self.derives:
            ordered.extend(step.queries)
        return [by_qid[q.qid] for q in ordered]
