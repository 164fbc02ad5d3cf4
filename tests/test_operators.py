"""Operator tests: pipelines and the three shared star joins, all checked
against the brute-force reference evaluator."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators import aggregate as aggregate_module
from repro.core.operators import hash_join as hash_join_module
from repro.core.operators.hash_join import SharedScanStarJoin
from repro.core.operators.index_join import (
    IndexStarJoin,
    MissingIndexError,
    SharedIndexStarJoin,
    query_result_bitmap,
    usable_index,
)
from repro.core.operators.pipeline import QueryPipeline, RollupCache
from repro.core.optimizer.plans import DeriveStep
from repro.engine.reference import evaluate_reference
from repro.schema.query import Aggregate, DimPredicate, GroupBy, GroupByQuery
from repro.storage import table as table_module
from repro.storage.iostats import IOStats

from helpers import hash_star_join, make_tiny_db, random_query


@pytest.fixture(scope="module")
def db():
    return make_tiny_db(n_rows=600, materialized=("X'Y",), index_tables=("XY",))


def reference_for(db, query, source="XY"):
    entry = db.catalog.get(source)
    return evaluate_reference(
        db.schema, entry.table.all_rows(), query, entry.levels
    )


def simple_query(levels=(1, 2), preds=()):
    return GroupByQuery(groupby=GroupBy(levels), predicates=tuple(preds))


class TestQueryPipeline:
    def test_matches_reference_no_predicates(self, db):
        query = simple_query((1, 1))
        result = hash_star_join(db, "XY", query)
        assert result.approx_equals(reference_for(db, query))

    def test_matches_reference_with_predicates(self, db):
        query = simple_query(
            (1, 2),
            [DimPredicate(0, 2, frozenset({0})), DimPredicate(1, 1, frozenset({1, 3}))],
        )
        result = hash_star_join(db, "XY", query)
        assert result.approx_equals(reference_for(db, query))

    def test_random_queries_match_reference(self, db):
        rng = random.Random(11)
        for i in range(25):
            query = random_query(db.schema, rng, label=f"rand{i}")
            result = hash_star_join(db, "XY", query)
            assert result.approx_equals(reference_for(db, query)), (
                query.describe(db.schema)
            )

    def test_from_materialized_view_matches_base(self, db):
        query = simple_query((1, 2), [DimPredicate(0, 1, frozenset({0, 2}))])
        from_base = hash_star_join(db, "XY", query)
        from_view = hash_star_join(db, "X'Y", query)
        assert from_base.approx_equals(from_view)

    def test_unanswerable_source_rejected(self, db):
        query = simple_query((0, 0))  # needs leaf X, view stores X'
        with pytest.raises(ValueError):
            SharedScanStarJoin(db.ctx(), "X'Y", [query])

    def test_rollup_cache_builds_once(self, db):
        ctx = db.ctx()
        before = ctx.stats.snapshot()
        cache = RollupCache(ctx.schema, ctx.stats)
        cache.target_map(0, 0, 2)
        cache.target_map(0, 0, 2)
        delta = ctx.stats.delta_since(before)
        assert delta.hash_builds == db.schema.dimensions[0].n_members(0)

    def test_identity_and_all_maps_are_free(self, db):
        ctx = db.ctx()
        cache = RollupCache(ctx.schema, ctx.stats)
        assert cache.target_map(0, 1, 1) is None
        assert cache.target_map(0, 0, ctx.schema.dimensions[0].all_level) is None


class TestPredicateMask:
    """``RollupCache.predicate_mask`` is a scatter and a gather; it is held
    to the set-membership test it replaced, bit for bit."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_isin_over_the_rollup_map(self, paper_schema, data):
        dim_index = data.draw(st.integers(0, paper_schema.n_dims - 1))
        dim = paper_schema.dimensions[dim_index]
        from_level = data.draw(st.integers(0, dim.all_level))
        level = data.draw(st.integers(from_level, dim.all_level))
        # Ids outside the level's domain select nothing, as they always have.
        n = dim.n_members(level)
        members = data.draw(st.frozensets(st.integers(-3, n + 3), min_size=1))
        predicate = DimPredicate(dim_index, level, members)
        stats = IOStats()
        cache = RollupCache(paper_schema, stats)
        mask = cache.predicate_mask(from_level, predicate)
        want = np.isin(
            dim.rollup_map(from_level, level),
            np.fromiter(members, dtype=np.int64),
        )
        assert mask.dtype == np.bool_
        assert mask.tolist() == want.tolist()
        assert stats.hash_builds == dim.n_members(from_level)
        assert cache.predicate_mask(from_level, predicate) is mask
        assert stats.hash_builds == dim.n_members(from_level)  # built once


class TestSharedScanHashJoin:
    def queries(self):
        return [
            simple_query((1, 1), [DimPredicate(0, 2, frozenset({0}))]),
            simple_query((2, 1)),
            simple_query((1, 3), [DimPredicate(1, 1, frozenset({0, 2}))]),
        ]

    def test_results_equal_separate_execution(self, db):
        queries = self.queries()
        shared = SharedScanStarJoin(db.ctx(), "XY", queries).run_ordered()
        for query, result in zip(queries, shared):
            solo = hash_star_join(db, "XY", query)
            assert result.approx_equals(solo)
            assert result.approx_equals(reference_for(db, query))

    def test_scan_io_charged_once(self, db):
        queries = self.queries()
        entry = db.catalog.get("XY")
        db.flush()
        before = db.stats.snapshot()
        SharedScanStarJoin(db.ctx(), "XY", queries).run_ordered()
        delta = db.stats.delta_since(before)
        assert delta.seq_page_reads == entry.n_pages
        assert delta.rand_page_reads == 0

    def test_empty_query_list_rejected(self, db):
        with pytest.raises(ValueError):
            SharedScanStarJoin(db.ctx(), "XY", [])


class TestIndexStarJoin:
    def selective_query(self):
        return simple_query(
            (1, 2),
            [DimPredicate(0, 1, frozenset({2})), DimPredicate(1, 2, frozenset({0}))],
        )

    def test_matches_reference(self, db):
        query = self.selective_query()
        result = IndexStarJoin(db.ctx(), "XY", query).run_single()
        assert result.approx_equals(reference_for(db, query))

    def test_matches_hash_join(self, db):
        query = self.selective_query()
        via_index = IndexStarJoin(db.ctx(), "XY", query).run_single()
        via_hash = hash_star_join(db, "XY", query)
        assert via_index.approx_equals(via_hash)

    def test_probe_reads_are_random(self, db):
        db.flush()
        before = db.stats.snapshot()
        IndexStarJoin(db.ctx(), "XY", self.selective_query()).run_single()
        delta = db.stats.delta_since(before)
        assert delta.rand_page_reads > 0

    def test_coarse_predicate_uses_finer_index(self, db):
        # Predicate at the top level; only leaf-level indexes exist.
        query = simple_query((2, 3), [DimPredicate(0, 2, frozenset({1}))])
        entry = db.catalog.get("XY")
        found = usable_index(db.ctx(), entry, query.predicates[0])
        assert found is not None
        index, members = found
        assert index.level == 0
        assert members == db.schema.dimensions[0].descendants(2, 1, 0)
        result = IndexStarJoin(db.ctx(), "XY", query).run_single()
        assert result.approx_equals(reference_for(db, query))

    def test_unindexed_predicate_is_residual(self, db):
        # The view X'Y has no indexes: index plan on XY with one indexed and
        # the pipelines still apply every predicate.
        query = simple_query(
            (1, 1),
            [DimPredicate(0, 1, frozenset({0})), DimPredicate(1, 0, frozenset({0, 1}))],
        )
        result = IndexStarJoin(db.ctx(), "XY", query).run_single()
        assert result.approx_equals(reference_for(db, query))

    def test_no_indexes_at_all_raises(self, db):
        query = simple_query((1, 1), [DimPredicate(0, 1, frozenset({0}))])
        with pytest.raises(MissingIndexError):
            IndexStarJoin(db.ctx(), "X'Y", query).run_single()

    def test_no_predicates_bitmap_is_all_ones(self, db):
        entry = db.catalog.get("XY")
        bitmap = query_result_bitmap(db.ctx(), entry, simple_query((1, 1)))
        assert bitmap.count() == entry.n_rows


class TestSharedIndexJoin:
    def queries(self):
        return [
            simple_query((1, 2), [DimPredicate(0, 1, frozenset({0}))]),
            simple_query((1, 2), [DimPredicate(0, 1, frozenset({0, 1}))]),
            simple_query((2, 1), [DimPredicate(1, 1, frozenset({3}))]),
        ]

    def test_results_equal_separate(self, db):
        queries = self.queries()
        shared = SharedIndexStarJoin(db.ctx(), "XY", queries).run()
        for query, result in zip(queries, shared):
            solo = IndexStarJoin(db.ctx(), "XY", query).run_single()
            assert result.approx_equals(solo)
            assert result.approx_equals(reference_for(db, query))

    def test_union_probe_touches_no_more_pages_than_separate(self, db):
        queries = self.queries()
        separate_pages = 0
        for query in queries:
            db.flush()
            before = db.stats.snapshot()
            IndexStarJoin(db.ctx(), "XY", query).run_single()
            separate_pages += db.stats.delta_since(before).rand_page_reads
        db.flush()
        before = db.stats.snapshot()
        SharedIndexStarJoin(db.ctx(), "XY", queries).run()
        shared_pages = db.stats.delta_since(before).rand_page_reads
        assert shared_pages <= separate_pages


class TestSharedHybridJoin:
    def test_results_match_pure_operators(self, db):
        hash_queries = [simple_query((1, 1))]
        index_queries = [
            simple_query((1, 2), [DimPredicate(0, 1, frozenset({1}))]),
            simple_query((2, 2), [DimPredicate(1, 1, frozenset({0}))]),
        ]
        op = SharedScanStarJoin(db.ctx(), "XY", hash_queries, index_queries)
        by_qid = op.run()
        for query in hash_queries + index_queries:
            assert by_qid[query.qid].approx_equals(reference_for(db, query))

    def test_no_random_reads(self, db):
        """The whole point of Section 3.3: index plans ride the scan."""
        index_queries = [
            simple_query((1, 2), [DimPredicate(0, 1, frozenset({1}))]),
        ]
        hash_queries = [simple_query((2, 1))]
        db.flush()
        before = db.stats.snapshot()
        SharedScanStarJoin(db.ctx(), "XY", hash_queries, index_queries).run()
        delta = db.stats.delta_since(before)
        assert delta.rand_page_reads == 0
        assert delta.seq_page_reads >= db.catalog.get("XY").n_pages

    def test_run_ordered(self, db):
        hash_queries = [simple_query((1, 1))]
        index_queries = [
            simple_query((1, 2), [DimPredicate(0, 1, frozenset({1}))]),
        ]
        op = SharedScanStarJoin(db.ctx(), "XY", hash_queries, index_queries)
        ordered = op.run_ordered()
        assert [r.query.qid for r in ordered] == [
            q.qid for q in hash_queries + index_queries
        ]

    def test_empty_rejected(self, db):
        with pytest.raises(ValueError):
            SharedScanStarJoin(db.ctx(), "XY", [], [])


class EveryMemberAlone:
    """Stands in for ``SharedProbe``: nothing is shared — every predicated
    member evaluates its own masks (``QueryPipeline.passing``, as it does
    running alone) and holds a probe word of its own."""

    def __init__(self, pipes):
        self.pipes = pipes

    def alive(self, key_columns):
        return [
            pipe.passing(key_columns).astype(np.uint64)
            for pipe in self.pipes
            if pipe.n_predicates
        ]

    def split(self, words):
        words = iter(words)
        return [
            np.flatnonzero(next(words)) if pipe.n_predicates else None
            for pipe in self.pipes
        ]


class TestSharedProbe:
    """One probe per dimension per morsel for the whole class, held to
    every member probing alone: same rows, same order, same charges."""

    @staticmethod
    def run_class(db, hash_queries, index_queries, derives):
        db.flush()
        before = db.stats.snapshot()
        op = SharedScanStarJoin(
            db.ctx(), "XY", hash_queries, index_queries, derives
        )
        results = op.run()
        observed = (
            {
                qid: (list(result.groups.items()), result.avg_state)
                for qid, result in results.items()
            },
            op.actuals.as_dict(),
            db.stats.delta_since(before).as_dict(),
        )
        return results, observed

    @pytest.mark.parametrize("morsel_rows", [1, table_module.MORSEL_ROWS])
    @pytest.mark.parametrize("n_predicated", [1, 2, 64, 65, 130])
    def test_class_equals_every_member_alone(
        self, db, monkeypatch, n_predicated, morsel_rows
    ):
        rng = random.Random(n_predicated)
        hash_queries = [simple_query((1, 1))]  # predicate-free: holds no bit
        while len(hash_queries) <= n_predicated:
            query = random_query(db.schema, rng)
            if query.predicates:
                hash_queries.append(query)
        rng.shuffle(hash_queries)
        index_queries = [
            simple_query((1, 2), [DimPredicate(0, 1, frozenset({1}))]),
            simple_query((2, 0), [DimPredicate(1, 1, frozenset({0, 3}))]),
        ]
        derives = [
            DeriveStep(
                simple_query((1, 1)),
                (simple_query((2, 1), [DimPredicate(0, 2, frozenset({1}))]),),
            )
        ]
        monkeypatch.setattr(table_module, "MORSEL_ROWS", morsel_rows)
        results, shared = self.run_class(db, hash_queries, index_queries, derives)
        monkeypatch.setattr(hash_join_module, "SharedProbe", EveryMemberAlone)
        _results, alone = self.run_class(db, hash_queries, index_queries, derives)
        for got, want in zip(shared, alone):  # results, actuals, IOStats
            assert got == want
        n_rows = db.catalog.get("XY").table.n_rows
        for query in hash_queries:
            assert shared[1]["rows_in"][str(query.qid)] == n_rows
            assert results[query.qid].approx_equals(reference_for(db, query))

    @pytest.mark.parametrize("fold_rows", [1, 100, 1 << 18])
    @pytest.mark.parametrize("morsel_rows", [1, 40, table_module.MORSEL_ROWS])
    @pytest.mark.parametrize("aggregate", list(Aggregate))
    def test_fold_per_scan_equals_a_fold_per_morsel(
        self, db, monkeypatch, aggregate, morsel_rows, fold_rows
    ):
        """The operator's one fold per member is held to the loop it
        replaced — one ``process_batch`` per member per morsel, every member
        evaluating and charging alone — with ``==`` on group order, float
        bits, AVG state, row counters and the CPU ledger, wherever the row
        budget puts the folds."""
        rng = random.Random(morsel_rows)
        queries = [simple_query((1, 1)), simple_query((2, 2))]
        queries += [random_query(db.schema, rng) for _ in range(6)]
        queries = [
            GroupByQuery(q.groupby, q.predicates, aggregate) for q in queries
        ]
        monkeypatch.setattr(table_module, "MORSEL_ROWS", morsel_rows)
        monkeypatch.setattr(aggregate_module, "FOLD_ROWS", fold_rows)

        def snapshot(results, pipes, before):
            delta = db.stats.delta_since(before).as_dict()
            return (
                [
                    (list(r.groups.items()), r.avg_state and list(r.avg_state.items()))
                    for r in results
                ],
                [(p.rows_in, p.rows_passed) for p in pipes],
                delta,
            )

        ctx = db.ctx()
        entry = ctx.entry("XY")
        db.flush()
        before = db.stats.snapshot()
        rollups = RollupCache(db.schema, db.stats)
        pipes = [
            QueryPipeline(db.schema, q, entry.levels, rollups) for q in queries
        ]
        for _start, _pages, _rows, keys, measures in entry.table.scan_batches(
            db.pool, db.schema.n_dims
        ):
            for pipe in pipes:
                pipe.process_batch(keys, measures, db.stats)
        want = snapshot([p.result() for p in pipes], pipes, before)

        db.flush()
        before = db.stats.snapshot()
        built = []
        build = QueryPipeline.__init__

        def recording(self, *args, **kwargs):
            build(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(QueryPipeline, "__init__", recording)
        op = SharedScanStarJoin(ctx, "XY", queries)
        got = snapshot(op.run_ordered(), built, before)
        assert got == want
        morsel_pages = max(1, morsel_rows // entry.table.capacity)
        assert op.morsels == -(-entry.table.n_pages // morsel_pages)
