"""Operator tests: pipelines and the three shared star joins, all checked
against the brute-force reference evaluator."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators import aggregate as aggregate_module
from repro.core.operators import star_join as star_join_module
from repro.core.operators.star_join import (
    MissingIndexError,
    ProbeRows,
    ScanRows,
    StarJoin,
    query_result_bitmap,
    usable_index,
)
from repro.core.operators.pipeline import MemberGroup, QueryPipeline
from repro.core.operators.pipeline import member_groups, settle_builds
from repro.core.operators.results import OperatorActuals
from repro.bench.harness import forced_plan
from repro.core.explain import explain_plan
from repro.core.optimizer.plans import DeriveStep, JoinMethod
from repro.check import evaluate_reference
from repro.engine.database import Database
from repro.faults import FaultPlan, InjectedFault, InjectionPoint
from repro.schema.lattice import build_keys, source_can_answer
from repro.schema.query import Aggregate, DimPredicate, GroupBy, GroupByQuery
from repro.storage import table as table_module
from repro.storage.iostats import (
    build_counts,
    merge_counts,
    pipeline_counts,
    routing_counts,
)

from repro.mdx.translator import translate_mdx
from repro.workload.mdx_generator import generate_mdx

from helpers import hash_star_join, make_tiny_db, make_tiny_schema
from helpers import random_database, random_query


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
        assert result.groups == reference_for(db, query).groups

    def test_matches_reference_with_predicates(self, db):
        query = simple_query(
            (1, 2),
            [DimPredicate(0, 2, frozenset({0})), DimPredicate(1, 1, frozenset({1, 3}))],
        )
        result = hash_star_join(db, "XY", query)
        assert result.groups == reference_for(db, query).groups

    def test_random_queries_match_reference(self, db):
        rng = random.Random(11)
        for i in range(25):
            query = random_query(db.schema, rng, label=f"rand{i}")
            result = hash_star_join(db, "XY", query)
            assert result.groups == reference_for(db, query).groups, (
                query.describe(db.schema)
            )

    def test_from_materialized_view_matches_base(self, db):
        query = simple_query((1, 2), [DimPredicate(0, 1, frozenset({0, 2}))])
        from_base = hash_star_join(db, "XY", query)
        from_view = hash_star_join(db, "X'Y", query)
        assert from_base.groups == from_view.groups

    def test_unanswerable_source_rejected(self, db):
        query = simple_query((0, 0))  # needs leaf X, view stores X'
        with pytest.raises(ValueError):
            StarJoin(db.ctx(), "X'Y", ScanRows, [query])


class TestPredicateMask:
    """``Dimension.member_mask`` is a scatter and a gather; it is held to
    the set-membership test it replaced, bit for bit."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_isin_over_the_rollup_map(self, paper_schema, data):
        dim = data.draw(st.sampled_from(paper_schema.dimensions))
        from_level = data.draw(st.integers(0, dim.all_level))
        level = data.draw(st.integers(from_level, dim.all_level))
        # Ids outside the level's domain select nothing, as they always have.
        n = dim.n_members(level)
        members = data.draw(st.frozensets(st.integers(-3, n + 3), min_size=1))
        mask = dim.member_mask(from_level, level, members)
        want = np.isin(
            dim.rollup_map(from_level, level),
            np.fromiter(members, dtype=np.int64),
        )
        assert mask.dtype == np.bool_
        assert mask.tolist() == want.tolist()


class TestSharedScanHashJoin:
    def queries(self):
        return [
            simple_query((1, 1), [DimPredicate(0, 2, frozenset({0}))]),
            simple_query((2, 1)),
            simple_query((1, 3), [DimPredicate(1, 1, frozenset({0, 2}))]),
        ]

    def test_results_equal_separate_execution(self, db):
        queries = self.queries()
        shared = StarJoin(db.ctx(), "XY", ScanRows, queries).run()
        for query, result in zip(queries, shared):
            solo = hash_star_join(db, "XY", query)
            assert result.groups == solo.groups
            assert result.groups == reference_for(db, query).groups

    def test_scan_io_charged_once(self, db):
        queries = self.queries()
        entry = db.catalog.get("XY")
        db.flush()
        before = db.stats.snapshot()
        StarJoin(db.ctx(), "XY", ScanRows, queries).run()
        delta = db.stats.delta_since(before)
        assert delta.seq_page_reads == entry.n_pages
        assert delta.rand_page_reads == 0

    def test_empty_query_list_rejected(self, db):
        with pytest.raises(ValueError):
            StarJoin(db.ctx(), "XY", ScanRows, [])


class TestIndexStarJoin:
    def selective_query(self):
        return simple_query(
            (1, 2),
            [DimPredicate(0, 1, frozenset({2})), DimPredicate(1, 2, frozenset({0}))],
        )

    def test_matches_reference(self, db):
        query = self.selective_query()
        result = StarJoin(db.ctx(), "XY", ProbeRows, index_queries=[query]).run()[0]
        assert result.groups == reference_for(db, query).groups

    def test_matches_hash_join(self, db):
        query = self.selective_query()
        via_index = StarJoin(db.ctx(), "XY", ProbeRows, index_queries=[query]).run()[0]
        via_hash = hash_star_join(db, "XY", query)
        assert via_index.groups == via_hash.groups

    def test_one_query_neither_ors_nor_routes(self, db):
        """The single-query plan is the one-member shared index join: it
        labels itself ``IndexStarJoin`` and charges no OR words and no
        bitmap tests, since its bitmap is the probe set."""
        query = self.selective_query()
        before = db.stats.snapshot()
        operator = StarJoin(db.ctx(), "XY", ProbeRows, index_queries=[query])
        operator.run()
        delta = db.stats.delta_since(before)
        assert operator.label == operator.actuals.operator == "IndexStarJoin"
        assert delta.bitmap_tests == 0
        assert operator.actuals.tuples_routed == {}
        assert operator.actuals.bitmap_popcounts[query.qid] == (
            operator.actuals.probes_issued
        )
        pair = StarJoin(db.ctx(), "XY", ProbeRows, index_queries=[query, query])
        assert pair.label == "SharedIndexStarJoin"

    def test_probe_reads_are_random(self, db):
        db.flush()
        before = db.stats.snapshot()
        query = self.selective_query()
        StarJoin(db.ctx(), "XY", ProbeRows, index_queries=[query]).run()[0]
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
        result = StarJoin(db.ctx(), "XY", ProbeRows, index_queries=[query]).run()[0]
        assert result.groups == reference_for(db, query).groups

    def test_unindexed_predicate_is_residual(self, db):
        # The view X'Y has no indexes: index plan on XY with one indexed and
        # the pipelines still apply every predicate.
        query = simple_query(
            (1, 1),
            [DimPredicate(0, 1, frozenset({0})), DimPredicate(1, 0, frozenset({0, 1}))],
        )
        result = StarJoin(db.ctx(), "XY", ProbeRows, index_queries=[query]).run()[0]
        assert result.groups == reference_for(db, query).groups

    def test_no_indexes_at_all_raises(self, db):
        query = simple_query((1, 1), [DimPredicate(0, 1, frozenset({0}))])
        with pytest.raises(MissingIndexError):
            StarJoin(db.ctx(), "X'Y", ProbeRows, index_queries=[query]).run()[0]

    def test_no_predicates_bitmap_is_all_ones(self, db):
        entry = db.catalog.get("XY")
        bitmap = query_result_bitmap(
            db.ctx(), entry, simple_query((1, 1)), OperatorActuals("")
        )
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
        shared = StarJoin(db.ctx(), "XY", ProbeRows, index_queries=queries).run()
        for query, result in zip(queries, shared):
            solo = StarJoin(db.ctx(), "XY", ProbeRows, index_queries=[query]).run()[0]
            assert result.groups == solo.groups
            assert result.groups == reference_for(db, query).groups

    def test_union_probe_touches_no_more_pages_than_separate(self, db):
        queries = self.queries()
        separate_pages = 0
        for query in queries:
            db.flush()
            before = db.stats.snapshot()
            StarJoin(db.ctx(), "XY", ProbeRows, index_queries=[query]).run()[0]
            separate_pages += db.stats.delta_since(before).rand_page_reads
        db.flush()
        before = db.stats.snapshot()
        StarJoin(db.ctx(), "XY", ProbeRows, index_queries=queries).run()
        shared_pages = db.stats.delta_since(before).rand_page_reads
        assert shared_pages <= separate_pages

    def test_a_probe_feeds_index_members_only(self, db):
        """A hash member or a derive step needs every row: the probe's
        fetched rows cannot feed it, so the join refuses to be built."""
        queries = self.queries()
        step = DeriveStep(simple_query((1, 1)), (simple_query((2, 1)),))
        for kwargs in (
            {"hash_queries": [simple_query((1, 1))]},
            {"derives": [step]},
        ):
            with pytest.raises(ValueError, match="an index probe feeds index members only"):
                StarJoin(db.ctx(), "XY", ProbeRows, index_queries=queries, **kwargs)


class TestSharedHybridJoin:
    def test_results_match_pure_operators(self, db):
        hash_queries = [simple_query((1, 1))]
        index_queries = [
            simple_query((1, 2), [DimPredicate(0, 1, frozenset({1}))]),
            simple_query((2, 2), [DimPredicate(1, 1, frozenset({0}))]),
        ]
        op = StarJoin(db.ctx(), "XY", ScanRows, hash_queries, index_queries)
        for query, result in zip(hash_queries + index_queries, op.run()):
            assert result.groups == reference_for(db, query).groups

    def test_no_random_reads(self, db):
        """The whole point of Section 3.3: index plans ride the scan."""
        index_queries = [
            simple_query((1, 2), [DimPredicate(0, 1, frozenset({1}))]),
        ]
        hash_queries = [simple_query((2, 1))]
        db.flush()
        before = db.stats.snapshot()
        StarJoin(db.ctx(), "XY", ScanRows, hash_queries, index_queries).run()
        delta = db.stats.delta_since(before)
        assert delta.rand_page_reads == 0
        assert delta.seq_page_reads >= db.catalog.get("XY").n_pages

    def test_run_returns_member_order(self, db):
        """Hash members, then index members, then each step's derived
        ones — whatever order the scan meets them in."""
        hash_queries = [simple_query((1, 1))]
        index_queries = [
            simple_query((1, 2), [DimPredicate(0, 1, frozenset({1}))]),
        ]
        derived = (simple_query((2, 1)),)
        op = StarJoin(
            db.ctx(), "XY", ScanRows, hash_queries, index_queries,
            [DeriveStep(simple_query((1, 1)), derived)],
        )
        assert [r.query.qid for r in op.run()] == [
            q.qid for q in (*hash_queries, *index_queries, *derived)
        ]

    def test_empty_rejected(self, db):
        with pytest.raises(ValueError):
            StarJoin(db.ctx(), "XY", ScanRows, [], [])

    def test_an_empty_table_routes_zero_rows(self):
        """Each index member's routing counters are there before the first
        morsel: on an empty table the scan reports 0 tested and 0 routed
        for each, as the probe does, and EXPLAIN ANALYZE prints its
        ``routed``."""
        db = Database(make_tiny_schema(), page_size=64, buffer_pages=256)
        db.load_base([], name="XY")
        db.index_all_dimensions("XY")
        hash_query = simple_query((1, 1))
        index_queries = [
            simple_query((1, 2), [DimPredicate(0, 1, frozenset({0}))]),
            simple_query((2, 1), [DimPredicate(1, 1, frozenset({1}))]),
        ]
        zeros = {query.qid: 0 for query in index_queries}
        for rows, hash_queries in ((ScanRows, [hash_query]), (ProbeRows, [])):
            op = StarJoin(db.ctx(), "XY", rows, hash_queries, index_queries)
            op.run()
            assert op.actuals.tuples_tested == zeros, rows.__name__
            assert op.actuals.tuples_routed == zeros, rows.__name__
        plan = forced_plan(
            "XY", [hash_query, *index_queries],
            [JoinMethod.HASH, JoinMethod.INDEX, JoinMethod.INDEX],
        )
        text = explain_plan(db, plan, db.execute(plan))
        for query in index_queries:
            line = next(
                line for line in text.splitlines()
                if f"{query.display_name()} [index]" in line
            )
            assert ", routed 0" in line


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
        op = StarJoin(
            db.ctx(), "XY", ScanRows, hash_queries, index_queries, derives
        )
        results = {result.query.qid: result for result in op.run()}
        observed = (
            {
                qid: list(result.groups.items())
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
        monkeypatch.setattr(star_join_module, "SharedProbe", EveryMemberAlone)
        _results, alone = self.run_class(db, hash_queries, index_queries, derives)
        for got, want in zip(shared, alone):  # results, actuals, IOStats
            assert got == want
        n_rows = db.catalog.get("XY").table.n_rows
        for query in hash_queries:
            assert shared[1]["rows_in"][str(query.qid)] == n_rows
            assert results[query.qid].groups == reference_for(db, query).groups

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

        def observed(results, pipes, before):
            delta = db.stats.delta_since(before).as_dict()
            return (
                [list(r.groups.items()) for r in results],
                [(p.rows_in, p.rows_passed) for p in pipes],
                delta,
            )

        ctx = db.ctx()
        entry = ctx.entry("XY")
        db.flush()
        before = db.stats.snapshot()
        pipes = [QueryPipeline(db.schema, q, entry.levels) for q in queries]
        settle_builds(ctx, set(), pipes)
        for _start, _pages, _rows, keys, measures in entry.table.scan_batches(
            db.pool, db.schema.n_dims
        ):
            for pipe in pipes:
                db.stats.charge(pipe.process_batch(keys, measures))
        want = observed([p.result() for p in pipes], pipes, before)

        db.flush()
        before = db.stats.snapshot()
        built = []
        build = QueryPipeline.__init__

        def recording(self, *args, **kwargs):
            build(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(QueryPipeline, "__init__", recording)
        op = StarJoin(ctx, "XY", ScanRows, queries)
        got = observed(op.run(), built, before)
        assert got == want
        morsel_pages = max(1, morsel_rows // entry.table.capacity)
        assert op.actuals.morsels == -(-entry.table.n_pages // morsel_pages)


class TestSharedIndexProbe:
    """The shared index join routes the union's rows through one shared
    probe, held to every member testing its own predicates on them: same
    rows, same order, same charges.  The same members riding a shared scan
    as its index members are held to the same oracle, and answer alike."""

    @pytest.fixture(scope="class")
    def x_indexed_db(self):
        """Only X is indexed on XY: a predicate on Y is residual."""
        db = make_tiny_db(n_rows=600, index_tables=())
        db.index_all_dimensions("XY", dim_names=("X",))
        return db

    @staticmethod
    def run_class(db, rows, queries):
        db.flush()
        before = db.stats.snapshot()
        op = StarJoin(db.ctx(), "XY", rows, index_queries=queries)
        results = op.run()
        observed = (
            [list(result.groups.items()) for result in results],
            op.actuals.as_dict(),
            db.stats.delta_since(before).as_dict(),
        )
        return results, observed

    @pytest.mark.parametrize(
        "n_members, rows",
        [
            pytest.param(n, rows, id=f"{n}" if rows is ProbeRows else f"{n}-scan")
            for rows in (ProbeRows, ScanRows)
            for n in (1, 2, 64, 65, 130)
        ],
    )
    def test_join_equals_every_member_alone(
        self, x_indexed_db, monkeypatch, n_members, rows
    ):
        db = x_indexed_db
        residual = simple_query(
            (1, 2),
            [DimPredicate(0, 1, frozenset({1, 2})), DimPredicate(1, 0, frozenset({0, 1, 2}))],
        )
        empty = simple_query(  # disjoint members of one level: no row
            (1, 1),
            [DimPredicate(0, 1, frozenset({0})), DimPredicate(0, 1, frozenset({1}))],
        )
        queries = [residual, empty][:n_members]
        rng = random.Random(n_members)
        while len(queries) < n_members:
            query = random_query(db.schema, rng)
            if any(p.dim_index == 0 for p in query.predicates):
                queries.append(query)
        rng.shuffle(queries)
        results, shared = self.run_class(db, rows, queries)
        other = ScanRows if rows is ProbeRows else ProbeRows
        _results, across = self.run_class(db, other, queries)
        assert across[0] == shared[0]  # results, in group order
        monkeypatch.setattr(star_join_module, "SharedProbe", EveryMemberAlone)
        _results, alone = self.run_class(db, rows, queries)
        for got, want in zip(shared, alone):  # results, actuals, IOStats
            assert got == want
        popcounts = shared[1]["bitmap_popcounts"]
        assert popcounts[str(residual.qid)] > 0
        if n_members > 1:
            assert popcounts[str(empty.qid)] == 0
            assert shared[1]["rows_in"] == shared[1]["tuples_routed"]
        for query, result in zip(queries, results):
            assert result.groups == reference_for(db, query).groups

    def test_pipeline_fault_charges_the_members_before_it(self, db):
        """An ``operator.pipeline`` fault at member j of a four-member join
        charges exactly the lookups, the OR and the fetch, then each member
        before j in full: its builds, its routing and its pipeline."""
        queries = [
            simple_query((1, 2), [DimPredicate(0, 1, frozenset({0}))]),
            simple_query((1, 2), [DimPredicate(0, 1, frozenset({0, 1}))]),
            simple_query(
                (2, 1),
                [DimPredicate(1, 1, frozenset({3})), DimPredicate(0, 2, frozenset({0}))],
            ),
            simple_query((0, 0), [DimPredicate(1, 0, frozenset({2, 5}))]),
        ]
        entry = db.catalog.get("XY")
        # The lookups (and ANDs), the OR and the fetch, charged alone.
        ctx = db.ctx(private=True)
        bitmaps = [
            query_result_bitmap(ctx, entry, query, OperatorActuals(""))
            for query in queries
        ]
        union = bitmaps[0].copy()
        for bitmap in bitmaps[1:]:
            union.words |= bitmap.words
        ctx.stats.charge(merge_counts(len(bitmaps), union.n_words))
        entry.table.fetch_positions(ctx.pool, union.positions(), db.schema.n_dims)
        expected = [ctx.stats.counts()]
        # Each member in turn: the structures the members before it did not
        # build, the routing of the union's rows, and its pipeline.
        clean = StarJoin(db.ctx(private=True), "XY", ProbeRows, index_queries=queries)
        clean.run()
        actuals, built = clean.actuals, set()
        for query in queries:
            pipe = QueryPipeline(db.schema, query, entry.levels)
            keys = set(build_keys(db.schema, entry.levels, query)) - built
            built |= keys
            expected.append(
                expected[-1]
                + build_counts(sum(db.schema.level_sizes[k[0]][k[1]] for k in keys))
                + routing_counts(len(queries), union.count())
                + pipeline_counts(
                    actuals.rows_in[query.qid],
                    pipe.n_probe_dims,
                    pipe.n_predicates,
                    actuals.rows_passed[query.qid],
                )
            )
        for j in range(len(queries)):
            plan = FaultPlan([InjectionPoint(site="operator.pipeline", nth=j + 1)])
            ctx = db.ctx(private=True)
            ctx.faults = plan
            with pytest.raises(InjectedFault):
                StarJoin(ctx, "XY", ProbeRows, index_queries=queries).run()
            assert plan.n_fired == 1
            assert ctx.stats.counts() == expected[j], j
        ctx = db.ctx(private=True)
        StarJoin(ctx, "XY", ProbeRows, index_queries=queries).run()
        assert ctx.stats.counts() == expected[-1]


def every_member_alone(pipes):
    """Stands in for ``member_groups``: every member folds alone."""
    return [MemberGroup([pipe]) for pipe in pipes]


class TestGroupFold:
    """Members that fold alike fold each batch once, together: held to
    every member folding alone — same results (group order and float bits),
    same actuals, same ``IOStats`` — on every operator, under any fold and
    compaction budget."""

    @staticmethod
    def members(db, rng, n_members):
        """``n_members`` queries over the base table: the MDX generator's
        and random ones, each given one of three (group-by, aggregate)
        pairs most of the time — the first two always the first pair, so
        some members fold alike — among them a predicate-free member and a
        member no row survives."""
        schema = db.schema
        queries = []
        while len(queries) < n_members:
            text = generate_mdx(schema, rng).text
            queries += translate_mdx(schema, text)[:2]
            queries.append(random_query(schema, rng))
        folds = [(q.groupby, rng.choice(list(Aggregate))) for q in queries[:3]]
        dim = schema.dimensions[0]
        queries[0] = GroupByQuery(folds[0][0])
        queries[1] = GroupByQuery(
            folds[0][0],
            (DimPredicate(0, dim.all_level - 1, frozenset({0})),
             DimPredicate(0, dim.all_level - 1, frozenset({1}))),
        )
        alike = [folds[0], folds[0]] + [
            rng.choice(folds) if rng.random() < 0.7
            else (q.groupby, rng.choice(list(Aggregate)))
            for q in queries[2:n_members]
        ]
        return [
            GroupByQuery(groupby, q.predicates, aggregate)
            for q, (groupby, aggregate) in zip(queries, alike)
        ]

    @staticmethod
    def observe(db, make_op):
        db.flush()
        before = db.stats.snapshot()
        op = make_op(db.ctx())
        results = op.run()
        return (
            [(r.query.qid, list(r.groups.items())) for r in results],
            op.actuals.as_dict(),
            db.stats.delta_since(before).as_dict(),
        )

    @given(
        seed=st.integers(0, 10**6),
        n_members=st.sampled_from([2, 9, 70]),
        operator=st.sampled_from(["scan", "hybrid", "index", "derive"]),
        budget=st.sampled_from([None, "FOLD_ROWS", "COMPACT_ROWS"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_group_fold_equals_every_member_alone(
        self, seed, n_members, operator, budget
    ):
        db = random_database(seed % 50)
        rng = random.Random(seed)
        base = next(e for e in db.catalog.entries() if not any(e.levels))
        queries = self.members(db, rng, n_members)
        predicated = [q for q in queries if q.predicates]
        if operator == "index":
            def make_op(ctx):
                return StarJoin(ctx, base.name, ProbeRows, index_queries=queries)
        elif operator == "hybrid":
            def make_op(ctx):
                return StarJoin(
                    ctx, base.name, ScanRows, queries[: n_members // 2],
                    predicated[n_members // 2 :] or predicated[-1:],
                )
        else:
            steps = []
            if operator == "derive":
                for first in queries[:2]:
                    if first.aggregate is Aggregate.AVG:
                        continue
                    inter = GroupByQuery(first.groupby, (), first.aggregate)
                    alike = [
                        GroupByQuery(q.groupby, q.predicates, inter.aggregate)
                        for q in queries
                    ] + [GroupByQuery(inter.groupby, (), inter.aggregate)
                         for _ in range(2)]
                    derived = tuple(
                        q for q in alike if source_can_answer(
                            inter.groupby.levels, inter.aggregate.value, q
                        )
                    )
                    steps.append(DeriveStep(inter, derived))

            def make_op(ctx):
                return StarJoin(ctx, base.name, ScanRows, queries, (), steps)

        sizes = []

        def recording(pipes):
            groups = member_groups(pipes)
            sizes.extend(len(group.pipes) for group in groups)
            return groups

        with pytest.MonkeyPatch.context() as patch:
            if budget is not None:
                patch.setattr(aggregate_module, budget, 1)
            patch.setattr(star_join_module, "member_groups", recording)
            grouped = self.observe(db, make_op)
            patch.setattr(star_join_module, "member_groups", every_member_alone)
            alone = self.observe(db, make_op)
        assert max(sizes) > 1  # some members did share a fold
        for got, want in zip(grouped, alone):  # results, actuals, IOStats
            assert got == want
