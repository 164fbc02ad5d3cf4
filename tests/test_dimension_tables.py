"""Tests for stored dimension tables and their I/O accounting."""

import pytest

from repro.core.operators.hash_join import SharedScanStarJoin
from repro.core.optimizer import CostModel
from repro.check import evaluate_reference
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery

from helpers import hash_star_join, make_tiny_db


def q(levels=(1, 1), preds=(), label=""):
    return GroupByQuery(
        groupby=GroupBy(levels), predicates=tuple(preds), label=label
    )


class TestStorage:
    def test_tables_created_per_dimension(self):
        db = make_tiny_db(n_rows=100)
        tables = db.store_dimension_tables()
        assert set(tables) == {"X", "Y"}
        assert tables["X"].n_rows == db.schema.dimensions[0].n_members(0)
        assert tables["X"].columns == ("X", "X'", "X''")

    def test_rows_carry_ancestors(self):
        db = make_tiny_db(n_rows=50)
        tables = db.store_dimension_tables()
        dim = db.schema.dimensions[0]
        for row in tables["X"].all_rows():
            leaf = int(row[0])
            assert int(row[1]) == dim.rollup(0, 1, leaf)
            assert int(row[2]) == dim.rollup(0, 2, leaf)

    def test_idempotent(self):
        db = make_tiny_db(n_rows=50)
        first = db.store_dimension_tables()
        second = db.store_dimension_tables()
        assert first["X"] is second["X"]


class TestChargedBuilds:
    def test_builds_charge_dimension_scans(self):
        db = make_tiny_db(n_rows=200)
        db.store_dimension_tables()
        db.flush()
        before = db.stats.snapshot()
        hash_star_join(db, "XY", q((1, 1)))
        delta = db.stats.delta_since(before)
        dim_pages = sum(t.n_pages for t in db.dimension_tables.values())
        base_pages = db.catalog.get("XY").n_pages
        # The scan reads the base table plus both dimension tables.
        assert delta.seq_page_reads >= base_pages + dim_pages

    def test_without_stored_dims_no_extra_io(self):
        db = make_tiny_db(n_rows=200)
        db.flush()
        before = db.stats.snapshot()
        hash_star_join(db, "XY", q((1, 1)))
        delta = db.stats.delta_since(before)
        assert delta.seq_page_reads == db.catalog.get("XY").n_pages

    def test_shared_scan_builds_dimension_structures_once(self):
        """The paper's §3.1 claim extended to dimension-table I/O: a shared
        class reads each dimension table once, separate runs read it per
        query."""
        db = make_tiny_db(n_rows=300)
        db.store_dimension_tables()
        queries = [q((1, 1), label="a"), q((1, 1), label="b")]
        db.flush()
        before = db.stats.snapshot()
        SharedScanStarJoin(db.ctx(), "XY", queries).run_ordered()
        shared_reads = db.stats.delta_since(before).seq_page_reads
        separate_reads = 0
        for query in queries:
            db.flush()
            before = db.stats.snapshot()
            hash_star_join(db, "XY", query)
            separate_reads += db.stats.delta_since(before).seq_page_reads
        assert shared_reads < separate_reads

    def test_results_unchanged(self):
        db = make_tiny_db(n_rows=200)
        query = q((1, 2), preds=[DimPredicate(0, 1, frozenset({0, 2}))])
        plain = hash_star_join(db, "XY", query)
        db.store_dimension_tables()
        stored = hash_star_join(db, "XY", query)
        assert plain.groups == stored.groups
        base = db.catalog.get("XY")
        expected = evaluate_reference(
            db.schema, base.table.all_rows(), query, base.levels
        )
        assert stored.groups == expected.groups


class TestCostModelAccounting:
    def test_estimates_include_dimension_scans(self):
        db = make_tiny_db(n_rows=300)
        entry = db.catalog.get("XY")
        plain_model = CostModel(db.schema, db.catalog, db.stats.rates)
        plain = plain_model.plan_class(entry, [q((1, 1))]).cost_ms
        db.store_dimension_tables()
        stored_model = CostModel(
            db.schema, db.catalog, db.stats.rates,
            dim_tables=db.dimension_tables,
        )
        stored = stored_model.plan_class(entry, [q((1, 1))]).cost_ms
        assert stored > plain

    def test_estimate_matches_simulation_with_dim_tables(self):
        from repro.bench.harness import run_forced_class
        from repro.core.optimizer.plans import JoinMethod

        db = make_tiny_db(n_rows=300)
        db.store_dimension_tables()
        entry = db.catalog.get("XY")
        model = CostModel(
            db.schema, db.catalog, db.stats.rates,
            dim_tables=db.dimension_tables,
        )
        query = q((1, 1))
        est = model.class_cost_given(entry, [query], [JoinMethod.HASH])
        run = run_forced_class(db, "XY", [query], [JoinMethod.HASH])
        assert est == pytest.approx(run.sim_ms, rel=0.1)

    def test_optimizer_still_correct_with_dim_tables(self):
        db = make_tiny_db(n_rows=300, materialized=("X'Y'",))
        db.store_dimension_tables()
        queries = [q((1, 1), label="a"), q((2, 2), label="b")]
        report = db.run_queries(queries, "gg")
        base = db.catalog.get("XY")
        for query in queries:
            expected = evaluate_reference(
                db.schema, base.table.all_rows(), query, base.levels
            )
            assert report.result_for(query).groups == expected.groups
