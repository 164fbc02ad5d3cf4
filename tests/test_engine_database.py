"""Tests for the Database facade: loading, materialization, indexing."""

import re

import pytest

from repro.engine.database import Database
from repro.engine.materialize import (
    compute_groupby,
    pick_materialization_source,
)
from repro.check import evaluate_reference
from repro.schema.query import GroupBy, GroupByQuery
from repro.workload.generator import generate_fact_rows

from conftest import make_tiny_schema
from helpers import make_tiny_db


class TestLoading:
    def test_load_base_registers_leaf_levels(self):
        db = make_tiny_db(n_rows=100)
        entry = db.catalog.get("XY")
        assert entry.levels == (0, 0)
        assert entry.n_rows == 100
        assert not entry.clustered

    def test_default_base_name_is_groupby_notation(self):
        schema = make_tiny_schema()
        db = Database(schema, page_size=64)
        db.load_base(generate_fact_rows(schema, 10, seed=0))
        assert "XY" in db.catalog

    def test_measures_are_stored_as_int_cents(self):
        db = Database(make_tiny_schema(), page_size=64)
        db.load_base([(0, 0, 12.34), (1, 1, -0.07), (2, 2, 5)])
        assert list(db.catalog.get("XY").table.all_rows()) == [
            (0, 0, 1234), (1, 1, -7), (2, 2, 500)
        ]

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), 1.234, 1e300]
    )
    def test_a_measure_not_whole_cents_names_its_row(self, bad):
        db = Database(make_tiny_schema(), page_size=64)
        rows = [(0, 0, 1.0), (1, 1, 2.5), (2, 2, bad)]
        with pytest.raises(ValueError, match=re.escape(f"row 2: measure {bad!r}")):
            db.load_base(rows)
        assert db.catalog.names() == [] and db.data_version == 0


class TestMaterialization:
    def test_materialized_rows_match_reference(self):
        db = make_tiny_db(n_rows=300)
        entry = db.materialize("X'Y'")
        base = db.catalog.get("XY")
        query = GroupByQuery(groupby=GroupBy((1, 1)))
        expected = evaluate_reference(
            db.schema, base.table.all_rows(), query, base.levels
        )
        got = {  # the view stores int cents
            (row[0], row[1]): row[2] / 100 for row in entry.table.all_rows()
        }
        assert got == expected.groups

    def test_materialized_tables_are_clustered_and_sorted(self):
        db = make_tiny_db(n_rows=300)
        entry = db.materialize("X'Y")
        keys = [(row[0], row[1]) for row in entry.table.all_rows()]
        assert keys == sorted(keys)
        assert entry.clustered

    def test_materialize_accepts_level_vectors(self):
        db = make_tiny_db(n_rows=100)
        entry = db.materialize((1, 2), name="custom")
        assert entry.levels == (1, 2)
        assert "custom" in db.catalog

    def test_materialization_chains_from_cheapest_source(self):
        db = make_tiny_db(n_rows=300)
        db.materialize("X'Y")
        source = pick_materialization_source(
            db.schema, db.catalog.entries(), (2, 1)
        )
        assert source.name == "X'Y"  # cheaper than the base table

    def test_derivation_direction_enforced(self):
        db = make_tiny_db(n_rows=100)
        view = db.materialize("X'Y'")
        with pytest.raises(ValueError):
            compute_groupby(db.schema, view, (0, 0))

    def test_no_source_raises(self):
        schema = make_tiny_schema()
        db = Database(schema, page_size=64)
        with pytest.raises(ValueError, match="no registered table"):
            db.materialize("X'Y")

    def test_sizes_shrink_with_coarseness(self):
        db = make_tiny_db(n_rows=500)
        fine = db.materialize("X'Y")
        coarse = db.materialize("X''Y''")
        assert coarse.n_rows <= fine.n_rows <= 500


class TestIndexing:
    def test_default_index_level_is_stored_level(self):
        db = make_tiny_db(n_rows=100, materialized=("X'Y",), index_tables=())
        db.create_bitmap_index("X'Y", "X")
        assert db.catalog.get("X'Y").index_for(0, 1) is not None

    def test_index_at_coarser_level(self):
        db = make_tiny_db(n_rows=100, index_tables=())
        db.create_bitmap_index("XY", "X", level="X''")
        assert db.catalog.get("XY").index_for(0, 2) is not None

    def test_btree_kind(self):
        from repro.index.btree import PositionListJoinIndex

        db = make_tiny_db(n_rows=100, index_tables=())
        db.create_bitmap_index("XY", "X", kind="btree")
        assert isinstance(
            db.catalog.get("XY").index_for(0, 0), PositionListJoinIndex
        )

    def test_unknown_kind_rejected(self):
        db = make_tiny_db(n_rows=100, index_tables=())
        with pytest.raises(ValueError, match="unknown index kind"):
            db.create_bitmap_index("XY", "X", kind="lsm")

    def test_index_below_stored_level_rejected(self):
        db = make_tiny_db(n_rows=100, materialized=("X'Y",), index_tables=())
        with pytest.raises(ValueError):
            db.create_bitmap_index("X'Y", "X", level=0)

    def test_index_on_all_dim_rejected(self):
        db = make_tiny_db(n_rows=100, index_tables=())
        db.materialize((0, db.schema.dimensions[1].all_level), name="xonly")
        with pytest.raises(ValueError, match="ALL"):
            db.create_bitmap_index("xonly", "Y")

    def test_index_all_dimensions_skips_all_levels(self):
        db = make_tiny_db(n_rows=100, index_tables=())
        db.materialize((0, db.schema.dimensions[1].all_level), name="xonly")
        db.index_all_dimensions("xonly")
        entry = db.catalog.get("xonly")
        assert entry.index_for(0, 0) is not None
        assert len(entry.indexes) == 1


class TestFacade:
    def test_run_mdx_end_to_end(self):
        db = make_tiny_db(n_rows=200)
        report = db.run_mdx("{X''.X1.CHILDREN} on COLUMNS CONTEXT XY")
        assert len(report.results) == 1
        result = next(iter(report.results.values()))
        base = db.catalog.get("XY")
        total = sum(row[2] for row in base.table.all_rows()
                    if db.schema.dimensions[0].rollup(0, 2, row[0]) == 0)
        assert result.total() == pytest.approx(total / 100)

    def test_table_report_sorted_by_rows(self):
        db = make_tiny_db(n_rows=300, materialized=("X'Y", "X''Y''"))
        report = db.table_report()
        rows = [r[1] for r in report]
        assert rows == sorted(rows, reverse=True)

    def test_flush_and_reset_stats(self):
        db = make_tiny_db(n_rows=100)
        db.run_queries(
            [GroupByQuery(groupby=GroupBy((1, 1)))], "naive"
        )
        assert db.stats.total_ms > 0
        db.reset_stats()
        assert db.stats.total_ms == 0
        db.flush()
        assert len(db.pool) == 0
