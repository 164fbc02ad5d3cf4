"""Tests for incremental view and index maintenance under appends.

Invariant: after any sequence of appends, every maintained view and index
is identical (up to row order) to one rebuilt from scratch, and every query
still matches the brute-force reference on the grown base table.
"""

import random

import pytest

from repro.engine.maintenance import MaintenanceError, append_rows
from repro.engine.reference import evaluate_reference
from repro.core.operators.index_join import IndexStarJoin
from repro.schema.query import Aggregate, DimPredicate, GroupBy, GroupByQuery
from repro.workload.generator import generate_fact_rows

from helpers import hash_star_join, make_tiny_db


def fresh_db(**kwargs):
    defaults = dict(
        n_rows=300, materialized=("X'Y", "X'Y'"), index_tables=("XY", "X'Y")
    )
    defaults.update(kwargs)
    return make_tiny_db(**defaults)


def new_rows(db, n, seed):
    return generate_fact_rows(db.schema, n, seed=seed)


def view_as_dict(entry):
    n_dims = len(entry.levels)
    return {
        tuple(int(v) for v in row[:n_dims]): row[n_dims]
        for row in entry.table.all_rows()
    }


class TestBaseAppend:
    def test_base_grows(self):
        db = fresh_db()
        report = db.append_rows(new_rows(db, 50, seed=99))
        assert db.catalog.get("XY").n_rows == 350
        assert report["XY"] == 50

    def test_empty_append_is_noop(self):
        db = fresh_db()
        assert db.append_rows([]) == {}
        assert db.catalog.get("XY").n_rows == 300

    def test_bad_row_width_rejected(self):
        db = fresh_db()
        with pytest.raises(ValueError):
            db.append_rows([(1, 2)])

    def test_append_to_view_rejected(self):
        db = fresh_db()
        with pytest.raises(MaintenanceError):
            append_rows(db, [(0, 0, 1.0)], base_name="X'Y")

    def test_custom_base_name_found_automatically(self):
        """The default base is located by its raw flag, not by notation-
        derived naming (regression: a base loaded as 'sales' broke
        append_rows)."""
        from repro.engine.database import Database

        from conftest import make_tiny_schema

        db = Database(make_tiny_schema(), page_size=64)
        db.load_base([(0, 0, 1.0)], name="facts")
        db.materialize("X'Y'")
        report = db.append_rows([(1, 1, 2.0)])
        assert report["facts"] == 1
        assert db.catalog.get("facts").n_rows == 2

    def test_no_raw_table_rejected(self):
        from repro.engine.database import Database

        from conftest import make_tiny_schema

        db = Database(make_tiny_schema(), page_size=64)
        with pytest.raises(MaintenanceError, match="no raw base"):
            append_rows(db, [(0, 0, 1.0)])


class TestViewMaintenance:
    def test_sum_view_matches_rebuild(self):
        db = fresh_db()
        db.append_rows(new_rows(db, 80, seed=7))
        maintained = view_as_dict(db.catalog.get("X'Y'"))
        # Rebuild from scratch in a sibling database with identical data.
        twin = make_tiny_db(n_rows=300, materialized=(), index_tables=())
        twin.append_rows(new_rows(twin, 80, seed=7))
        rebuilt = view_as_dict(twin.materialize("X'Y'", name="check"))
        assert maintained.keys() == rebuilt.keys()
        for key, value in rebuilt.items():
            assert maintained[key] == pytest.approx(value)

    @pytest.mark.parametrize(
        "aggregate", [Aggregate.COUNT, Aggregate.MIN, Aggregate.MAX]
    )
    def test_non_sum_views_maintained(self, aggregate):
        db = fresh_db()
        db.materialize((1, 1), name="special", aggregate=aggregate)
        db.append_rows(new_rows(db, 60, seed=13))
        base = db.catalog.get("XY")
        query = GroupByQuery(groupby=GroupBy((1, 1)), aggregate=aggregate)
        expected = evaluate_reference(
            db.schema, base.table.all_rows(), query, base.levels
        )
        assert view_as_dict(db.catalog.get("special")) == {
            k: pytest.approx(v) for k, v in expected.groups.items()
        }

    def test_new_groups_append_and_unclusters(self):
        db = make_tiny_db(n_rows=5, seed=1, materialized=("X'Y'",))
        entry = db.catalog.get("X'Y'")
        before_groups = entry.n_rows
        assert entry.clustered
        # Append enough rows to certainly hit new (X', Y') combinations.
        report = db.append_rows(new_rows(db, 200, seed=2))
        assert report["X'Y'"] > 0
        assert entry.n_rows == before_groups + report["X'Y'"]
        assert not entry.clustered

    def test_update_in_place_keeps_clustered(self):
        db = fresh_db()
        entry = db.catalog.get("X'Y'")
        # 300 uniform rows over 24 (X', Y') combos: every group exists, so a
        # single new row can only update in place.
        report = db.append_rows([(0, 0, 5.0)])
        assert report["X'Y'"] == 0
        assert entry.clustered


class TestIndexMaintenance:
    def selective_query(self):
        return GroupByQuery(
            groupby=GroupBy((1, 2)),
            predicates=(
                DimPredicate(0, 0, frozenset({3})),
                DimPredicate(1, 0, frozenset({2})),
            ),
        )

    def test_base_bitmap_indexes_cover_new_rows(self):
        db = fresh_db()
        db.append_rows(new_rows(db, 70, seed=21))
        base = db.catalog.get("XY")
        query = self.selective_query()
        via_index = IndexStarJoin(db.ctx(), "XY", query).run_single()
        expected = evaluate_reference(
            db.schema, base.table.all_rows(), query, base.levels
        )
        assert via_index.approx_equals(expected)

    def test_btree_indexes_cover_new_rows(self):
        db = make_tiny_db(n_rows=200, index_tables=())
        db.create_bitmap_index("XY", "X", kind="btree")
        db.create_bitmap_index("XY", "Y", kind="btree")
        db.append_rows(new_rows(db, 50, seed=31))
        base = db.catalog.get("XY")
        query = self.selective_query()
        via_index = IndexStarJoin(db.ctx(), "XY", query).run_single()
        expected = evaluate_reference(
            db.schema, base.table.all_rows(), query, base.levels
        )
        assert via_index.approx_equals(expected)

    def test_view_indexes_rebuilt(self):
        db = fresh_db()
        db.append_rows(new_rows(db, 120, seed=41))
        view = db.catalog.get("X'Y")
        query = GroupByQuery(
            groupby=GroupBy((1, 2)),
            predicates=(DimPredicate(0, 1, frozenset({2})),),
        )
        via_view_index = IndexStarJoin(db.ctx(), "X'Y", query).run_single()
        base = db.catalog.get("XY")
        expected = evaluate_reference(
            db.schema, base.table.all_rows(), query, base.levels
        )
        assert via_view_index.approx_equals(expected)
        assert view.index_for(0, 1).n_rows == view.n_rows


class TestEndToEndAfterAppends:
    def test_optimized_queries_correct_after_appends(self):
        db = fresh_db()
        rng = random.Random(3)
        for round_ in range(3):
            db.append_rows(new_rows(db, 40, seed=100 + round_))
        base = db.catalog.get("XY")
        queries = [
            GroupByQuery(groupby=GroupBy((1, 1)), label="m1"),
            GroupByQuery(
                groupby=GroupBy((2, 2)),
                predicates=(DimPredicate(0, 2, frozenset({0})),),
                label="m2",
            ),
        ]
        _ = rng
        for algorithm in ("naive", "tplo", "gg", "optimal"):
            report = db.run_queries(queries, algorithm)
            for query in queries:
                expected = evaluate_reference(
                    db.schema, base.table.all_rows(), query, base.levels
                )
                assert report.result_for(query).approx_equals(expected)

    def test_maintained_view_answers_match_base(self):
        db = fresh_db()
        db.append_rows(new_rows(db, 90, seed=77))
        query = GroupByQuery(groupby=GroupBy((2, 2)))
        via_view = hash_star_join(db, "X'Y'", query)
        base = db.catalog.get("XY")
        expected = evaluate_reference(
            db.schema, base.table.all_rows(), query, base.levels
        )
        assert via_view.approx_equals(expected)
