"""Tests for incremental view and index maintenance under appends.

Invariant: after any sequence of appends, every maintained view and index
is identical (up to row order) to one rebuilt from scratch, and every query
still matches the brute-force reference on the grown base table.
"""

import random

import numpy as np
import pytest

from repro.check import reference_answer
from repro.engine.maintenance import MaintenanceError, append_rows
from repro.engine.result_cache import attach_cache
from repro.engine.reference import evaluate_reference
from repro.core.operators.index_join import IndexStarJoin
from repro.schema.query import Aggregate, DimPredicate, GroupBy, GroupByQuery
from repro.storage.page import Page
from repro.storage.table import HeapTable
from repro.workload import PaperConfig, build_paper_database, paper_queries
from repro.workload.generator import generate_fact_rows

from helpers import (
    fresh_index,
    hash_star_join,
    index_state,
    make_tiny_db,
    reference_append_rows,
)


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


def database_state(db):
    """Every table row for row (float bits included), the ``clustered``
    flags and every index's observable state."""
    state = {}
    for entry in db.catalog.entries():
        rows = [
            (row[:-1], float(row[-1]).hex()) for row in entry.table.all_rows()
        ]
        indexes = {
            key: index_state(
                index, db.schema.dimensions[key[0]].n_members(key[1])
            )
            for key, index in entry.indexes.items()
        }
        state[entry.name] = (rows, entry.table.n_pages, entry.clustered, indexes)
    return state


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


class TestRejectedBatch:
    """An append is all-or-nothing: a bad row anywhere in the batch is
    rejected before the first write."""

    BAD_BATCHES = {
        "key out of range": ([(1, 2, 3.0), (9999, 0, 1.0)], "'X'"),
        "negative key": ([(1, 2, 3.0), (0, -1, 1.0)], "'Y'"),
        "fractional key": ([(1.5, 2, 3.0)], "'X'"),
        "NaN key": ([(1, float("nan"), 3.0)], "'Y'"),
        "NaN measure": ([(1, 2, 3.0), (1, 2, float("nan"))], "finite"),
        "infinite measure": ([(1, 2, float("inf"))], "finite"),
        "short row": ([(1, 2, 3.0), (1, 2)], "3 numeric fields"),
        "non-numeric": ([(1, 2, "x")], "3 numeric fields"),
    }

    @pytest.mark.parametrize("name", sorted(BAD_BATCHES))
    def test_rejected_batch_leaves_database_untouched(self, name):
        batch, message = self.BAD_BATCHES[name]
        db = fresh_db()
        cache = attach_cache(db)
        queries = [
            GroupByQuery(groupby=GroupBy((1, 1)), label="m1"),
            GroupByQuery(groupby=GroupBy((0, 2)), label="m2"),
        ]
        db.run_queries(queries, "gg")
        before = database_state(db), db.data_version
        with pytest.raises(ValueError, match=message):
            db.append_rows(batch)
        assert (database_state(db), db.data_version) == before
        # The cache still holds, and still may serve, the pre-append answers.
        report = db.run_queries(queries, "gg")
        assert set(report.cache_hits) == {q.qid for q in queries}
        assert cache.stats.invalidations == 0
        for query in queries:
            assert report.result_for(query).approx_equals(
                reference_answer(db, query)
            )
        # ... and the database still takes a good batch afterwards.
        db.append_rows([(1, 2, 3.0)])
        assert db.data_version == before[1] + 1


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
        """View indexes are extended over the appended groups (they used
        to be rebuilt): every new row position is covered, and the index
        equals a fresh build."""
        db = make_tiny_db(
            n_rows=40, seed=5, materialized=("X'Y",), index_tables=("XY", "X'Y")
        )
        view = db.catalog.get("X'Y")
        before = view.n_rows
        report = db.append_rows(new_rows(db, 120, seed=41))
        assert report["X'Y"] > 0 and view.n_rows == before + report["X'Y"]
        index = view.index_for(0, 1)
        assert index.n_rows == view.n_rows
        covered = np.zeros(view.n_rows, dtype=bool)
        n_members = db.schema.dimensions[0].n_members(1)
        for member in range(n_members):
            covered |= index.bitmap_for(member).to_bool_array()
        assert covered[before:].all() and covered.all()
        assert index_state(index, n_members) == index_state(
            fresh_index(db.schema, view, 0, 1, type(index)), n_members
        )
        query = GroupByQuery(
            groupby=GroupBy((1, 2)),
            predicates=(DimPredicate(0, 1, frozenset({2})),),
        )
        via_view_index = IndexStarJoin(db.ctx(), "X'Y", query).run_single()
        assert via_view_index.approx_equals(reference_answer(db, query))


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


def oracle_db(kind):
    """A small paper database with SUM, COUNT, MIN and MAX views and
    ``kind`` join indexes on the base table and three of the views."""
    config = PaperConfig(
        scale=0.002,
        seed=17,
        materialized=("A'B'C'D", "A''B''C'D"),
        indexed_tables=(),
    )
    db = build_paper_database(config=config)
    for aggregate in (Aggregate.COUNT, Aggregate.MIN, Aggregate.MAX):
        db.materialize("A'B'C''D", aggregate=aggregate)
    for table in ("ABCD", "A'B'C'D", "A'B'C''D[count]", "A'B'C''D[min]"):
        db.index_all_dimensions(table, dim_names=["A", "B", "C"], kind=kind)
    return db


class TestAgainstTheOracle:
    """The O(delta) write path against the tuple-at-a-time one it replaced
    (``helpers.reference_append_rows``): byte for byte, not approximately."""

    FINEST = "A'B'C'D"

    def batch(self, db, rng, shape):
        schema = db.schema
        base = db.catalog.get("ABCD").table
        leaves = [dim.n_members(0) for dim in schema.dimensions]

        def measure():
            return round(rng.uniform(1.0, 100.0), 2)

        def random_rows(n):
            return [
                tuple(rng.randrange(k) for k in leaves) + (measure(),)
                for _ in range(n)
            ]

        if shape == "hot groups":  # long, order-sensitive float folds
            hot = [base.row_at(rng.randrange(base.n_rows))[:-1] for _ in range(4)]
            return [
                rng.choice(hot) + (rng.uniform(1.0, 100.0),) for _ in range(200)
            ]
        if shape == "updates":  # keys of existing rows: every group exists
            return [
                base.row_at(rng.randrange(base.n_rows))[:-1] + (measure(),)
                for _ in range(30)
            ]
        if shape.startswith("new groups"):  # distinct groups the view lacks
            view = db.catalog.get(self.FINEST)
            taken = {row[:-1] for row in view.table.all_rows()}
            wanted = 3 if shape == "new groups" else view.table.capacity + 5
            rows = []
            while len(rows) < wanted:
                (row,) = random_rows(1)
                group = tuple(
                    dim.rollup(0, level, key)
                    for dim, level, key in zip(
                        schema.dimensions, view.levels, row
                    )
                )
                if group not in taken:
                    taken.add(group)
                    rows.append(row)
            return rows
        return random_rows({"one row": 1, "pages": 60, "many": 500}[shape])

    @pytest.mark.parametrize("kind", ["bitmap", "btree"])
    def test_append_sequences_equal_the_oracle(self, kind):
        mine, oracle = oracle_db(kind), oracle_db(kind)
        assert database_state(mine) == database_state(oracle)
        paper = paper_queries(mine.schema)
        queries = [paper[i] for i in range(1, 10)]
        rng = random.Random(1998)
        shapes = [
            "updates", "new groups", "pages", "new groups past the page",
            "one row", "many", "hot groups", "new groups past the page", "pages",
        ]
        for step, shape in enumerate(shapes):
            context = f"{kind} step {step} ({shape})"
            batch = self.batch(mine, rng, shape)
            view = mine.catalog.get(self.FINEST)
            view_pages, base_pages = view.n_pages, mine.catalog.get("ABCD").n_pages
            report = mine.append_rows(batch)
            assert report == reference_append_rows(oracle, batch), context
            # The batch did what its shape promises.
            views = {name: n for name, n in report.items() if name != "ABCD"}
            if shape in ("updates", "hot groups"):
                assert set(views.values()) == {0}, context
            elif shape.startswith("new groups"):
                assert views[self.FINEST] == len(batch), context
            if shape == "new groups past the page":
                assert view.n_pages > view_pages, context
            if shape in ("pages", "many"):
                assert mine.catalog.get("ABCD").n_pages > base_pages + 1, context
            state = database_state(mine)
            assert state == database_state(oracle), context
            # A grown index is a fresh build (the oracle's are rebuilt).
            for entry in mine.catalog.entries():
                for (d, level), index in entry.indexes.items():
                    rebuilt = fresh_index(
                        mine.schema, entry, d, level, type(index)
                    )
                    n_members = mine.schema.dimensions[d].n_members(level)
                    assert state[entry.name][3][(d, level)] == index_state(
                        rebuilt, n_members
                    ), context
            assert mine.data_version == oracle.data_version
            got = mine.run_queries(queries, "gg")
            want = oracle.run_queries(queries, "gg")
            assert got.sim_ms == want.sim_ms, context
            for query in queries:
                assert (
                    got.result_for(query).groups
                    == want.result_for(query).groups
                ), context
        assert not mine.catalog.get(self.FINEST).clustered


class TestNoRowTuples:
    def test_append_and_query_never_materialise_rows(self, monkeypatch):
        """Wall-clock-free guard: neither the write path nor the operators
        build row tuples — the columns are the storage, ``rows`` a view for
        the reference evaluators and ``all_rows``."""
        db = build_paper_database(scale=0.01)
        paper = paper_queries(db.schema)
        queries = [paper[i] for i in range(1, 10)]
        batch = generate_fact_rows(db.schema, 500, seed=23)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a row tuple was materialised")

        with monkeypatch.context() as patch:
            for name in ("all_rows", "row_at", "rows_between"):
                patch.setattr(HeapTable, name, forbidden)
            patch.setattr(Page, "rows", property(forbidden))
            with pytest.raises(AssertionError):
                db.catalog.get("ABCD").table.page(0).rows
            report = db.append_rows(batch)
            answers = db.run_queries(queries, "gg")
        assert report["ABCD"] == 500
        for query in queries:
            assert answers.result_for(query).approx_equals(
                reference_answer(db, query)
            )
