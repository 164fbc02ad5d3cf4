"""Tests for the workload package: generator, paper schema, paper queries."""

import numpy as np
import pytest

from repro.engine.database import Database
from repro.workload.generator import (
    generate_fact_columns,
    generate_fact_rows,
    zipf_probabilities,
)
from repro.workload.paper_queries import (
    ALL_PAPER_TESTS,
    PAPER_MDX,
    PAPER_TESTS,
    paper_queries,
)
from repro.workload.paper_schema import (
    PAPER_INDEXED_DIMS,
    PAPER_INDEXED_TABLES,
    PAPER_MATERIALIZED,
    PaperConfig,
    build_paper_database,
    build_paper_schema,
    table_sizes,
)


class TestGenerator:
    def test_deterministic_per_seed(self, paper_schema):
        a = generate_fact_rows(paper_schema, 50, seed=1)
        b = generate_fact_rows(paper_schema, 50, seed=1)
        c = generate_fact_rows(paper_schema, 50, seed=2)
        assert a == b
        assert a != c

    def test_row_shape_and_ranges(self, paper_schema):
        rows = generate_fact_rows(paper_schema, 200, seed=0)
        assert len(rows) == 200
        for row in rows[:20]:
            assert len(row) == paper_schema.n_dims + 1
            for d, dim in enumerate(paper_schema.dimensions):
                assert 0 <= row[d] < dim.n_members(0)
            assert 1.0 <= row[-1] <= 100.0

    def test_zipf_probabilities(self):
        probs = zipf_probabilities(10, 1.0)
        assert probs.sum() == pytest.approx(1.0)
        assert probs[0] > probs[-1]
        uniform = zipf_probabilities(10, 0.0)
        assert np.allclose(uniform, 0.1)

    def test_skewed_generation_prefers_low_ids(self, paper_schema):
        rows = generate_fact_rows(
            paper_schema, 2000, seed=0, skew=[1.5, 0, 0, 0]
        )
        a_keys = [r[0] for r in rows]
        low = sum(1 for k in a_keys if k < 10)
        high = sum(1 for k in a_keys if k >= 90)
        assert low > high * 2

    @pytest.mark.parametrize("skew", [None, [1.5, 0, 0.7, 0]], ids=["uniform", "zipf"])
    def test_rows_are_a_view_of_the_columns(self, paper_schema, skew):
        """The tuple form is the column form read row-wise — the rows the
        old row-at-a-time loop built, types included — and a table loaded
        from the columns holds exactly the rows one loaded from tuples does."""
        options = dict(seed=5, skew=skew, measure_low=2.0, measure_high=50.0)
        keys, measures = generate_fact_columns(paper_schema, 300, **options)
        assert [k.dtype for k in keys] == [np.int64] * paper_schema.n_dims
        assert measures.dtype == np.float64
        old_loop = [
            tuple(int(col[i]) for col in keys) + (float(measures[i]),)
            for i in range(300)
        ]
        rows = generate_fact_rows(paper_schema, 300, **options)
        assert rows == old_loop
        assert [type(v) for v in rows[0]] == [int] * paper_schema.n_dims + [float]
        assert generate_fact_rows(paper_schema, 0) == []
        from_rows, from_columns = Database(paper_schema), Database(paper_schema)
        from_rows.load_base(rows)
        from_columns.load_base(columns=(keys, measures))
        loaded = [list(db.catalog.get("ABCD").table.all_rows()) for db in (from_rows, from_columns)]
        assert loaded[0] == loaded[1] == rows
        assert from_rows.data_version == from_columns.data_version

    def test_bad_skew_arity(self, paper_schema):
        with pytest.raises(ValueError):
            generate_fact_rows(paper_schema, 10, skew=[1.0])

    def test_negative_rows_rejected(self, paper_schema):
        with pytest.raises(ValueError):
            generate_fact_rows(paper_schema, -1)


class TestPaperSchema:
    def test_hierarchy_shape(self, paper_schema):
        for dim in paper_schema.dimensions:
            assert dim.n_levels == 3
            assert dim.n_members(2) == 3  # "three distinct values at top"

    def test_member_naming(self, paper_schema):
        dim_a = paper_schema.dimensions[0]
        assert dim_a.member_name(2, 0) == "A1"
        assert dim_a.member_name(1, 4) == "AA5"
        # Children of A2 are AA4..AA6 under global numbering.
        assert dim_a.children(2, 1) == [3, 4, 5]

    def test_database_contains_paper_tables(self, paper_db):
        names = set(db_name for db_name, _r, _p in paper_db.table_report())
        assert names == {"ABCD"} | set(PAPER_MATERIALIZED)

    def test_indexes_on_a_b_c_only(self, paper_db):
        for table in PAPER_INDEXED_TABLES:
            entry = paper_db.catalog.get(table)
            indexed_dims = {dim for dim, _level in entry.indexes}
            assert indexed_dims == {
                paper_db.schema.dim_index(d) for d in PAPER_INDEXED_DIMS
            }
        # D is never indexed (matches Section 7.2).
        for entry in paper_db.catalog.entries():
            assert all(dim != 3 for dim, _level in entry.indexes)

    def test_base_scales_with_config(self):
        config = PaperConfig(scale=0.0005)
        db = build_paper_database(config=config)
        assert db.catalog.get("ABCD").n_rows == config.n_base_rows

    def test_table_sizes_ordering(self, paper_db):
        """Coarser materializations are smaller; base is largest."""
        sizes = table_sizes(paper_db)
        assert sizes["ABCD"] >= sizes["A'B'C'D"]
        assert sizes["A'B'C'D"] >= sizes["A'B'C''D"]
        assert sizes["A'B'C''D"] >= sizes["A''B''C'D"]


class TestPaperQueries:
    def test_nine_queries(self, paper_schema):
        qs = paper_queries(paper_schema)
        assert sorted(qs) == list(range(1, 10))
        for query in qs.values():
            query.validate(paper_schema)

    def test_stated_targets(self, paper_schema):
        qs = paper_queries(paper_schema)
        name = lambda i: qs[i].groupby.name(paper_schema)  # noqa: E731
        assert name(1) == "A'B''C''D'"
        assert name(6) == "A'B'C'D'"
        assert name(7) == "A'B'C'D'"
        assert name(8) == "A'B'C''D'"

    def test_stated_selectivities(self, paper_schema):
        """Q7 is the most selective; Q2 among the least (Section 7.3)."""
        qs = paper_queries(paper_schema)
        sel = {i: q.selectivity(paper_schema) for i, q in qs.items()}
        assert sel[7] == min(sel.values())
        assert sel[7] == pytest.approx(1 / 6561)
        assert sel[2] > sel[5] > sel[7]
        assert sel[4] == max(sel.values())

    def test_every_query_filters_d(self, paper_schema):
        for query in paper_queries(paper_schema).values():
            pred = query.predicate_on(3)
            assert pred is not None and pred.level == 1

    def test_mdx_texts_cover_all_queries(self):
        assert sorted(PAPER_MDX) == list(range(1, 10))

    def test_paper_test_sets(self):
        assert PAPER_TESTS == {
            "test4": [1, 2, 3],
            "test5": [2, 3, 5],
            "test6": [6, 7, 8],
            "test7": [1, 7, 9],
        }

    def test_all_seven_test_sets(self):
        """Tests 1–3 are the figures' query sets (fixed, then added, in
        order); Tests 4–7 are Table 2's."""
        assert ALL_PAPER_TESTS == {
            "test1": [1, 2, 3, 4],
            "test2": [5, 8, 6, 7],
            "test3": [3, 5, 6, 7],
            **PAPER_TESTS,
        }
        assert list(ALL_PAPER_TESTS) == [f"test{i}" for i in range(1, 8)]
