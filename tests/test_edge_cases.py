"""Edge-case battery: degenerate schemas and data that every layer must
survive — empty tables, single rows, one-dimension schemas, deep
hierarchies, wide schemas."""

import pytest

from repro.engine.database import Database
from repro.check import evaluate_reference
from repro.schema.dimension import Dimension
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery
from repro.schema.star import StarSchema
from repro.workload.generator import generate_fact_rows

from conftest import make_tiny_schema


def one_dim_schema():
    dim = Dimension.build_uniform("Z", ("Z", "Z'"), n_top=2, fanouts=(3,))
    return StarSchema("one-dim", [dim], measure="m")


def deep_schema():
    dim = Dimension.build_uniform(
        "L",
        ("L", "L'", "L''", "L'''", "L''''"),
        n_top=2,
        fanouts=(2, 2, 2, 2),
    )
    other = Dimension.build_uniform("K", ("K", "K'"), n_top=2, fanouts=(2,))
    return StarSchema("deep", [dim, other], measure="m")


def wide_schema():
    dims = [
        Dimension.build_uniform(name, (name, name + "'"), n_top=2, fanouts=(2,))
        for name in "PQRSTU"
    ]
    return StarSchema("wide", dims, measure="m")


class TestEmptyData:
    def test_queries_over_empty_base(self):
        db = Database(make_tiny_schema(), page_size=64)
        db.load_base([], name="XY")
        query = GroupByQuery(groupby=GroupBy((1, 1)))
        report = db.run_queries([query], "gg")
        assert report.result_for(query).groups == {}

    def test_materialize_empty(self):
        db = Database(make_tiny_schema(), page_size=64)
        db.load_base([], name="XY")
        entry = db.materialize("X'Y'")
        assert entry.n_rows == 0

    def test_index_on_empty_table(self):
        db = Database(make_tiny_schema(), page_size=64)
        db.load_base([], name="XY")
        db.index_all_dimensions("XY")
        query = GroupByQuery(
            groupby=GroupBy((1, 1)),
            predicates=(DimPredicate(0, 0, frozenset({0})),),
        )
        report = db.run_queries([query], "optimal")
        assert report.result_for(query).groups == {}

    def test_analyze_empty(self):
        db = Database(make_tiny_schema(), page_size=64)
        db.load_base([], name="XY")
        stats = db.analyze()
        assert stats["XY"].n_rows == 0


class TestSingleRow:
    def test_all_aggregates(self):
        from repro.schema.query import Aggregate

        db = Database(make_tiny_schema(), page_size=64)
        db.load_base([(5, 3, 7.5)], name="XY")
        for aggregate in Aggregate:
            query = GroupByQuery(
                groupby=GroupBy((2, 2)), aggregate=aggregate
            )
            result = db.run_queries([query], "naive").result_for(query)
            dim_x, dim_y = db.schema.dimensions
            key = (dim_x.rollup(0, 2, 5), dim_y.rollup(0, 2, 3))
            expected = 1.0 if aggregate is Aggregate.COUNT else 7.5
            assert result.groups == {key: pytest.approx(expected)}


class TestOneDimension:
    def test_full_stack(self):
        schema = one_dim_schema()
        db = Database(schema, page_size=64)
        db.load_base(generate_fact_rows(schema, 200, seed=2), name="Z")
        db.materialize("Z'", name="by-mid")
        db.index_all_dimensions("Z")
        query = GroupByQuery(
            groupby=GroupBy((1,)),
            predicates=(DimPredicate(0, 1, frozenset({0, 1})),),
        )
        report = db.run_queries([query], "gg")
        base = db.catalog.get("Z")
        expected = evaluate_reference(
            schema, base.table.all_rows(), query, base.levels
        )
        assert report.result_for(query).groups == expected.groups

    def test_mdx_over_one_dimension(self):
        schema = one_dim_schema()
        db = Database(schema, page_size=64)
        db.load_base(generate_fact_rows(schema, 100, seed=3), name="Z")
        report = db.run_mdx("{Z'.MEMBERS} on COLUMNS CONTEXT Z")
        result = next(iter(report.results.values()))
        total = sum(r[1] for r in db.catalog.get("Z").table.all_rows())
        assert result.total() == pytest.approx(total / 100)


class TestDeepHierarchy:
    def test_five_level_rollups(self):
        schema = deep_schema()
        db = Database(schema, page_size=64)
        db.load_base(generate_fact_rows(schema, 400, seed=4), name="LK")
        db.materialize((2, 0), name="mid")
        query = GroupByQuery(
            groupby=GroupBy((3, 1)),
            predicates=(DimPredicate(0, 4, frozenset({0})),),
        )
        report = db.run_queries([query], "gg")
        base = db.catalog.get("LK")
        expected = evaluate_reference(
            schema, base.table.all_rows(), query, base.levels
        )
        assert report.result_for(query).groups == expected.groups

    def test_deep_mdx_children_chain(self):
        schema = deep_schema()
        db = Database(schema, page_size=64)
        db.load_base(generate_fact_rows(schema, 200, seed=5), name="LK")
        report = db.run_mdx(
            "{L''''.L1.CHILDREN.CHILDREN} on COLUMNS CONTEXT LK"
        )
        result = next(iter(report.results.values()))
        # Children-of-children of L1: 4 members at depth 2.
        assert result.query.groupby.levels[0] == 2


class TestWideSchema:
    def test_six_dimensions_end_to_end(self):
        schema = wide_schema()
        db = Database(schema, page_size=512)
        db.load_base(generate_fact_rows(schema, 500, seed=6), name="wide")
        db.materialize((1, 1, 1, 1, 1, 1), name="all-mid")
        queries = [
            GroupByQuery(groupby=GroupBy((1, 1, 2, 2, 2, 2)), label="wa"),
            GroupByQuery(
                groupby=GroupBy((2, 2, 1, 1, 2, 2)),
                predicates=(DimPredicate(0, 1, frozenset({0})),),
                label="wb",
            ),
        ]
        report = db.run_queries(queries, "gg")
        base = db.catalog.get("wide")
        for query in queries:
            expected = evaluate_reference(
                schema, base.table.all_rows(), query, base.levels
            )
            assert report.result_for(query).groups == expected.groups

    def test_lattice_enumeration_scales(self):
        from repro.schema.lattice import lattice_size

        assert lattice_size(wide_schema()) == 3**6


class TestDegenerateQueries:
    def test_fully_aggregated_query(self, paper_db):
        query = GroupByQuery(groupby=GroupBy(paper_db.schema.all_levels()))
        report = paper_db.run_queries([query], "gg")
        result = report.result_for(query)
        assert result.n_groups == 1
        base = paper_db.catalog.get("ABCD")
        total = sum(row[4] for row in base.table.all_rows())  # cents
        assert result.total() == total / 100

    def test_full_domain_predicate(self, paper_db):
        # A predicate selecting every member: selectivity 1, still correct.
        query = GroupByQuery(
            groupby=GroupBy((2, 3, 3, 3)),
            predicates=(DimPredicate(0, 2, frozenset({0, 1, 2})),),
        )
        report = paper_db.run_queries([query], "gg")
        unfiltered = GroupByQuery(groupby=GroupBy((2, 3, 3, 3)))
        twin = paper_db.run_queries([unfiltered], "gg")
        assert report.result_for(query).groups == pytest.approx(
            twin.result_for(unfiltered).groups
        )

    def test_leaf_level_group_by(self, paper_db):
        # Group by the raw leaf key of A with a tight filter.
        dim_a = paper_db.schema.dimensions[0]
        member = dim_a.descendants(2, 0, 0)[0]
        query = GroupByQuery(
            groupby=GroupBy((0, 3, 3, 3)),
            predicates=(DimPredicate(0, 0, frozenset({member})),),
        )
        report = paper_db.run_queries([query], "optimal")
        result = report.result_for(query)
        assert result.n_groups <= 1
