"""Unit tests for group-by queries, predicates, and derivability."""

import pytest

from repro.schema.dimension import Dimension
from repro.schema.query import (
    Aggregate,
    DimPredicate,
    GroupBy,
    GroupByQuery,
    query_sort_key,
)
from repro.schema.star import StarSchema


class TestGroupBy:
    def test_derivable_from(self):
        fine = GroupBy((0, 0, 0, 0))
        mid = GroupBy((1, 1, 0, 0))
        coarse = GroupBy((2, 1, 1, 0))
        assert mid.derivable_from(fine)
        assert coarse.derivable_from(mid)
        assert coarse.derivable_from(fine)
        assert not fine.derivable_from(mid)
        assert mid.derivable_from(mid)

    def test_incomparable(self):
        a = GroupBy((1, 0))
        b = GroupBy((0, 1))
        assert not a.derivable_from(b)
        assert not b.derivable_from(a)

    def test_mismatched_arity(self):
        with pytest.raises(ValueError):
            GroupBy((1, 0)).derivable_from(GroupBy((1, 0, 0)))

    def test_level_sum(self):
        assert GroupBy((1, 2, 2, 1)).level_sum() == 6


class TestDimPredicate:
    def test_requires_members(self):
        with pytest.raises(ValueError):
            DimPredicate(0, 1, frozenset())

    def test_selectivity(self, paper_schema):
        # 3 of the 9 mid-level members of A.
        pred = DimPredicate(0, 1, frozenset({0, 1, 2}))
        assert pred.selectivity(paper_schema) == pytest.approx(3 / 9)

    def test_selectivity_capped_at_one(self, paper_schema):
        pred = DimPredicate(0, 2, frozenset({0, 1, 2}))
        assert pred.selectivity(paper_schema) == pytest.approx(1.0)

    def test_describe(self, paper_schema):
        pred = DimPredicate(0, 2, frozenset({0}))
        assert "A''" in pred.describe(paper_schema)
        assert "A1" in pred.describe(paper_schema)


class TestGroupByQuery:
    def test_required_levels_combines_target_and_predicates(self):
        query = GroupByQuery(
            groupby=GroupBy((2, 1, 3, 3)),
            predicates=(DimPredicate(0, 1, frozenset({0})),
                        DimPredicate(2, 2, frozenset({1}))),
        )
        # Dim 0: min(target 2, pred 1) = 1; dim 2: min(3, 2) = 2.
        assert query.required_levels() == (1, 1, 2, 3)

    def test_answerable_from(self):
        query = GroupByQuery(
            groupby=GroupBy((1, 2)),
            predicates=(DimPredicate(0, 1, frozenset({0})),),
        )
        assert query.answerable_from((0, 0))
        assert query.answerable_from((1, 2))
        assert not query.answerable_from((2, 0))
        with pytest.raises(ValueError):
            query.answerable_from((0,))

    def test_multiple_predicates_on_one_dimension(self, paper_schema):
        # An axis at month level plus a year-level slicer: both legal.
        query = GroupByQuery(
            groupby=GroupBy((1, 3, 3, 3)),
            predicates=(
                DimPredicate(0, 1, frozenset({0, 1})),
                DimPredicate(0, 2, frozenset({0})),
            ),
        )
        assert len(query.predicates_on(0)) == 2
        assert query.predicate_on(0).level == 1
        assert query.required_levels()[0] == 1

    def test_selectivity_is_product(self, paper_schema):
        query = GroupByQuery(
            groupby=GroupBy((2, 2, 3, 3)),
            predicates=(
                DimPredicate(0, 2, frozenset({0})),   # 1/3
                DimPredicate(1, 1, frozenset({0})),   # 1/9
            ),
        )
        assert query.selectivity(paper_schema) == pytest.approx(1 / 27)

    def test_validate_rejects_bad_members(self, paper_schema):
        query = GroupByQuery(
            groupby=GroupBy((2, 3, 3, 3)),
            predicates=(DimPredicate(0, 2, frozenset({99})),),
        )
        with pytest.raises(ValueError):
            query.validate(paper_schema)

    def test_validate_checks_once_per_schema(self, tiny_schema):
        wide = StarSchema(
            "wide",
            [
                Dimension.build_uniform(
                    "X", ("X", "X'", "X''"), n_top=3, fanouts=(3, 2)
                ),
                tiny_schema.dimensions[1],
            ],
            measure="m",
        )
        query = GroupByQuery(
            groupby=GroupBy((2, 2)),
            predicates=(DimPredicate(0, 2, frozenset({2})),),
        )
        query.validate(wide)
        query.validate(wide)
        # Top member 2 exists in ``wide`` only: a pass there is no pass
        # here, and a failure is checked again on every call.
        for _ in range(2):
            with pytest.raises(ValueError):
                query.validate(tiny_schema)

    def test_validate_rejects_bad_levels(self, paper_schema):
        query = GroupByQuery(
            groupby=GroupBy((2, 3, 3, 3)),
            predicates=(DimPredicate(0, 3, frozenset({0})),),
        )
        with pytest.raises(ValueError):
            query.validate(paper_schema)

    def test_labels_and_qids(self):
        a = GroupByQuery(groupby=GroupBy((0,)), label="Query 1")
        b = GroupByQuery(groupby=GroupBy((0,)))
        assert a.display_name() == "Query 1"
        assert b.display_name() == f"Q{b.qid}"
        assert a.qid != b.qid

    def test_default_aggregate_is_sum(self):
        assert GroupByQuery(groupby=GroupBy((0,))).aggregate is Aggregate.SUM


class TestSortKey:
    def test_finest_first(self):
        fine = GroupByQuery(groupby=GroupBy((0, 1)))
        coarse = GroupByQuery(groupby=GroupBy((2, 2)))
        assert sorted([coarse, fine], key=query_sort_key)[0] is fine

    def test_ties_broken_by_levels_then_qid(self):
        a = GroupByQuery(groupby=GroupBy((1, 2)))
        b = GroupByQuery(groupby=GroupBy((2, 1)))
        assert sorted([b, a], key=query_sort_key)[0] is a
        c = GroupByQuery(groupby=GroupBy((1, 2)))
        assert sorted([c, a], key=query_sort_key)[0] is a  # lower qid first
