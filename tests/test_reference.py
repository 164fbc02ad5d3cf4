"""Tests for the brute-force reference evaluator."""

import pytest

from repro.check import evaluate_reference
from repro.schema.query import Aggregate, DimPredicate, GroupBy, GroupByQuery

from conftest import make_tiny_schema

SCHEMA = make_tiny_schema()

# Hand-checkable rows: (x_leaf, y_leaf, measure in cents).
ROWS = [
    (0, 0, 100),
    (1, 0, 200),
    (6, 1, 400),   # x=6 rolls to mid 3, top 1
    (6, 4, 800),   # y=4 rolls to mid 2, top 1
    (11, 7, 1600),
]


class TestReference:
    def test_sum_by_top_levels(self):
        query = GroupByQuery(groupby=GroupBy((2, 2)))
        result = evaluate_reference(SCHEMA, ROWS, query)
        assert result.groups == {
            (0, 0): 3.0,
            (1, 0): 4.0,
            (1, 1): 24.0,
        }

    def test_predicate_filters(self):
        query = GroupByQuery(
            groupby=GroupBy((2, 3)),
            predicates=(DimPredicate(1, 2, frozenset({0})),),  # Y top = Y1
        )
        result = evaluate_reference(SCHEMA, ROWS, query)
        assert result.groups == {(0, 0): 3.0, (1, 0): 4.0}

    def test_count_min_max(self):
        for aggregate, expected in [
            (Aggregate.COUNT, 5.0),
            (Aggregate.MIN, 1.0),
            (Aggregate.MAX, 16.0),
        ]:
            query = GroupByQuery(
                groupby=GroupBy((3, 3)), aggregate=aggregate
            )
            result = evaluate_reference(SCHEMA, ROWS, query)
            assert result.groups == {(0, 0): expected}

    def test_source_levels(self):
        # Rows already at (mid, mid) levels.
        mid_rows = [(0, 0, 500), (3, 2, 700)]
        query = GroupByQuery(groupby=GroupBy((2, 2)))
        result = evaluate_reference(SCHEMA, mid_rows, query, (1, 1))
        assert result.groups == {(0, 0): 5.0, (1, 1): 7.0}

    def test_unanswerable_rejected(self):
        query = GroupByQuery(groupby=GroupBy((0, 0)))
        with pytest.raises(ValueError):
            evaluate_reference(SCHEMA, [], query, (1, 1))

    def test_empty_input(self):
        query = GroupByQuery(groupby=GroupBy((1, 1)))
        assert evaluate_reference(SCHEMA, [], query).groups == {}


class TestResultHelpers:
    def test_to_named_rows_skips_all_dims(self):
        query = GroupByQuery(groupby=GroupBy((2, 3)))
        result = evaluate_reference(SCHEMA, ROWS, query)
        named = result.to_named_rows(SCHEMA)
        assert named == [(("X1",), 3.0), (("X2",), 28.0)]

    def test_dropping_a_row_changes_the_answer(self):
        query = GroupByQuery(groupby=GroupBy((3, 3)))
        a = evaluate_reference(SCHEMA, ROWS, query)
        b = evaluate_reference(SCHEMA, ROWS[:-1], query)
        assert a.groups != b.groups
        assert a.groups == a.groups

