"""Tests for QueryResult helpers (display, comparison semantics)."""

import pytest

from repro.core.operators.results import QueryResult
from repro.schema.query import GroupBy, GroupByQuery

from conftest import make_tiny_schema

SCHEMA = make_tiny_schema()


def make_result(groups, levels=(2, 2)):
    return QueryResult(
        query=GroupByQuery(groupby=GroupBy(levels)), groups=dict(groups)
    )


class TestApproxEquals:
    def test_exact_match(self):
        a = make_result({(0, 0): 1.0, (1, 1): 2.0})
        b = make_result({(1, 1): 2.0, (0, 0): 1.0})
        assert a.groups == b.groups

    def test_key_mismatch(self):
        a = make_result({(0, 0): 1.0})
        b = make_result({(0, 1): 1.0})
        assert a.groups != b.groups
        assert a.groups != make_result({}).groups


class TestDisplay:
    def test_to_named_rows_sorted_by_names(self):
        result = make_result({(1, 0): 2.0, (0, 0): 1.0})
        rows = result.to_named_rows(SCHEMA)
        assert rows == [(("X1", "Y1"), 1.0), (("X2", "Y1"), 2.0)]

    def test_all_dims_omitted_from_names(self):
        result = make_result(
            {(0, 0): 5.0}, levels=(2, SCHEMA.dimensions[1].all_level)
        )
        assert result.to_named_rows(SCHEMA) == [(("X1",), 5.0)]

    def test_totals_and_counts(self):
        result = make_result({(0, 0): 1.5, (1, 0): 2.5})
        assert result.total() == pytest.approx(4.0)
        assert result.n_groups == 2
        assert result.value((0, 0)) == 1.5
        with pytest.raises(KeyError):
            result.value((9, 9))
