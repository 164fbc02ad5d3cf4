"""Star-schema metadata: dimensions, hierarchies, group-by queries, lattice."""

from .dimension import Dimension, Level
from .lattice import (
    aggregate_compatible,
    ancestors,
    can_answer,
    common_sources,
    descendants,
    effective_aggregate,
    enumerate_lattice,
    estimate_groupby_rows,
    expected_distinct,
    expected_pages_touched,
    groupby_domain_size,
    lattice_size,
    source_can_answer,
)
from .query import Aggregate, DimPredicate, GroupBy, GroupByQuery, query_sort_key
from .star import StarSchema

__all__ = [
    "Aggregate",
    "DimPredicate",
    "Dimension",
    "GroupBy",
    "GroupByQuery",
    "Level",
    "StarSchema",
    "aggregate_compatible",
    "ancestors",
    "can_answer",
    "common_sources",
    "descendants",
    "effective_aggregate",
    "enumerate_lattice",
    "estimate_groupby_rows",
    "expected_distinct",
    "expected_pages_touched",
    "groupby_domain_size",
    "lattice_size",
    "query_sort_key",
    "source_can_answer",
]
