"""The paper's evaluation workload: schema, data generator, Queries 1–9."""

from .generator import (
    generate_fact_columns,
    generate_fact_rows,
    zipf_probabilities,
)
from .paper_queries import PAPER_MDX, PAPER_TESTS, paper_queries
from .paper_schema import (
    PAPER_BASE_ROWS,
    PAPER_INDEXED_DIMS,
    PAPER_INDEXED_TABLES,
    PAPER_MATERIALIZED,
    PaperConfig,
    build_paper_database,
    build_paper_schema,
    table_sizes,
)

__all__ = [
    "PAPER_BASE_ROWS",
    "PAPER_INDEXED_DIMS",
    "PAPER_INDEXED_TABLES",
    "PAPER_MATERIALIZED",
    "PAPER_MDX",
    "PAPER_TESTS",
    "PaperConfig",
    "build_paper_database",
    "build_paper_schema",
    "generate_fact_columns",
    "generate_fact_rows",
    "paper_queries",
    "table_sizes",
    "zipf_probabilities",
]
