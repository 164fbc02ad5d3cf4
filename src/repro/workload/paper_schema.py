"""The paper's evaluation schema and database (Section 7.1–7.2).

Four dimensions A, B, C, D, each with a three-level hierarchy
``X → X' → X''`` whose top level has three members (X1, X2, X3); a base
table ``ABCD`` of 2,000,000 tuples (scaled by ``scale``); the six
materialized group-bys of Table 1; and star-join bitmap indexes "on
attributes A, B and C" of the tables index plans use (ABCD and A'B'C'D).

Reconstruction notes (the scan garbles primes and parts of Table 1):

* Member naming grows one letter per step down the hierarchy — A1 at the
  top, AA1… at the middle, AAA1… at the leaves — matching the names in the
  paper's queries (``A1.CHILDREN.AA2`` etc.).  Children are numbered
  globally, so the children of A2 are AA4..AA6.
* The materialized set is {ABCD, A'B'C'D, A'B'C''D, A''B'C'D, A'B''C'D,
  A''B''C'D}: the base table plus every group-by a concrete plan in
  Tests 4–7 mentions, with sizes strictly between the base and the query
  targets.  Exact Table 1 row counts depend on the authors' (unpublished)
  data; ours follow from uniform data over the hierarchies below and are
  reported next to the paper's in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.database import Database
from ..schema.dimension import Dimension
from ..schema.star import StarSchema
from ..storage.iostats import CostRates
from .generator import generate_fact_columns

#: The paper's base-table cardinality.
PAPER_BASE_ROWS = 2_000_000

#: Materialized group-bys (Table 1), in paper notation.
PAPER_MATERIALIZED = (
    "A'B'C'D",
    "A'B'C''D",
    "A''B'C'D",
    "A'B''C'D",
    "A''B''C'D",
)

#: Tables carrying star-join bitmap indexes on A, B, C (Section 7.2).
PAPER_INDEXED_TABLES = ("ABCD", "A'B'C'D")
PAPER_INDEXED_DIMS = ("A", "B", "C")


@dataclass(frozen=True)
class PaperConfig:
    """Knobs for building the paper's database at any scale."""

    scale: float = 0.01
    seed: int = 42
    #: Small pages keep the paper's pages-per-table geometry at reduced
    #: scale: 2M 20-byte rows on 8 KB pages ≈ 5000 pages; 20k rows on 512 B
    #: pages ≈ 800 pages — so scan-vs-probe trade-offs keep their shape.
    page_size: int = 512
    buffer_pages: int = 2048
    n_top: int = 3
    fanout_mid: int = 3
    fanout_leaf: Tuple[int, int, int, int] = (12, 11, 10, 6)
    skew: Optional[Tuple[float, float, float, float]] = None
    rates: Optional[CostRates] = None
    materialized: Sequence[str] = PAPER_MATERIALIZED
    indexed_tables: Sequence[str] = PAPER_INDEXED_TABLES
    indexed_dims: Sequence[str] = PAPER_INDEXED_DIMS

    @property
    def n_base_rows(self) -> int:
        """Scaled base-table row count."""
        return max(1, round(PAPER_BASE_ROWS * self.scale))


def build_paper_schema(config: PaperConfig = PaperConfig()) -> StarSchema:
    """The ABCD star schema with the paper's three-level hierarchies."""
    dimensions: List[Dimension] = []
    for name, leaf_fanout in zip("ABCD", config.fanout_leaf):
        dimensions.append(
            Dimension.build_uniform(
                name=name,
                level_names=(name, name + "'", name + "''"),
                n_top=config.n_top,
                fanouts=(config.fanout_mid, leaf_fanout),
            )
        )
    return StarSchema("ABCD-cube", dimensions, measure="dollars")


def build_paper_database(
    scale: float = 0.01,
    config: Optional[PaperConfig] = None,
) -> Database:
    """Build, load, materialize, and index the paper's test database."""
    if config is None:
        config = PaperConfig(scale=scale)
    schema = build_paper_schema(config)
    db = Database(
        schema,
        page_size=config.page_size,
        buffer_pages=config.buffer_pages,
        rates=config.rates,
    )
    columns = generate_fact_columns(
        schema,
        config.n_base_rows,
        seed=config.seed,
        skew=list(config.skew) if config.skew else None,
    )
    db.load_base(name="ABCD", columns=columns)
    for groupby in config.materialized:
        db.materialize(groupby)
    for table in config.indexed_tables:
        db.index_all_dimensions(table, dim_names=list(config.indexed_dims))
    return db


def table_sizes(db: Database) -> Dict[str, int]:
    """{table name: row count} for comparison against Table 1."""
    return {entry.name: entry.n_rows for entry in db.catalog.entries()}
