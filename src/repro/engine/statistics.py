"""Table statistics: measured dimension-key frequencies (ANALYZE).

The cost model's default selectivity estimate assumes uniformly distributed
dimension keys — the classic optimizer assumption, and the right default for
the paper's workload.  Real data skews; this module collects per-column
member frequencies so that, when a :class:`Database` has been analyzed,
the cost model prices predicates by *measured* selectivity instead.

Statistics are collected offline (not charged to the query cost clock) and
are invalidated by :func:`repro.engine.maintenance.append_rows` callers
re-running :func:`analyze`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..schema.dimension import Dimension
from ..schema.query import DimPredicate
from ..schema.star import StarSchema
from ..storage.catalog import TableEntry


@dataclass
class ColumnStats:
    """Frequencies of one table column's keys (at the table's stored level
    of that dimension)."""

    dim_index: int
    stored_level: int
    counts: np.ndarray  # per member id at stored_level
    n_rows: int

    def selectivity(self, dim: Dimension, predicate: DimPredicate) -> float:
        """Measured fraction of rows whose key rolls up into the
        predicate's member set."""
        if self.n_rows == 0:
            return 0.0
        if predicate.level == self.stored_level:
            selected = sum(
                int(self.counts[m])
                for m in predicate.member_ids
                if m < self.counts.size
            )
        else:
            rolled = dim.rollup_map(self.stored_level, predicate.level)
            mask = np.isin(
                rolled, np.fromiter(predicate.member_ids, dtype=np.int64)
            )
            selected = int(self.counts[mask].sum())
        return selected / self.n_rows

    @property
    def n_distinct(self) -> int:
        """Number of distinct members observed."""
        return int(np.count_nonzero(self.counts))


@dataclass
class TableStats:
    """ANALYZE output for one table."""

    table_name: str
    n_rows: int
    columns: Dict[int, ColumnStats]

    def predicate_selectivity(
        self, schema: StarSchema, predicate: DimPredicate
    ) -> Optional[float]:
        """Measured selectivity of one predicate, or None when the
        dimension has no column statistics (stored at ALL) or the predicate
        is finer than the stored key; the uniform fallback is
        :meth:`CostModel.predicate_selectivity`'s."""
        column = self.columns.get(predicate.dim_index)
        if column is None:
            return None
        dim = schema.dimensions[predicate.dim_index]
        if predicate.level < column.stored_level:
            return None  # predicate finer than the stored key: not derivable
        return column.selectivity(dim, predicate)


def analyze_table(schema: StarSchema, entry: TableEntry) -> TableStats:
    """Scan one table (offline) and collect per-dimension key frequencies."""
    columns: Dict[int, ColumnStats] = {}
    keys, _measures = entry.table.read_columns(schema.n_dims)
    for d, dim in enumerate(schema.dimensions):
        stored = entry.levels[d]
        if stored == dim.all_level:
            continue
        columns[d] = ColumnStats(
            dim_index=d,
            stored_level=stored,
            counts=np.bincount(keys[d], minlength=dim.n_members(stored)),
            n_rows=entry.n_rows,
        )
    return TableStats(
        table_name=entry.name, n_rows=entry.n_rows, columns=columns
    )


def analyze(db, table_names: Optional[Sequence[str]] = None) -> Dict[str, TableStats]:
    """ANALYZE some or all tables of a database; stores the result on
    ``db.table_statistics`` (used by the cost model) and returns it."""
    if table_names is None:
        table_names = db.catalog.names()
    stats: Dict[str, TableStats] = dict(db.table_statistics)
    for name in table_names:
        entry = db.catalog.get(name)
        stats[name] = analyze_table(db.schema, entry)
    db.table_statistics = stats
    return stats
