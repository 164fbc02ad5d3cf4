"""Hash aggregation.

The final stage of every star-join plan in the paper: joined tuples are
hashed on the target group-by attributes and the measure is folded into the
group's accumulator.  The implementation packs the per-dimension target
member ids into a single integer group code (mixed-radix over the target
level cardinalities) and folds each batch it is handed — a scan morsel of
many pages, or a retrieved probe set — with numpy, charging the clock per
tuple (:meth:`~repro.storage.iostats.IOStats.charge_agg_update`).  SUM and
AVG state are floats, so the fold order (batch by batch) shows in the last
bits; COUNT, MIN and MAX are order-free (DESIGN.md §6.1).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ...schema.query import Aggregate, GroupByQuery
from ...schema.star import StarSchema
from ...storage.iostats import IOStats
from .results import GroupKey, QueryResult


class HashAggregator:
    """Accumulates one query's groups across an arbitrary number of batches.

    ``aggregate`` overrides the fold applied to the input measure column —
    needed when answering a COUNT query from a COUNT view, where the stored
    counts must be *summed* (see
    :func:`repro.schema.lattice.effective_aggregate`).  The result is still
    reported under ``query``.
    """

    def __init__(
        self,
        schema: StarSchema,
        query: GroupByQuery,
        aggregate: Aggregate | None = None,
    ):
        self.schema = schema
        self.query = query
        self.aggregate = aggregate or query.aggregate
        sizes: List[int] = []
        for dim, level in zip(schema.dimensions, query.groupby.levels):
            sizes.append(dim.n_members(level))
        # Mixed-radix strides: code = sum(member_id[d] * stride[d]).
        strides: List[int] = []
        acc = 1
        for size in reversed(sizes):
            strides.append(acc)
            acc *= size
        strides.reverse()
        self._sizes = sizes
        self._strides = np.asarray(strides, dtype=np.int64)
        self._acc: Dict[int, float] = {}
        self._counts: Dict[int, int] = {}

    @property
    def n_groups(self) -> int:
        """Number of result groups."""
        return len(self._acc)

    def update(
        self,
        target_columns: Sequence[np.ndarray],
        measures: np.ndarray,
        stats: IOStats,
    ) -> None:
        """Fold one batch: ``target_columns[d]`` holds the target-level member
        id of each tuple for dimension ``d``; ``measures`` the measure values.
        """
        n = measures.size
        if n == 0:
            return
        stats.charge_agg_update(n)
        codes = np.zeros(n, dtype=np.int64)
        for column, stride in zip(target_columns, self._strides):
            if stride == 1:
                codes += column
            else:
                codes += column * stride
        uniq, inverse = np.unique(codes, return_inverse=True)
        if self.aggregate in (Aggregate.SUM, Aggregate.AVG):
            folded = np.bincount(inverse, weights=measures, minlength=uniq.size)
            for code, value in zip(uniq.tolist(), folded.tolist()):
                self._acc[code] = self._acc.get(code, 0.0) + value
            if self.aggregate is Aggregate.AVG:
                counts = np.bincount(inverse, minlength=uniq.size)
                for code, count in zip(uniq.tolist(), counts.tolist()):
                    self._counts[code] = self._counts.get(code, 0) + count
        elif self.aggregate is Aggregate.COUNT:
            folded = np.bincount(inverse, minlength=uniq.size)
            for code, value in zip(uniq.tolist(), folded.tolist()):
                self._acc[code] = self._acc.get(code, 0.0) + value
        elif self.aggregate in (Aggregate.MIN, Aggregate.MAX):
            ufunc = np.minimum if self.aggregate is Aggregate.MIN else np.maximum
            order = np.argsort(inverse, kind="stable")
            boundaries = np.searchsorted(
                inverse[order], np.arange(uniq.size), side="left"
            )
            folded = ufunc.reduceat(measures[order], boundaries)
            pick = min if self.aggregate is Aggregate.MIN else max
            for code, value in zip(uniq.tolist(), folded.tolist()):
                if code in self._acc:
                    self._acc[code] = pick(self._acc[code], value)
                else:
                    self._acc[code] = value
        else:  # pragma: no cover - Aggregate is a closed enum
            raise NotImplementedError(self.aggregate)

    def _decode(self, code: int) -> GroupKey:
        key: List[int] = []
        for size, stride in zip(self._sizes, self._strides.tolist()):
            key.append((code // stride) % size if size > 1 else 0)
        return tuple(key)

    def result(self) -> QueryResult:
        """Finalize and return the accumulated QueryResult.

        AVG results also carry their algebraic (sum, count) state in
        ``avg_state`` so partial results from row-disjoint data shards can
        be merged exactly (sum the sums, sum the counts, divide once).
        """
        if self.aggregate is Aggregate.AVG:
            groups = {}
            avg_state = {}
            for code, value in self._acc.items():
                key = self._decode(code)
                count = self._counts[code]
                groups[key] = value / count
                avg_state[key] = (value, count)
            return QueryResult(
                query=self.query, groups=groups, avg_state=avg_state
            )
        groups = {
            self._decode(code): value for code, value in self._acc.items()
        }
        return QueryResult(query=self.query, groups=groups)
