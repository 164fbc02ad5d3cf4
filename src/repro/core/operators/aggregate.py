"""Hash aggregation — the engine's one packed-code group-by.

The final stage of every star-join plan in the paper: joined tuples are
hashed on the target group-by attributes and the measure is folded into the
group's accumulator.  A group key is packed into one integer code
(mixed-radix over the target level cardinalities, :func:`group_codes`),
codes are folded with numpy (:func:`fold_groups`) and unpacked again
(:func:`decode_groups`); :class:`HashAggregator`, the shared scan's derive
phase, and view materialization and maintenance (:mod:`repro.engine`) all
call these three.  Every fold state is an integer (int64 cents, or a
count), so any batching and any merge order give the same state; a result
value is made from it once, by :meth:`HashAggregator.result` (DESIGN.md
§6.1).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ...schema.query import Aggregate, GroupByQuery
from ...schema.star import StarSchema
from ...storage.table import CENTS
from .results import QueryResult

#: How two partial states of one group merge: SUM / COUNT / MIN / MAX are
#: distributive, and AVG is algebraic over a (SUM, COUNT) pair of them (Gray
#: et al., Data Cube) — ``_STATES`` lists what each aggregate is folded as.
COMBINE = {
    Aggregate.SUM: np.add,
    Aggregate.COUNT: np.add,
    Aggregate.MIN: np.minimum,
    Aggregate.MAX: np.maximum,
}
_STATES = {aggregate: (aggregate,) for aggregate in COMBINE}
_STATES[Aggregate.AVG] = (Aggregate.SUM, Aggregate.COUNT)

#: Batch partials (rows) a :class:`HashAggregator` buffers before merging
#: them to one row per group: bounds its memory at groups + this many rows
#: (~1 MB) under a scan that emits partials every morsel.  Not an option,
#: because when the merge runs cannot show in the result: the state is
#: integers, whose merge is exact in any order.
COMPACT_ROWS = 1 << 16

#: Scanned rows a shared scan lets pend before folding them, once per member
#: (at scan end at the latest): bounds the positions and packed codes in
#: flight under a table of any size.  Not an option either, for the same
#: reason.
FOLD_ROWS = 1 << 18


def group_codes(
    schema: StarSchema,
    keys: Sequence[np.ndarray],
    source_levels: Sequence[int],
    target_levels: Sequence[int],
) -> Tuple[np.ndarray, List[int]]:
    """Pack each row's group key, rolled up from ``source_levels`` to
    ``target_levels``, into one mixed-radix code (row-major over the target
    level cardinalities, so code order is key-tuple order); returns ``(codes,
    sizes)`` for :func:`decode_groups`."""
    sizes = [
        dim.n_members(level)
        for dim, level in zip(schema.dimensions, target_levels)
    ]
    columns = [
        column if target == source else dim.rollup_map(source, target)[column]
        for dim, column, source, target in zip(
            schema.dimensions, keys, source_levels, target_levels
        )
    ]
    return np.ravel_multi_index(columns, sizes), sizes


def _fold(codes: np.ndarray, columns, combines) -> Tuple[np.ndarray, ...]:
    """Group integer ``columns`` by ``codes``, each with its ufunc of
    ``combines``: ``(ascending distinct codes, one folded column each)`` —
    exact, so the row order does not matter."""
    order = np.argsort(codes)
    ordered = codes[order]
    first = np.empty(ordered.size, dtype=bool)  # a group's first row
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return (ordered[starts], *[
        combine.reduceat(column[order], starts)
        for column, combine in zip(columns, combines)
    ])


def fold_groups(
    codes: np.ndarray, measures: np.ndarray, fold: Aggregate
) -> Tuple[np.ndarray, ...]:
    """Group int64 ``measures`` by code: ``(sorted distinct codes, folded
    state per code)`` — for AVG, ``(codes, sums, counts)``."""
    states = _STATES[fold]
    return _fold(
        codes,
        [  # a row's COUNT state is 1, whatever it measures
            np.ones(codes.size, np.int64) if state is Aggregate.COUNT
            else measures
            for state in states
        ],
        [COMBINE[state] for state in states],
    )


def decode_groups(codes: np.ndarray, sizes: Sequence[int]) -> List[np.ndarray]:
    """The key columns packed into ``codes`` by :func:`group_codes`."""
    return list(np.unravel_index(codes, sizes))


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
        self._sizes = [
            dim.n_members(level)
            for dim, level in zip(schema.dimensions, query.groupby.levels)
        ]
        #: Each batch's :func:`fold_groups` output, ``(codes, one column per
        #: state)``, until :meth:`_compact` merges them to one row per group.
        self._buffer: List[Tuple[np.ndarray, ...]] = []
        self._pending = 0

    @property
    def n_groups(self) -> int:
        """Number of result groups."""
        return self._compact()[0].size

    def update(
        self, target_columns: Sequence[np.ndarray], measures: np.ndarray
    ) -> None:
        """Fold one batch: ``target_columns[d]`` holds the target-level member
        id of each tuple for dimension ``d``; ``measures`` the int64 measure
        values.  Its aggregate updates are its pipeline's to charge
        (:func:`~repro.storage.iostats.pipeline_counts`)."""
        codes = np.ravel_multi_index(target_columns, self._sizes)
        self._buffer.append(fold_groups(codes, measures, self.aggregate))
        self._pending += self._buffer[-1][0].size
        if self._pending > COMPACT_ROWS:
            self._compact()

    def _compact(self) -> Tuple[np.ndarray, ...]:
        """Merge the buffered partials with :data:`COMBINE`; returns
        ``(codes, state columns...)`` in code order."""
        if len(self._buffer) != 1:  # a lone batch is merged already
            combines = [COMBINE[state] for state in _STATES[self.aggregate]]
            empty = (np.empty(0, np.int64),) * (1 + len(combines))
            codes, *partials = map(np.concatenate, zip(empty, *self._buffer))
            self._buffer = [_fold(codes, partials, combines)]
        self._pending = 0
        return self._buffer[0]

    def columns(self) -> Tuple[List[np.ndarray], np.ndarray]:
        """The groups column-wise, ``(key columns, integer state)`` in code
        order, for a consumer that keeps folding (the derive phase) — not
        for AVG, whose state is two columns and re-aggregates nowhere."""
        codes, values = self._compact()
        return decode_groups(codes, self._sizes), values

    def result(self) -> QueryResult:
        """The groups with their result values: the integer state divided
        once, here — cents / 100 (SUM, MIN, MAX), the count (COUNT), sum
        of cents / (100 * count) (AVG)."""
        codes, values, *counts = self._compact()
        unit = 1 if self.query.aggregate is Aggregate.COUNT else CENTS
        values = values / (unit * counts[0] if counts else unit)
        key_columns = decode_groups(codes, self._sizes)
        keys = zip(*(column.tolist() for column in key_columns))
        return QueryResult(self.query, dict(zip(keys, values.tolist())))
