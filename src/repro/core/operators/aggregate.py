"""Hash aggregation — the engine's one packed-code group-by.

The final stage of every star-join plan in the paper: joined tuples are
hashed on the target group-by attributes and the measure is folded into the
group's accumulator.  A group key is packed into one integer code
(mixed-radix over the target level cardinalities, :func:`group_codes`),
codes are folded with numpy (:func:`fold_groups`) and unpacked again
(:func:`decode_groups`); :class:`HashAggregator`, the shared scan's derive
phase, and view materialization and maintenance (:mod:`repro.engine`) all
call these three.  SUM and AVG state are floats, so the fold order shows in
the last bits and is defined here, once: row order within a batch, arrival
order across batches.  COUNT, MIN and MAX are order-free (DESIGN.md §6.1).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...schema.query import Aggregate, GroupByQuery
from ...schema.star import StarSchema
from ...storage.iostats import IOStats
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
#: because when the merge runs cannot show in the result: a group's partials
#: are added in arrival order from 0.0 and ``0.0 + p == p``, so ``((0 + a) +
#: b) + c`` is reached under any schedule.
COMPACT_ROWS = 1 << 16

#: Scanned rows a shared scan lets pend before folding them, once per member
#: (at scan end at the latest): bounds the positions and packed codes in
#: flight under a table of any size.  Not an option either: a morsel is never
#: split across folds, and a fold buffers its morsels' partials in order.
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


def _fold_by(inverse, n_groups: int, values, combine: np.ufunc) -> np.ndarray:
    """Left-fold ``values`` per group with ``combine``, in input order."""
    if combine is np.add:
        # bincount adds each group's values in input order from 0.0, as a
        # row-at-a-time accumulator would (np.add.reduceat sums pairwise).
        return np.bincount(inverse, weights=values, minlength=n_groups)
    order = np.argsort(inverse, kind="stable")
    boundaries = np.searchsorted(inverse[order], np.arange(n_groups))
    return combine.reduceat(values[order], boundaries)


def fold_groups(
    codes: np.ndarray, measures: np.ndarray, fold: Aggregate
) -> Tuple[np.ndarray, ...]:
    """Group ``measures`` by code: ``(sorted distinct codes, folded value
    per code)`` — for AVG, ``(codes, sums, counts)``."""
    uniq, inverse = np.unique(codes, return_inverse=True)
    folded = []
    for state in _STATES[fold]:
        # A row's COUNT state is 1, whatever it measures.
        values = np.ones(codes.size) if state is Aggregate.COUNT else measures
        folded.append(_fold_by(inverse, uniq.size, values, COMBINE[state]))
    return (uniq, *folded)


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
        #: False while a buffered entry holds several batches' partials.
        self._merged = True

    @property
    def n_groups(self) -> int:
        """Number of result groups."""
        return self._compact()[0].size

    def update(
        self,
        target_columns: Sequence[np.ndarray],
        measures: np.ndarray,
        stats: Optional[IOStats],
        ordinals: Optional[np.ndarray] = None,
    ) -> None:
        """Fold one batch: ``target_columns[d]`` holds the target-level member
        id of each tuple for dimension ``d``; ``measures`` the measure values
        (``stats=None``: already charged).  ``ordinals`` (one per row,
        non-decreasing) marks several arrival batches laid end to end: packed
        in front of the group code, one fold yields every batch's partial,
        batch-major — what an ``update`` per batch would have buffered."""
        if stats is not None:
            stats.charge_agg_update(measures.size)
        if ordinals is None:
            codes = np.ravel_multi_index(target_columns, self._sizes)
        else:
            self._merged = False
            codes = np.ravel_multi_index(
                [ordinals, *target_columns], [int(ordinals[-1]) + 1, *self._sizes]
            )
        codes, *partials = fold_groups(codes, measures, self.aggregate)
        if ordinals is not None:
            codes %= math.prod(self._sizes)
        self._buffer.append((codes, *partials))
        self._pending += codes.size
        if self._pending > COMPACT_ROWS:
            self._compact()

    def _compact(self) -> Tuple[np.ndarray, ...]:
        """Merge the buffered partials with :data:`COMBINE` in arrival
        order; returns ``(codes, state columns...)`` in first-seen order (a
        lone batch is already that: its codes are sorted)."""
        states = _STATES[self.aggregate]
        if not self._buffer:
            return (np.empty(0, np.int64),) + (np.empty(0),) * len(states)
        if len(self._buffer) > 1 or not self._merged:
            codes, *partials = map(np.concatenate, zip(*self._buffer))
            uniq, first, inverse = np.unique(
                codes, return_index=True, return_inverse=True
            )
            seen = np.argsort(first)
            merged = [
                _fold_by(inverse, uniq.size, partial, COMBINE[state])[seen]
                for partial, state in zip(partials, states)
            ]
            self._buffer = [(uniq[seen], *merged)]
        self._pending, self._merged = 0, True
        return self._buffer[0]

    def columns(self) -> Tuple[List[np.ndarray], np.ndarray]:
        """The groups column-wise, ``(key columns, values)`` in first-seen
        order, for a consumer that keeps computing (the derive phase)."""
        codes, values, *counts = self._compact()
        if counts:
            values = values / counts[0]
        return decode_groups(codes, self._sizes), values

    def result(self) -> QueryResult:
        """Finalize and return the accumulated QueryResult."""
        key_columns, values = self.columns()
        keys = list(zip(*(column.tolist() for column in key_columns)))
        return QueryResult(self.query, dict(zip(keys, values.tolist())))
