"""Shared star-join machinery: execution context, dimension "hash tables",
and per-query probe/aggregate pipelines.

In the paper's pipelined right-deep hash star join, each dimension table is
hashed and fact tuples probe those hash tables.  In this engine a dimension
"hash table" is a rollup array (source-level member id → target-level member
id) plus, when the query has a selection on that dimension, a boolean pass
mask over source-level member ids.  A :class:`RollupCache` builds each
distinct structure once per *operator execution* and charges its build cost
once — which is exactly the sharing the paper's Section 3.1 operator exploits
("they can share hash tables, instead of redundantly building and probing
several hash tables on the same dimension tables").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ...obs.trace import NULL_TRACER
from ...schema.lattice import aggregate_compatible, effective_aggregate
from ...schema.query import DimPredicate, GroupByQuery
from ...schema.star import StarSchema
from ...storage.buffer import BufferPool
from ...storage.catalog import Catalog, TableEntry
from ...storage.iostats import IOStats, pipeline_counts
from ...storage.table import Morsel
from .aggregate import HashAggregator
from .results import QueryResult


@dataclass
class ExecContext:
    """Everything an operator needs to run: schema, catalog, pool, clock.

    ``dim_tables`` (optional) maps dimension names to stored dimension
    tables; when present, building a dimension hash structure charges a
    scan of that table (see :meth:`Database.store_dimension_tables`).

    ``tracer`` receives execution spans; the default no-op tracer makes
    untraced runs free (see :mod:`repro.obs.trace`).

    ``faults`` carries an armed :class:`repro.faults.FaultPlan` (or None);
    operators pass it to index lookups and check the ``operator.pipeline``
    site per scanned page.
    """

    schema: StarSchema
    catalog: Catalog
    pool: BufferPool
    stats: IOStats
    dim_tables: Optional[Dict[str, object]] = None
    tracer: object = field(default=NULL_TRACER)
    faults: Optional[object] = None

    def entry(self, table_name: str) -> TableEntry:
        """Catalog entry by table name."""
        return self.catalog.get(table_name)


def scan_columns(
    ctx: ExecContext, entry: TableEntry, operator_name: str
) -> Iterator[Morsel]:
    """One shared sequential scan yielding morsel-sized column batches
    (:meth:`~repro.storage.table.HeapTable.scan_batches`).

    The ``operator.pipeline`` fault site is still checked once per page,
    right after that page's read is charged (as the operators always
    have); the morsel's CPU work runs after its last page's checks.
    """
    faults = ctx.faults
    after_page = None
    if faults is not None:

        def after_page() -> None:
            faults.check(
                "operator.pipeline",
                operator=operator_name,
                table=entry.name,
            )

    return entry.table.scan_batches(ctx.pool, ctx.schema.n_dims, after_page)


class RollupCache:
    """Builds dimension rollup maps and predicate masks once per operator
    execution, charging each build to the cost clock exactly once.

    With ``pool`` and ``dim_tables`` supplied, each structure's build also
    scans the stored dimension table (sequential I/O through the buffer
    pool) — the full cost of "building a hash table on the dimension
    table".  Without them, only the per-entry CPU build cost is charged
    (the dimension fits in metadata)."""

    def __init__(
        self,
        schema: StarSchema,
        stats: IOStats,
        pool: Optional[BufferPool] = None,
        dim_tables: Optional[Dict[str, object]] = None,
    ):
        self.schema = schema
        self.stats = stats
        self.pool = pool
        self.dim_tables = dim_tables or {}
        self._target_maps: Dict[Tuple[int, int, int], np.ndarray] = {}
        self._pred_masks: Dict[Tuple[int, int, int, frozenset], np.ndarray] = {}

    def _charge_dim_scan(self, dim_index: int) -> None:
        dim_table = self.dim_tables.get(self.schema.dimensions[dim_index].name)
        if dim_table is None:
            return
        if self.pool is not None:
            # Only the accounting is wanted: drain the scan (every column
            # but the last as a key: zero-copy views, nothing converted).
            n_keys = dim_table.n_columns - 1
            for _morsel in dim_table.scan_batches(self.pool, n_keys):
                pass
        else:
            self.stats.charge_seq_read(dim_table.n_pages)

    def target_map(
        self, dim_index: int, from_level: int, to_level: int
    ) -> Optional[np.ndarray]:
        """Rollup array for one dimension, or None when no mapping is needed
        (identity, or the ALL level where the output is constant)."""
        dim = self.schema.dimensions[dim_index]
        if to_level == from_level or to_level == dim.all_level:
            return None
        key = (dim_index, from_level, to_level)
        cached = self._target_maps.get(key)
        if cached is None:
            cached = dim.rollup_map(from_level, to_level)
            self.stats.charge_hash_build(dim.n_members(from_level))
            self._charge_dim_scan(dim_index)
            self._target_maps[key] = cached
        return cached

    def predicate_mask(
        self, from_level: int, predicate: DimPredicate
    ) -> np.ndarray:
        """Boolean array over source-level member ids: does the member roll
        up into the predicate's member set?"""
        dim = self.schema.dimensions[predicate.dim_index]
        key = (
            predicate.dim_index,
            from_level,
            predicate.level,
            predicate.member_ids,
        )
        cached = self._pred_masks.get(key)
        if cached is None:
            # Scatter the member set into a table over the predicate's level
            # and gather it through the rollup map: no sort, nothing to cache.
            hit = np.zeros(dim.n_members(predicate.level), dtype=bool)
            ids = np.fromiter(predicate.member_ids, dtype=np.int64)
            hit[ids[(ids >= 0) & (ids < hit.size)]] = True
            cached = hit[dim.rollup_map(from_level, predicate.level)]
            self.stats.charge_hash_build(dim.n_members(from_level))
            self._charge_dim_scan(predicate.dim_index)
            self._pred_masks[key] = cached
        return cached


class QueryPipeline:
    """The probe-filter-aggregate tail of one query's star-join plan.

    Feed it batches of source-level key columns + measures (one batch per
    scan morsel, or per retrieved probe set); read the final
    :class:`QueryResult` with :meth:`result`.
    """

    def __init__(
        self,
        schema: StarSchema,
        query: GroupByQuery,
        source_levels: Sequence[int],
        rollups: RollupCache,
        source_aggregate: Optional[str] = None,
    ):
        if not query.answerable_from(source_levels):
            raise ValueError(
                f"{query.display_name()} is not answerable from a table at "
                f"levels {tuple(source_levels)}"
            )
        if not aggregate_compatible(query.aggregate, source_aggregate):
            raise ValueError(
                f"{query.display_name()} computes "
                f"{query.aggregate.value.upper()} but the source holds "
                f"{source_aggregate!r} rollups"
            )
        self.schema = schema
        self.query = query
        self.source_levels = tuple(source_levels)
        self._aggregator = HashAggregator(
            schema,
            query,
            aggregate=effective_aggregate(query.aggregate, source_aggregate),
        )
        # Per-dimension plumbing, fixed at build time: the predicate masks,
        # and per dimension grouped below ALL its rollup array (None: the
        # source key is the target key).  A dimension at ALL outputs zeros.
        self._masks: List[Tuple[int, np.ndarray]] = []
        self._rollups: List[Tuple[int, Optional[np.ndarray]]] = []
        #: Dimensions whose hash structure each input tuple probes.
        self.n_probe_dims = 0
        for d in range(schema.n_dims):
            target_level = query.groupby.levels[d]
            preds = query.predicates_on(d)
            for pred in preds:
                self._masks.append(
                    (d, rollups.predicate_mask(self.source_levels[d], pred))
                )
            tmap = rollups.target_map(d, self.source_levels[d], target_level)
            grouped = target_level != schema.dimensions[d].all_level
            if grouped:
                self._rollups.append((d, tmap))
            self.n_probe_dims += bool(grouped or preds)
        #: Predicate masks each input tuple is tested against.
        self.n_predicates = len(self._masks)
        self.rows_in = 0
        self.rows_passed = 0

    def actual_cpu_ms(self, rates) -> float:
        """Simulated CPU milliseconds this pipeline charged so far, from its
        own row counters priced at ``rates`` — exactly the per-query share
        of the class's CPU charge (probe + filter + copy + aggregate), so
        plan accounting can attribute measured cost to individual queries."""
        return rates.price(
            pipeline_counts(
                self.rows_in, self.n_probe_dims, self.n_predicates, self.rows_passed
            )
        )

    def passing(
        self, key_columns: Sequence[np.ndarray], rows: Optional[np.ndarray] = None
    ) -> Optional[np.ndarray]:
        """Per row of the batch (or of its offsets ``rows``), whether it
        passes every predicate mask; None for a query without predicates."""
        keep = None
        for dim_index, mask in self._masks:
            column = key_columns[dim_index]
            passed = mask[column if rows is None else column[rows]]
            keep = passed if keep is None else (keep & passed)
        return keep

    def process_batch(
        self,
        key_columns: Sequence[np.ndarray],
        measures: np.ndarray,
        stats: Optional[IOStats],
        survivors: Optional[np.ndarray] = None,
    ) -> int:
        """Run one batch through probe → filter → aggregate; returns the
        number of tuples that survived the filters.  ``survivors`` — the rows
        passing every predicate (ascending offsets, or flags), as a shared
        scan found them — replaces this pipeline's own mask evaluation;
        ``stats=None`` says the caller has charged the batch, in these units."""
        n = measures.size
        self.rows_in += n
        keep = survivors if survivors is not None else self.passing(key_columns)
        if keep is not None:
            measures = measures[keep]
        n_pass = measures.size
        if stats is not None:
            stats.charge_hash_probe(n * self.n_probe_dims)
            stats.charge_predicate(n * self.n_predicates)
            stats.charge_tuple_copy(n_pass)
        if n_pass == 0:
            return 0
        self.rows_passed += n_pass
        target_columns = [np.zeros(n_pass, dtype=np.int64)] * self.schema.n_dims
        for d, tmap in self._rollups:
            column = key_columns[d] if keep is None else key_columns[d][keep]
            target_columns[d] = column if tmap is None else tmap[column]
        self._aggregator.update(target_columns, measures, stats)
        return int(n_pass)

    def result(self) -> QueryResult:
        """Finalize and return the accumulated QueryResult."""
        return self._aggregator.result()

    def columns(self) -> Tuple[List[np.ndarray], np.ndarray]:
        """The accumulated groups as columns of integer state
        (``HashAggregator.columns``)."""
        return self._aggregator.columns()


class SharedProbe:
    """Section 3.1's shared probe: each dimension's hash table is probed
    once per tuple for *every* query riding the scan.

    The predicate masks of the members are folded into one table per
    dimension of per-member bits — bit *q* set where member *q*'s
    predicates on that dimension pass the source-level member id (or it has
    none there) — 64 members to a ``uint64`` word.  A member without
    predicates holds no bit: it takes every batch whole.
    """

    def __init__(self, pipes: Sequence[QueryPipeline]):
        self._n_pipes = len(pipes)
        #: Per word: its ``(dim_index, table)`` pairs and the ``(position
        #: in pipes, bit)`` of each member it holds.
        self._words: List[Tuple[list, list]] = []
        predicated = [i for i, pipe in enumerate(pipes) if pipe.n_predicates]
        for first in range(0, len(predicated), 64):
            members = predicated[first : first + 64]
            everyone = (1 << len(members)) - 1
            tables: Dict[int, np.ndarray] = {}
            for bit, member in enumerate(members):
                for dim_index, mask in pipes[member]._masks:
                    if dim_index not in tables:
                        tables[dim_index] = np.full(
                            mask.size, everyone, dtype=np.uint64
                        )
                    tables[dim_index][~mask] &= np.uint64(everyone ^ (1 << bit))
            self._words.append(
                (
                    list(tables.items()),
                    [(m, np.uint64(1 << bit)) for bit, m in enumerate(members)],
                )
            )

    def alive(self, key_columns: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Per word, the member bits each row of the batch still holds (their
        population count is the class's survivor count): one gather per
        predicated dimension."""
        words = []
        for tables, _members in self._words:
            alive, *others = [table.take(key_columns[d]) for d, table in tables]
            for bits in others:
                alive &= bits
            words.append(alive)
        return words

    def split(self, words: Sequence[np.ndarray]) -> List[Optional[np.ndarray]]:
        """Per pipeline, the ascending offsets of the rows passing all its
        predicates (None for a member without predicates), from one batch's
        :meth:`alive` words or several batches': one ``flatnonzero`` per word."""
        out: List[Optional[np.ndarray]] = [None] * self._n_pipes
        for (_tables, members), alive in zip(self._words, words):
            rows = np.flatnonzero(alive)
            bits = alive[rows]
            for member, bit in members:
                out[member] = rows[(bits & bit) != 0]
        return out
