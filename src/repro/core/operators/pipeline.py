"""Shared star-join machinery: execution context, dimension "hash tables",
and per-query probe/aggregate pipelines.

In the paper's pipelined right-deep hash star join, each dimension table is
hashed and fact tuples probe those hash tables.  In this engine a dimension
"hash table" is a rollup array (source-level member id → target-level member
id) plus, when the query has a selection on that dimension, a boolean pass
mask over source-level member ids.  :func:`settle_builds` charges each
distinct structure (:func:`~repro.schema.lattice.build_keys`) once per
*operator execution* — which is exactly the sharing the paper's Section 3.1
operator exploits ("they can share hash tables, instead of redundantly
building and probing several hash tables on the same dimension tables").
The members of an operator that fold alike — the same target group-by, fold
and result aggregate — fold each batch once, together (:class:`MemberGroup`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ...obs.trace import NULL_TRACER
from ...schema.lattice import build_keys, effective_aggregate, new_builds
from ...schema.lattice import source_can_answer
from ...schema.query import GroupByQuery
from ...schema.star import StarSchema
from ...storage.buffer import BufferPool
from ...storage.catalog import Catalog, TableEntry
from ...storage.iostats import Counts, IOStats, build_counts, pipeline_counts
from ...storage.iostats import pipeline_ms
from .aggregate import HashAggregator
from .results import QueryResult


@dataclass
class ExecContext:
    """Everything an operator needs to run: schema, catalog, pool, clock.

    ``dim_tables`` (optional) maps dimension names to stored dimension
    tables; when present, an operator's first structure on a dimension
    charges a scan of its table (see :meth:`Database.store_dimension_tables`).

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


def require_answerable(
    levels: Sequence[int],
    aggregate: Optional[str],
    queries: Iterable[GroupByQuery],
    source: str,
) -> None:
    """Raise ValueError naming the first of ``queries`` that a source
    stored at ``levels`` and holding ``aggregate`` rollups cannot answer."""
    for query in queries:
        if not source_can_answer(levels, aggregate, query):
            raise ValueError(
                f"{query.display_name()} cannot be answered from {source} "
                f"(levels {tuple(levels)}, measure {aggregate!r})"
            )


def settle_builds(
    ctx: ExecContext, held: set, pipes: Iterable["QueryPipeline"]
) -> None:
    """Charge the structures ``pipes`` built that the class does not hold
    yet (:func:`~repro.schema.lattice.new_builds` of their ``build_keys``,
    in pipe order) and add them and their dimensions to ``held``: a hash
    entry per source-level member, then each first build on a dimension
    whose table is stored scans that table through the pool, which charges
    the pages it reads — once per class, however many structures it takes
    (the paper's "building a hash table on the dimension table")."""
    schema = ctx.schema
    keys = [key for pipe in pipes for key in pipe.build_keys]
    new, entries, first = new_builds(schema, held, keys)
    held.update(new, first)
    ctx.stats.charge(build_counts(entries))
    for d in first:
        dim_table = (ctx.dim_tables or {}).get(schema.dimensions[d].name)
        if dim_table is not None:
            # Only the accounting is wanted: drain the scan (every column
            # but the last as a key: zero-copy views).
            for _morsel in dim_table.scan_batches(ctx.pool, dim_table.n_columns - 1):
                pass


class QueryPipeline:
    """The probe-filter-aggregate tail of one query's star-join plan.

    Feed it batches of source-level key columns + measures (one batch per
    scan morsel, or per retrieved probe set); read the final
    :class:`QueryResult` with :meth:`result`.  An operator's pipelines
    share its ``masks`` (mask key → mask), so each distinct mask is built
    once per execution, and fold in groups (:func:`member_groups`): a
    pipeline hands its group the rows it keeps, and the group folds them
    with its other members'.  A pipeline no operator grouped folds alone,
    batch by batch.  Its operator checks that its source can answer it
    (:func:`require_answerable`).
    """

    def __init__(
        self,
        schema: StarSchema,
        query: GroupByQuery,
        source_levels: Sequence[int],
        source_aggregate: Optional[str] = None,
        masks: Optional[Dict[tuple, np.ndarray]] = None,
    ):
        self.schema = schema
        self.query = query
        self.source_levels = tuple(source_levels)
        #: The fold over the source's measure column.
        self.fold = effective_aggregate(query.aggregate, source_aggregate)
        #: Pipelines with equal keys fold alike: one group of them folds
        #: each batch once (:func:`member_groups`).
        self.fold_key = (
            self.source_levels, query.groupby.levels, self.fold, query.aggregate
        )
        #: Its :class:`MemberGroup` and its slot there (None until grouped).
        self.group: Optional[MemberGroup] = None
        self.slot = 0
        #: The structures the pipeline builds, as :func:`settle_builds`
        #: charges them.
        self.build_keys = build_keys(schema, self.source_levels, query)
        # Per-dimension plumbing, fixed at build time: a predicate mask per
        # mask key, and per dimension grouped below ALL its rollup array
        # (None, without a map key: the source key is the target key).  A
        # dimension at ALL outputs zeros.
        dims = schema.dimensions
        masks = {} if masks is None else masks
        self._masks: List[Tuple[int, np.ndarray]] = []
        maps: Dict[int, np.ndarray] = {}
        for key in self.build_keys:
            if len(key) == 3:
                maps[key[0]] = dims[key[0]].rollup_map(key[1], key[2])
            else:
                if key not in masks:
                    masks[key] = dims[key[0]].member_mask(*key[1:])
                self._masks.append((key[0], masks[key]))
        self._rollups: List[Tuple[int, Optional[np.ndarray]]] = [
            (d, maps.get(d))
            for d, (target, top) in enumerate(
                zip(query.groupby.levels, schema.all_levels())
            )
            if target != top
        ]
        #: Dimensions whose hash structure each input tuple probes.
        self.n_probe_dims = len({d for d, _ in self._rollups + self._masks})
        #: Predicate masks each input tuple is tested against.
        self.n_predicates = len(self._masks)
        self.rows_in = 0
        self.rows_passed = 0

    def actual_cpu_ms(self, rates) -> float:
        """Simulated CPU milliseconds this pipeline charged so far, from its
        own row counters priced at ``rates`` — exactly the per-query share
        of the class's CPU charge (probe + filter + copy + aggregate), so
        plan accounting can attribute measured cost to individual queries."""
        return pipeline_ms(
            rates, self.rows_in, self.n_probe_dims, self.n_predicates, self.rows_passed
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
        survivors: Optional[np.ndarray] = None,
        fed: Optional[int] = None,
    ) -> Counts:
        """Run one batch through probe → filter, and hand the rows that
        pass to the pipeline's group to aggregate; returns what it charges
        (:func:`pipeline_counts`), for the caller to charge.
        ``survivors`` — the rows passing every predicate (ascending
        offsets, or flags), as a shared probe found them — replaces this
        pipeline's own mask evaluation.  ``fed`` is how many of the
        batch's rows reach this pipeline, when fewer than all do (a shared
        index probe's rows in the member's own bitmap, or a hybrid scan's
        routed rows)."""
        n = measures.size if fed is None else fed
        self.rows_in += n
        keep = survivors if survivors is not None else self.passing(key_columns)
        if keep is None:
            n_pass = measures.size
        elif keep.dtype == np.bool_:
            n_pass = int(np.count_nonzero(keep))
        else:
            n_pass = keep.size
        counts = pipeline_counts(n, self.n_probe_dims, self.n_predicates, n_pass)
        if n_pass:
            self.rows_passed += n_pass
            self._group().stage(self.slot, key_columns, measures, keep)
        return counts

    def _group(self) -> "MemberGroup":
        """Its group: one of its own unless an operator grouped it."""
        return self.group or MemberGroup([self])

    def result(self) -> QueryResult:
        """Finalize and return the accumulated QueryResult."""
        return self._group().result(self.slot)

    def columns(self) -> Tuple[List[np.ndarray], np.ndarray]:
        """The accumulated groups as columns of integer state
        (``HashAggregator.columns``)."""
        return self._group().columns(self.slot)


class MemberGroup:
    """An operator's pipelines that fold alike (equal
    :attr:`QueryPipeline.fold_key`: source and target levels, fold and
    result aggregate) and their one :class:`HashAggregator`.

    Per batch, each member stages the rows it keeps
    (:meth:`QueryPipeline.process_batch`), and :meth:`fold` folds them all
    at once: one gather per grouped dimension over the members' survivors
    concatenated in slot order, and one fold, each row's code offset by its
    member's slot.  A group of one folds its member's rows as they are.
    Staging a new batch, or reading the state, folds what is staged.
    """

    def __init__(self, pipes: Sequence[QueryPipeline]):
        self.pipes = list(pipes)
        first = self.pipes[0]
        self.aggregator = HashAggregator(
            first.schema, *(pipe.query for pipe in self.pipes),
            aggregate=first.fold,
        )
        for slot, pipe in enumerate(self.pipes):
            pipe.group, pipe.slot = self, slot
        #: The batch staged from, and each staging member's ``(slot, rows
        #: kept)`` — None for every row.
        self._batch: Optional[Tuple[Sequence[np.ndarray], np.ndarray]] = None
        self._staged: List[Tuple[int, Optional[np.ndarray]]] = []

    def stage(
        self,
        slot: int,
        key_columns: Sequence[np.ndarray],
        measures: np.ndarray,
        keep: Optional[np.ndarray],
    ) -> None:
        """Stage member ``slot``'s kept rows of a batch for :meth:`fold`."""
        if self._staged and measures is not self._batch[1]:
            self.fold()
        self._batch = key_columns, measures
        self._staged.append((slot, keep))

    def fold(self) -> None:
        """Fold the staged rows into the aggregator: it charges nothing
        (each member's :meth:`~QueryPipeline.process_batch` has returned
        its counts)."""
        if not self._staged:
            return
        (key_columns, measures), staged = self._batch, self._staged
        self._batch, self._staged = None, []
        if len(self.pipes) == 1:
            ((_slot, rows),) = staged
            digits = []
        else:
            parts = [
                np.arange(measures.size) if keep is None
                else np.flatnonzero(keep) if keep.dtype == np.bool_
                else keep
                for _slot, keep in staged
            ]
            rows = np.concatenate(parts)
            digits = [np.repeat(
                [slot for slot, _keep in staged], [part.size for part in parts]
            )]
        if rows is not None:
            measures = measures[rows]
        first = self.pipes[0]
        target = [np.zeros(measures.size, dtype=np.int64)] * first.schema.n_dims
        for d, tmap in first._rollups:
            column = key_columns[d] if rows is None else key_columns[d][rows]
            target[d] = column if tmap is None else tmap[column]
        self.aggregator.update(digits + target, measures)

    def result(self, slot: int) -> QueryResult:
        """Member ``slot``'s result (the state is decoded once for all)."""
        self.fold()
        return self.aggregator.result(slot)

    def columns(self, slot: int) -> Tuple[List[np.ndarray], np.ndarray]:
        """Member ``slot``'s groups as columns of integer state."""
        self.fold()
        return self.aggregator.columns(slot)


def member_groups(pipes: Iterable[QueryPipeline]) -> List[MemberGroup]:
    """Group an operator's pipelines that fold alike, in order of first
    member, each group's members in pipeline order — pipelines that are
    fed the same batches, which :meth:`MemberGroup.fold` folds together."""
    by_key: Dict[tuple, List[QueryPipeline]] = {}
    for pipe in pipes:
        by_key.setdefault(pipe.fold_key, []).append(pipe)
    return list(map(MemberGroup, by_key.values()))


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
            # Per dimension, a flag per (member id, bit): set for every
            # member, cleared where one of its masks there fails; then the
            # 64 flags of each member id packed into its word.
            flags: Dict[int, np.ndarray] = {}
            for bit, member in enumerate(members):
                for dim_index, mask in pipes[member]._masks:
                    table = flags.get(dim_index)
                    if table is None:
                        table = flags[dim_index] = np.zeros(
                            (mask.size, 64), dtype=bool
                        )
                        table[:, : len(members)] = True
                    table[:, bit] &= mask
            tables = [
                (d, np.packbits(table, axis=1, bitorder="little").view("<u8")[:, 0])
                for d, table in flags.items()
            ]
            self._words.append(
                (tables, [(m, np.uint64(1 << bit)) for bit, m in enumerate(members)])
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
