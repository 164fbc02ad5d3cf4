"""The user-facing database facade.

A :class:`Database` owns the catalog, the buffer pool, and the simulated cost
clock, and exposes the full workflow of the paper:

1. load a base fact table (:meth:`load_base`),
2. precompute materialized group-bys (:meth:`materialize`),
3. build star-join bitmap indexes (:meth:`create_bitmap_index`),
4. optimize a set of dimensional queries with TPLO / ETPLG / GG / optimal
   (:meth:`optimize`),
5. execute the resulting global plan with the shared operators
   (:meth:`execute` / :meth:`run_queries` / :meth:`run_mdx`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager, suppress
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.operators.pipeline import ExecContext
from ..obs.metrics import default_registry
from ..obs.trace import NULL_TRACER, Span, Tracer
from ..schema.query import GroupByQuery
from ..schema.star import StarSchema
from ..storage.buffer import DEFAULT_POOL_PAGES, BufferPool
from ..storage.catalog import Catalog, TableEntry
from ..storage.iostats import DEFAULT_RATES, CostRates, IOStats
from ..storage.page import DEFAULT_PAGE_SIZE, ColumnBatch, Row
from ..storage.table import HeapTable
from .materialize import build_groupby_table, pick_materialization_source

if TYPE_CHECKING:  # pragma: no cover
    from ..core.executor import ExecutionReport
    from ..core.optimizer.plans import GlobalPlan
    from ..serve.retry import RetryPolicy
    from ..serve.service import QueryService
    from ..serve.shard import ShardSet

LevelsLike = Union[str, Sequence[int]]


class Database:
    """An in-process ROLAP engine over one star schema."""

    def __init__(
        self,
        schema: StarSchema,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pages: int = DEFAULT_POOL_PAGES,
        rates: Optional[CostRates] = None,
        paranoia: bool = False,
    ):
        self.schema = schema
        self.page_size = page_size
        self.stats = IOStats(rates=rates or DEFAULT_RATES)
        self.pool = BufferPool(self.stats, capacity_pages=buffer_pages)
        self.catalog = Catalog()
        #: Differential-checking mode (see :mod:`repro.check`): validate
        #: every plan before execution and cross-check every result against
        #: the brute-force reference.  Slow; for tests and debugging.
        self.paranoia = paranoia
        #: Monotone mutation epoch: bumped by every path that changes query
        #: answers (base loads, appends, incremental maintenance); see
        #: :meth:`notify_mutation`.
        self.data_version = 0
        #: Attachments, plain data (None = detached): the result cache
        #: :meth:`run_queries` consults (:func:`~repro.engine.result_cache.
        #: attach_cache`) and the serving plane's flight recorder
        #: (:meth:`flight_recorder`).
        self.result_cache = None
        self._flight_recorder = None
        #: ANALYZE output per table (see :meth:`analyze`); empty means the
        #: cost model falls back to uniform selectivity estimates.
        self.table_statistics: dict = {}
        #: Stored dimension tables (see :meth:`store_dimension_tables`);
        #: empty means dimension hash builds charge CPU only.
        self.dimension_tables: dict = {}
        #: The live tracer; the no-op NULL_TRACER unless inside
        #: :meth:`trace`, so untraced operation costs nothing.
        self.tracer = NULL_TRACER
        #: Root span of the most recent finished :meth:`trace` block.
        self.last_trace: Optional[Span] = None
        #: Armed :class:`repro.faults.FaultPlan` (see :meth:`arm_faults`),
        #: or None when fault injection is off.
        self.faults = None
        #: The loaded :class:`repro.calibrate.profile.CalibrationProfile`,
        #: or None when running on hand-set rates.  Set by
        #: :meth:`apply_profile`; benchmark fingerprints embed its identity
        #: so fitted-rates and default-rates records can never silently
        #: gate each other.
        self.calibration_profile = None

    # -- cost-rate calibration ------------------------------------------------

    def set_rates(self, rates: CostRates) -> None:
        """Swap the simulated cost clock's rates in place.

        The clock object itself is untouched (the buffer pool and every
        operator charge through the same :class:`IOStats` instance), so the
        swap takes effect for all subsequent optimization *and* execution —
        both optimizer families build their :class:`CostModel` from
        ``db.stats.rates`` per :meth:`optimize` call.  Counters are kept;
        call between executions, not during one (an in-flight snapshot
        diff across a rate change raises by design).
        """
        self.stats.rates = rates

    def apply_profile(self, profile) -> None:
        """Run under a fitted calibration profile (see
        :mod:`repro.calibrate`): swap in its rates and record provenance."""
        self.set_rates(profile.rates)
        self.calibration_profile = profile

    # -- loading and precomputation -------------------------------------------

    def _resolve_levels(self, levels: LevelsLike) -> Tuple[int, ...]:
        if isinstance(levels, str):
            return self.schema.parse_groupby_name(levels)
        return self.schema.check_levels(levels)

    def load_base(
        self,
        rows: Iterable[Row] = (),
        name: Optional[str] = None,
        columns: Optional[ColumnBatch] = None,
    ) -> TableEntry:
        """Create and load the lowest-level (LL) base table from ``rows``, or
        instead from ``columns`` — ``(key columns, measures)``, stored as they
        are (:meth:`~repro.storage.table.HeapTable.extend_columns`)."""
        base_levels = self.schema.base_levels()
        if name is None:
            name = self.schema.groupby_name(base_levels)
        names = [dim.name for dim in self.schema.dimensions]
        names.append(self.schema.measure)
        table = HeapTable(name, names, page_size=self.page_size)
        if columns is None:
            table.extend(rows)
        else:
            table.extend_columns(*columns)
        entry = self.catalog.register(table, base_levels)
        self.notify_mutation()
        return entry

    def notify_mutation(self) -> None:
        """Record that query answers may have changed (new or appended fact
        data).  Every mutation entry point — :meth:`load_base`,
        :meth:`append_rows`, and direct calls into
        :func:`repro.engine.maintenance.append_rows` — funnels through
        here, so the result cache (dropped on the spot) and the shard
        partitions keyed on :attr:`data_version` can never serve results
        computed before a mutation."""
        self.data_version += 1
        if self.result_cache is not None:
            self.result_cache.sync(self.data_version)

    def materialize(
        self,
        levels: LevelsLike,
        name: Optional[str] = None,
        aggregate: "Aggregate | None" = None,
    ) -> TableEntry:
        """Precompute one group-by from the cheapest compatible table.

        ``aggregate`` defaults to SUM.  The resulting view can only answer
        queries with the same aggregate (raw base data answers anything);
        the catalog records this and the optimizers respect it.

        Offline precomputation: not charged to the query cost clock.
        """
        from ..schema.query import Aggregate

        if aggregate is None:
            aggregate = Aggregate.SUM
        target = self._resolve_levels(levels)
        if name is None:
            name = self.schema.groupby_name(target)
            if aggregate is not Aggregate.SUM:
                name = f"{name}[{aggregate.value}]"
        source = pick_materialization_source(
            self.schema, self.catalog.entries(), target, aggregate
        )
        table = build_groupby_table(
            self.schema, source, target, name, self.page_size,
            aggregate=aggregate,
        )
        return self.catalog.register(
            table, target, clustered=True, source_aggregate=aggregate.value
        )

    def store_dimension_tables(self) -> dict:
        """Materialize every dimension as a stored table (one row per leaf
        member carrying its ancestors at each level).

        Afterwards, building a dimension hash structure during query
        evaluation charges a sequential scan of the dimension table — the
        full cost of the paper's "building a hash table on each dimension
        table" — which the shared operators then amortize across a class.
        """
        for dim in self.schema.dimensions:
            if dim.name in self.dimension_tables:
                continue
            columns = [dim.level_name(depth) for depth in range(dim.n_levels)]
            table = HeapTable(
                f"{dim.name}dim", columns, page_size=self.page_size
            )
            n_leaves = dim.n_members(0)
            for leaf in range(n_leaves):
                row = [leaf]
                for depth in range(1, dim.n_levels):
                    row.append(dim.rollup(0, depth, leaf))
                table.append(tuple(row))
            self.dimension_tables[dim.name] = table
        return self.dimension_tables

    def analyze(self, table_names: Optional[Sequence[str]] = None) -> dict:
        """Collect measured dimension-key frequencies (ANALYZE); the cost
        model then prices predicates by measured selectivity for analyzed
        tables (see :mod:`repro.engine.statistics`)."""
        from .statistics import analyze

        return analyze(self, table_names)

    def append_rows(self, rows: Iterable[Row]) -> dict:
        """Append fact rows to the base table and incrementally maintain
        every materialized group-by and join index (see
        :mod:`repro.engine.maintenance`)."""
        from .maintenance import append_rows

        return append_rows(self, rows)

    def create_bitmap_index(
        self,
        table_name: str,
        dim_name: str,
        level: Optional[Union[int, str]] = None,
        kind: str = "bitmap",
    ):
        """Build a star-join index on one dimension attribute of a table.

        ``level`` defaults to the level the table stores for that dimension
        (the finest indexable level).  ``kind`` is ``"bitmap"`` or
        ``"btree"`` (position-list payload).
        """
        from ..index.bitmap_index import BitmapJoinIndex
        from ..index.btree import PositionListJoinIndex

        entry = self.catalog.get(table_name)
        dim_index = self.schema.dim_index(dim_name)
        dim = self.schema.dimensions[dim_index]
        stored = entry.levels[dim_index]
        if stored == dim.all_level:
            raise ValueError(
                f"table {table_name!r} aggregates {dim_name!r} to ALL; "
                f"nothing to index"
            )
        if level is None:
            depth = stored
        elif isinstance(level, str):
            depth = dim.level_depth(level)
        else:
            depth = int(level)
        if not stored <= depth < dim.all_level:
            raise ValueError(
                f"index level {depth} must be in [{stored}, {dim.all_level - 1}] "
                f"for {table_name!r}.{dim_name!r}"
            )
        builder = {
            "bitmap": BitmapJoinIndex,
            "btree": PositionListJoinIndex,
        }.get(kind)
        if builder is None:
            raise ValueError(f"unknown index kind {kind!r}")
        index = builder.build_on(entry, dim, dim_index, depth)
        entry.add_index(dim_index, depth, index)
        return index

    def index_all_dimensions(
        self,
        table_name: str,
        dim_names: Optional[Sequence[str]] = None,
        kind: str = "bitmap",
    ) -> None:
        """Build one index per (given) dimension at its stored level."""
        entry = self.catalog.get(table_name)
        if dim_names is None:
            dim_names = [
                dim.name
                for dim, lv in zip(self.schema.dimensions, entry.levels)
                if lv < dim.all_level
            ]
        for dim_name in dim_names:
            self.create_bitmap_index(table_name, dim_name, kind=kind)

    # -- execution --------------------------------------------------------------

    def ctx(
        self, catalog: Optional[Catalog] = None, private: bool = False
    ) -> ExecContext:
        """An ExecContext over this database's catalog, pool, and clock.

        ``private=True`` gives the context a fresh buffer pool and cost
        clock of its own (same capacity, rates, and armed fault plan).  A
        fresh pool is indistinguishable from a just-flushed shared one, so
        a cold plan cell run in it measures exactly what it would alone —
        whatever else runs concurrently.  ``catalog`` substitutes a data
        shard's catalog slice (see :mod:`repro.serve.shard`).
        """
        stats, pool = self.stats, self.pool
        if private:
            stats = IOStats(rates=self.stats.rates)
            pool = BufferPool(stats, capacity_pages=self.pool.capacity_pages)
            pool.faults = self.faults
        return ExecContext(
            schema=self.schema,
            catalog=catalog if catalog is not None else self.catalog,
            pool=pool,
            stats=stats,
            dim_tables=self.dimension_tables or None,
            tracer=self.tracer.bound(stats) if private else self.tracer,
            faults=self.faults,
        )

    def arm_faults(self, plan) -> None:
        """Arm a :class:`repro.faults.FaultPlan` for subsequent execution.

        The plan is threaded into every execution context this database
        builds (private per-cell contexts and their pools included) and
        into the shared buffer pool, so every injection site sees it.
        Pass None — or call :meth:`disarm_faults` — to turn injection
        back off."""
        self.faults = plan
        self.pool.faults = plan

    def disarm_faults(self) -> None:
        """Turn fault injection off (idempotent)."""
        self.arm_faults(None)

    def flight_recorder(self):
        """The serving-plane flight recorder, when a
        :class:`~repro.serve.service.QueryService` with recording enabled
        has attached to this database (None otherwise).  See
        :mod:`repro.obs.recorder` and ``docs/observability.md``."""
        return self._flight_recorder

    @contextmanager
    def trace(
        self,
        label: str = "batch",
        clock: Optional[Callable[[], float]] = None,
    ) -> Iterator[Tracer]:
        """Trace everything inside the ``with`` block into one span tree.

        A real :class:`~repro.obs.trace.Tracer` (bound to this database's
        cost clock; ``clock`` injectable for deterministic tests) replaces
        the no-op tracer for the duration; a root span named ``label``
        wraps the block.  Afterwards the finished tree is available as
        :attr:`last_trace`::

            with db.trace() as tracer:
                db.run_queries(queries, "gg")
            print(db.last_trace.find("execute.plan").sim_ms)

        Export with :func:`repro.obs.write_trace` /
        :func:`repro.obs.to_chrome_trace`.
        """
        tracer = Tracer(stats=self.stats, clock=clock)
        root = tracer.span(label)
        self.tracer = tracer
        try:
            with root:
                yield tracer
        finally:
            self.tracer = NULL_TRACER
            self.last_trace = root

    def flush(self) -> None:
        """Drop all cached pages — the paper's cold-start discipline."""
        self.pool.flush()

    def reset_stats(self) -> None:
        """Zero the simulated cost counters."""
        self.stats.reset()

    def optimize(
        self, queries: Sequence[GroupByQuery], algorithm: str = "gg"
    ) -> "GlobalPlan":
        """Build a global plan with any registered algorithm
        (:data:`repro.core.optimizer.OPTIMIZERS`: ``naive``, ``tplo``,
        ``etplg``, ``gg``, ``bgg``, ``optimal``, ``dp``, ``dag``).

        The plan must pass the coverage rule for ``queries``, paranoia or
        not (:func:`~repro.check.validate.check_coverage`).  It carries
        ``search_stats`` (class costings performed, planning wall time) for
        studying the planning-effort trade-off the paper's Section 8 raises.
        """
        from ..check.errors import CorrectnessError, PlanValidationError
        from ..check.validate import check_coverage
        from ..core.optimizer import make_optimizer

        optimizer = make_optimizer(algorithm, self)
        with self.tracer.span(
            f"optimize.{algorithm}", n_queries=len(queries)
        ) as span:
            started = time.perf_counter()
            plan = optimizer.optimize(list(queries))
            # Merge, don't overwrite: optimizers (e.g. dag) leave their own
            # planning metadata in search_stats.
            plan.search_stats = {
                **plan.search_stats,
                "plan_costings": optimizer.model.n_plan_costings,
                "planning_s": time.perf_counter() - started,
            }
            span.set("plan_costings", optimizer.model.n_plan_costings)
            span.set("member_terms", optimizer.model.n_member_terms)
            span.set("n_classes", len(plan.classes))
        try:
            check_coverage(plan, queries)
        except PlanValidationError as exc:
            raise CorrectnessError(
                f"{algorithm!r} misplanned the submitted batch: {exc}", plan=plan
            ) from exc
        metrics = default_registry()
        metrics.counter(
            "optimizer.plan_costings", "class costings computed while planning"
        ).inc(optimizer.model.n_plan_costings)
        metrics.counter(
            "optimizer.classes_opened", "plan classes in the plans produced"
        ).inc(len(plan.classes))
        return plan

    def execute(
        self,
        plan: "GlobalPlan",
        cold: bool = True,
        paranoia: Optional[bool] = None,
        n_workers: int = 1,
        shard_set: "Optional[ShardSet]" = None,
    ) -> "ExecutionReport":
        """Execute a global plan (see
        :func:`repro.core.executor.execute_plan` for the contract).

        ``cold`` starts every class from an empty buffer pool, as the
        paper flushed buffers before each measured run; ``paranoia``
        overrides the database's :attr:`paranoia` flag for this run;
        ``n_workers`` > 1 runs the plan's cells on a thread pool;
        ``shard_set`` (from :meth:`build_shards`) scatters each class over
        the data shards and gathers the merged results."""
        from ..core.executor import execute_plan

        started = time.perf_counter()
        report = execute_plan(
            self,
            plan,
            cold=cold,
            n_workers=n_workers,
            shard_set=shard_set,
            paranoia=paranoia,
        )
        report.elapsed_s = time.perf_counter() - started
        return report

    def run_queries(
        self,
        queries: Sequence[GroupByQuery],
        algorithm: str = "gg",
        cold: bool = True,
        n_workers: int = 1,
        shard_set: "Optional[ShardSet]" = None,
        recovery: "Optional[RetryPolicy]" = None,
    ) -> "ExecutionReport":
        """Answer one batch — the only code that does; sessions and the
        query service call this with their coalesced distinct set.  The
        contract is stated once, in ``docs/architecture.md`` §"Answering a
        batch": cache hits skip planning, the misses are optimized as one
        unit *as submitted* (no deduplication here; :meth:`optimize` holds
        the plan to covering them), executed
        (``cold``/``n_workers``/``shard_set`` go to :meth:`execute`),
        recovered under ``recovery`` (None = not at all), and retained only
        if nothing stayed failed.

        The report covers the whole batch: ``plan`` is the misses' plan
        (empty when every query hit), ``cache_hits`` the rest.
        """
        from ..core.executor import ExecutionReport
        from ..core.optimizer.plans import GlobalPlan

        cache = self.result_cache

        def ask(batch: Sequence[GroupByQuery]) -> "ExecutionReport":
            hits: dict = {}
            if cache is not None:
                cache.sync(self.data_version)
                for query in batch:
                    cached = cache.get(query)
                    if cached is not None:
                        hits[query.qid] = cached
            misses = [query for query in batch if query.qid not in hits]
            if misses or not hits:
                # An empty batch is planned too: the optimizer rejects it.
                plan = self.optimize(misses, algorithm)
                report = self.execute(
                    plan, cold=cold, n_workers=n_workers, shard_set=shard_set
                )
            else:
                report = ExecutionReport(plan=GlobalPlan(algorithm=algorithm))
            report.cache_hits = hits
            return report

        if recovery is None:
            report = ask(queries)
        else:
            report = self._recover(ask, queries, recovery, cold)
        # A batch that ends with a failure leaves no trace in the cache: its
        # survivors are correct, but retaining them would let a later
        # identical batch skip re-executing — and so skip re-surfacing the
        # typed error — for the failed queries' batchmates.
        hits = report.cache_hits
        if cache is not None and not report.failures:
            for qid, result in report.results.items():
                if qid not in hits:
                    cache.put(result)
        if hits and self.paranoia:
            from ..check.invariants import recheck_cache_hits

            with self.tracer.span("check.cache", n_hits=len(hits)) as span:
                span.set("n_rechecked", recheck_cache_hits(self, hits))
        return report

    def _recover(self, ask, queries, recovery, cold) -> "ExecutionReport":
        """Answer ``queries`` through ``ask`` under ``recovery``: re-ask the
        failed queries only, then (``recovery.degrade``) plan each one still
        failing alone on the raw fact table; one report over every attempt."""
        from ..core.executor import ExecutionReport
        from ..core.optimizer.base import build_plan_class
        from ..core.optimizer.cost import CostModel
        from ..core.optimizer.plans import GlobalPlan
        from ..faults import InjectedFault
        from ..serve.retry import RetryExhausted, call_with_retry

        attempts: List["ExecutionReport"] = []
        outstanding = list(queries)

        def attempt(_number: int) -> None:
            nonlocal outstanding
            attempts.append(ask(outstanding))
            failed = attempts[-1].failed_qids
            outstanding = [q for q in outstanding if q.qid in failed]
            if failed:
                raise attempts[-1].failures[0].error

        with suppress(RetryExhausted):  # what stayed failed is in attempts
            call_with_retry(
                recovery, attempt, retry_on=(InjectedFault,), tracer=self.tracer
            )
        failures = attempts[-1].failures
        raw = self.catalog.raw_entries()
        if failures and recovery.degrade and raw:
            model, failures = CostModel.for_database(self), []
            for query in outstanding:
                with self.tracer.span(
                    "serve.degrade", qid=query.qid, source=raw[0].name
                ) as span:
                    plan_class = build_plan_class(model, raw[0], [query])
                    plan = GlobalPlan("degraded", [plan_class])
                    attempts.append(self.execute(plan, cold=cold))
                    if attempts[-1].failures:
                        span.set("failed", True)
                failures += attempts[-1].failures
        first = attempts[0]
        if len(attempts) == 1:
            return first
        executions = [e for each in attempts for e in each.class_executions]
        return ExecutionReport(
            first.plan, executions, failures, first.cache_hits, attempts=attempts
        )

    def run_mdx(
        self, text: str, algorithm: str = "gg", cold: bool = True
    ) -> "ExecutionReport":
        """Parse an MDX expression, split it into its component group-by
        queries, optimize them as a unit, and execute."""
        from ..mdx import translate_mdx

        queries = translate_mdx(self.schema, text, tracer=self.tracer)
        return self.run_queries(queries, algorithm=algorithm, cold=cold)

    def serve(self, **config) -> "QueryService":
        """A concurrent query service over this database (not yet started).

        Keyword arguments become the service's
        :class:`~repro.serve.batching.ServeConfig`::

            with db.serve(window_ms=5.0) as service:
                future = service.submit(queries)
                response = future.result(timeout=10.0)

        ``serve(shards=N)`` switches the scheduler to scatter-gather
        execution over N hash partitions of the data (see
        :mod:`repro.serve.shard`).

        See :mod:`repro.serve` and ``docs/serving.md``.
        """
        from ..serve import QueryService, ServeConfig

        return QueryService(self, ServeConfig(**config))

    def build_shards(self, n_shards: int, dim_name: Optional[str] = None):
        """Hash-partition every catalog table into N data shards (see
        :func:`repro.serve.shard.build_shards`); pass the returned
        :class:`~repro.serve.shard.ShardSet` to :meth:`execute`."""
        from ..serve.shard import build_shards

        return build_shards(self, n_shards, dim_name)

    # -- inspection ----------------------------------------------------------------

    def table_report(self) -> List[Tuple[str, int, int]]:
        """(name, rows, pages) for every registered table, largest first."""
        rows = [
            (entry.name, entry.n_rows, entry.n_pages)
            for entry in self.catalog.entries()
        ]
        rows.sort(key=lambda item: (-item[1], item[0]))
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Database(schema={self.schema.name!r}, "
            f"tables={self.catalog.names()})"
        )
