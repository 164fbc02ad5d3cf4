"""Semantic result caching.

Dashboards re-ask the same dimensional queries; a warehouse front end caches
results keyed by the query's *semantics* (target group-by + predicates +
aggregate — the same identity the session deduplicator uses), not its object
identity.

Coherence is epoch-based: every mutation path that can change query answers
bumps :attr:`Database.data_version` (base loads, ``append_rows``, and direct
calls into :mod:`repro.engine.maintenance`), and the cache compares epochs
on every access — so a mutation that bypasses the wrapped ``append_rows``
still invalidates, and a stale answer is never served.  Entries are
deep-copied on both insert and serve: a caller mutating a returned result
cannot corrupt the cache, nor the reverse.

Usage::

    cache = attach_cache(db)
    db.run_queries([q], "gg")   # miss: executes, caches
    db.run_queries([q], "gg")   # hit: served from cache, no execution
    db.append_rows(rows)        # invalidates (epoch bump)

Under :attr:`Database.paranoia`, a sample of every batch's served hits is
recomputed from scratch by the reference evaluator — a stale or corrupted
entry raises :class:`~repro.check.errors.CorrectnessError` instead of
silently answering wrong.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.operators.results import QueryResult
from ..obs.metrics import default_registry
from ..schema.query import GroupByQuery
from .session import QueryKey, query_key


@dataclass
class CacheStats:
    """Hit/miss/eviction/invalidation counters for a ResultCache."""
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits / (hits + misses); 0.0 before any access."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """A bounded semantic cache of query results.

    Eviction is **access-ordered LRU**: a hit refreshes the entry, so a
    dashboard's hot queries survive while one-off queries age out —
    insertion-order (FIFO) eviction would drop the most popular entry as
    readily as a dead one.  Effectiveness is exported through the metrics
    registry (``result_cache.hits`` / ``.misses`` / ``.evictions`` /
    ``.invalidations`` counters, ``result_cache.occupancy`` and
    ``.hit_rate`` gauges) so the serve layer can report cache health next
    to its coalescing numbers.

    All operations hold an internal lock: the serve scheduler probes the
    cache while client threads may run ``db.run_queries`` of their own.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries <= 0:
            raise ValueError("the cache needs room for at least one entry")
        self.max_entries = max_entries
        self._entries: "OrderedDict[QueryKey, Dict]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = CacheStats()
        #: The mutation epoch the entries were computed at (None until the
        #: first sync).  See :meth:`sync`.
        self._data_version: Optional[int] = None
        metrics = default_registry()
        self._hits_metric = metrics.counter(
            "result_cache.hits", "semantic-cache lookups served"
        )
        self._misses_metric = metrics.counter(
            "result_cache.misses", "semantic-cache lookups that missed"
        )
        self._evictions_metric = metrics.counter(
            "result_cache.evictions", "LRU entries dropped to admit new ones"
        )
        self._invalidations_metric = metrics.counter(
            "result_cache.invalidations",
            "wholesale cache drops after a data mutation",
        )
        self._occupancy_metric = metrics.gauge(
            "result_cache.occupancy", "entries currently cached"
        )
        self._hit_rate_metric = metrics.gauge(
            "result_cache.hit_rate", "hits / (hits + misses) over the lifetime"
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def sync(self, data_version: int) -> None:
        """Reconcile with the database's mutation epoch: entries computed
        at an older epoch are dropped wholesale.  Called on every access
        path, so even mutations that bypassed the cache's wrappers (e.g. a
        direct :func:`repro.engine.maintenance.append_rows` call) cannot
        leave stale answers behind."""
        with self._lock:
            if self._data_version != data_version:
                if self._data_version is not None:
                    self.invalidate()
                self._data_version = data_version

    def get(self, query: GroupByQuery) -> Optional[QueryResult]:
        """Look an entry up (None/raise per class contract).

        A hit moves the entry to most-recently-used, and the returned
        result owns a deep copy of the cached groups; mutating it cannot
        corrupt the cache.
        """
        key = query_key(query)
        with self._lock:
            groups = self._entries.get(key)
            if groups is None:
                self.stats.misses += 1
                self._misses_metric.inc()
                self._hit_rate_metric.set(self.stats.hit_rate)
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self._hits_metric.inc()
            self._hit_rate_metric.set(self.stats.hit_rate)
            return QueryResult(query=query, groups=copy.deepcopy(groups))

    def put(self, result: QueryResult) -> None:
        """Insert or replace the entry at most-recently-used (deep-copied:
        later mutation of the caller's result cannot reach the cached
        groups)."""
        key = query_key(result.query)
        with self._lock:
            if key not in self._entries and (
                len(self._entries) >= self.max_entries
            ):
                # LRU eviction: drop the least-recently-used entry.
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                self._evictions_metric.inc()
            self._entries[key] = copy.deepcopy(dict(result.groups))
            self._entries.move_to_end(key)
            self._occupancy_metric.set(len(self._entries))

    def invalidate(self) -> None:
        """Drop every cached entry."""
        with self._lock:
            if self._entries:
                self.stats.invalidations += 1
                self._invalidations_metric.inc()
            self._entries.clear()
            self._occupancy_metric.set(0)


def attach_cache(db, max_entries: int = 256) -> ResultCache:
    """Wire a :class:`ResultCache` into ``db.run_queries``:

    * cached queries are answered without planning or execution;
    * only the cache misses are optimized (still as one multi-query unit)
      and their results cached;
    * any mutation epoch change (``db.append_rows``, direct maintenance,
      a new base load) invalidates the cache.
    """
    cache = ResultCache(max_entries=max_entries)
    cache.sync(db.data_version)
    original_run = db.run_queries
    original_append = db.append_rows

    def caching_run(
        queries: Sequence[GroupByQuery], algorithm: str = "gg", cold: bool = True
    ):
        """Wrapped Database.run_queries serving hits from the cache."""
        cache.sync(db.data_version)
        hits: Dict[int, QueryResult] = {}
        misses: List[GroupByQuery] = []
        for query in queries:
            cached = cache.get(query)
            if cached is None:
                misses.append(query)
            else:
                hits[query.qid] = cached
        if misses:
            report = original_run(misses, algorithm=algorithm, cold=cold)
            # A partially-failed execution (fault-isolated class failures)
            # must leave no trace in the cache: its surviving results are
            # correct, but retaining them would make a later identical
            # batch silently skip re-executing — and therefore skip
            # re-surfacing the typed error — for the failed queries'
            # batchmates.  Only fully-clean executions are retained.
            if not getattr(report, "failures", None):
                for result in report.results.values():
                    cache.put(result)
        else:
            # Nothing to execute: synthesize an empty report around an
            # empty plan so callers keep a uniform interface.  The wrapper
            # below still reports the *real* batch size and hit count.
            from ..core.executor import ExecutionReport
            from ..core.optimizer.plans import GlobalPlan

            report = ExecutionReport(plan=GlobalPlan(algorithm=algorithm))
        if hits and db.paranoia:
            from ..check.paranoia import recheck_cache_hits

            with db.tracer.span("check.cache", n_hits=len(hits)) as span:
                span.set("n_rechecked", recheck_cache_hits(db, hits))
        return _CachedReport(report, hits, queries)

    def invalidating_append(rows):
        """Wrapped Database.append_rows that reconciles the cache with the
        bumped mutation epoch (i.e. drops it) afterwards."""
        outcome = original_append(rows)
        cache.sync(db.data_version)
        return outcome

    db.run_queries = caching_run
    db.append_rows = invalidating_append
    db.result_cache = cache
    return cache


class _CachedReport:
    """An ExecutionReport wrapper that overlays cache hits onto the
    executed results and reports the *submitted* batch — not just the
    executed remainder (everything else delegates)."""

    def __init__(
        self,
        report,
        hits: Dict[int, QueryResult],
        queries: Sequence[GroupByQuery],
    ):
        self._report = report
        self._hits = hits
        self._queries = list(queries)

    @property
    def results(self) -> Dict[int, QueryResult]:
        """Executed results overlaid with cache hits, keyed by qid."""
        merged = dict(self._report.results)
        merged.update(self._hits)
        return merged

    @property
    def n_queries(self) -> int:
        """Number of *submitted* queries (hits included), unlike the
        underlying plan's count, which covers only the executed misses."""
        return len(self._queries)

    @property
    def n_cache_hits(self) -> int:
        """How many of this batch's queries came from the cache."""
        return len(self._hits)

    def result_for(self, query: GroupByQuery) -> QueryResult:
        """The result of one submitted query, by its qid."""
        if query.qid in self._hits:
            return self._hits[query.qid]
        results = self._report.results
        if query.qid in results:
            return results[query.qid]
        from ..check.errors import PlanCoverageError

        submitted = any(q.qid == query.qid for q in self._queries)
        detail = (
            "the executed plan placed it in no class"
            if submitted
            else "it was not part of this batch"
        )
        raise PlanCoverageError(
            f"no result for {query.display_name()} (qid {query.qid}): "
            f"{detail} (batch qids: {sorted(q.qid for q in self._queries)})"
        )

    def summary(self) -> str:
        """One-line summary reflecting the full batch, hits included."""
        inner = self._report
        return (
            f"{inner.plan.algorithm}: {self.n_queries} queries "
            f"({self.n_cache_hits} from cache, {inner.plan.n_queries} "
            f"executed), {len(inner.class_executions)} class(es), "
            f"sim {inner.sim_ms:.1f} ms "
            f"(io {inner.sim_io_ms:.1f} + cpu {inner.sim_cpu_ms:.1f}), "
            f"wall {inner.wall_s * 1000:.1f} ms"
        )

    def __getattr__(self, name):
        return getattr(self._report, name)
