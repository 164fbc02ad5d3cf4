"""Semantic result caching.

Dashboards re-ask the same dimensional queries; a warehouse front end caches
results keyed by the query's *semantics* (target group-by + predicates +
aggregate — the same identity the session deduplicator uses), not its object
identity.

This module is the cache as *data* — a bounded LRU map with an epoch.  When
it is consulted, what is retained and how hits are rechecked under paranoia
is :meth:`Database.run_queries <repro.engine.database.Database.run_queries>`'s
business (``docs/architecture.md`` §"Answering a batch"), and every front
door — ``run_queries``, sessions, the query service — goes through it.

Coherence is epoch-based: every mutation path that can change query answers
funnels through :meth:`Database.notify_mutation` (base loads, ``append_rows``,
and direct calls into :mod:`repro.engine.maintenance`), which bumps
:attr:`Database.data_version` and syncs the attached cache to it — so a stale
answer is never served.  Entries are deep-copied on both insert and serve: a
caller mutating a returned result cannot corrupt the cache, nor the reverse.

Usage::

    cache = attach_cache(db)
    db.run_queries([q], "gg")   # miss: executes, caches
    db.run_queries([q], "gg")   # hit: served from cache, no execution
    db.append_rows(rows)        # invalidates (epoch bump)
    db.result_cache = None      # detach
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

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

    All operations hold an internal lock: the serve scheduler's
    ``db.run_queries`` may run beside client threads' own.
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
        at an older epoch are dropped wholesale.  Called by
        :meth:`Database.notify_mutation` and again before every lookup."""
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
    """Give ``db`` a :class:`ResultCache` (``db.result_cache``), synced to
    its current mutation epoch; :meth:`Database.run_queries
    <repro.engine.database.Database.run_queries>` does the rest.  Detach
    with ``db.result_cache = None``."""
    cache = ResultCache(max_entries=max_entries)
    cache.sync(db.data_version)
    db.result_cache = cache
    return cache
