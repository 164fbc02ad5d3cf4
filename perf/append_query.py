"""Workload ``append_query``: the storage and operator layers used for
writes beside reads.

The paper database with its views at scale 0.05 and a result cache
attached.  One op is one cycle: append 500 generated fact rows
(``Database.append_rows``: base append, index maintenance, a delta merged
into every view, view indexes rebuilt), then run paper Queries 1..9 (the
cache was just invalidated and dirtied pages decode again), then the same
call again (all cache hits).  A read-side gain bought with bigger caches,
a contiguous column store or eager decode shows up here as a cost.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List

import gen
from harness import Run, Tracing, Verify, count_report, digest, median, per
from repro.engine import attach_cache
from repro.workload import PaperConfig, build_paper_database, paper_queries

NAME = "append_query"
ROWS_PER_APPEND = 500
#: Cycles the exact counters cover (the database grows with every cycle,
#: so they must cover the same cycles on every run).
EXACT_CYCLES = 16


@dataclass
class State:
    db: object
    config: PaperConfig
    queries: list
    rng: random.Random
    smoke: bool


def config_for(seed: int) -> PaperConfig:
    return PaperConfig(scale=0.05, seed=seed)


def _cycle(state: State, tracing: Tracing):
    """One cycle: ``(walls of the three calls, miss report, hit report)``."""
    db = state.db
    rows = gen.append_delta(db.schema, state.rng, ROWS_PER_APPEND)
    walls = []
    reports = []
    for name, call in (
        ("maintenance.append", lambda: db.append_rows(rows)),
        ("query.after_append", lambda: db.run_queries(state.queries, "gg")),
        ("query.cached", lambda: db.run_queries(state.queries, "gg")),
    ):
        with tracing.span(name):
            started = time.perf_counter()
            reports.append(call())
            walls.append(time.perf_counter() - started)
    return walls, reports[1], reports[2]


def setup(seed: int, smoke: bool) -> State:
    config = config_for(seed)
    db = build_paper_database(config=config)
    attach_cache(db)
    paper = paper_queries(db.schema)
    state = State(
        db=db,
        config=config,
        queries=[paper[i] for i in range(1, 10)],
        rng=random.Random(seed),
        smoke=smoke,
    )
    _cycle(state, Tracing(enabled=False))  # warm-up
    return state


def run(state: State, seconds: float, tracing: Tracing) -> Run:
    out = Run()
    db = state.db
    cache = db.result_cache.stats
    n_exact = 1 if state.smoke else EXACT_CYCLES
    calls_ms: List[List[float]] = [[], [], []]
    hits0, misses0, invalidations0 = cache.hits, cache.misses, cache.invalidations
    out.speed.sample()
    deadline = time.perf_counter() + seconds
    while len(out.op_ms) < n_exact or time.perf_counter() < deadline:
        i = len(out.op_ms)
        before = db.stats.snapshot()
        out.attempted += 1
        with tracing.op(db, "cycle", f"cycle-{i}"):
            walls, missed, hit = _cycle(state, tracing)
        out.speed.sample()
        out.op_ms.append(sum(walls) * 1e3)
        out.rates.append(2 * len(state.queries) / sum(walls))
        for series, wall in zip(calls_ms, walls):
            series.append(wall * 1e3)
        if i < n_exact:
            count_report(out, missed, db.stats.delta_since(before))
        if i == n_exact - 1:
            lookups = cache.hits - hits0 + cache.misses - misses0
            out.layer["result_cache.hit_rate"] = per(cache.hits - hits0, lookups)
            out.layer["result_cache.invalidations"] = (
                cache.invalidations - invalidations0
            )
        # The cached answers must be the ones just computed.
        computed, cached = (
            digest(report.result_for(q) for q in state.queries)
            for report in (missed, hit)
        )
        if computed != cached:
            out.failed += 1
    out.exact_ops = n_exact
    out.layer["maintenance.append_ms_p50"] = median(calls_ms[0])
    out.layer["query.after_append_ms_p50"] = median(calls_ms[1])
    out.layer["query.cached_ms_p50"] = median(calls_ms[2])
    out.layer["maintenance.append_rows_per_s"] = per(
        ROWS_PER_APPEND * len(calls_ms[0]), sum(calls_ms[0]) / 1e3
    )
    return out


def verify(state: State, run: Run) -> Verify:
    """Queries 1..9 as the cache now holds them — computed after the last
    append from incrementally maintained views — against the oracle's
    scan of the grown base table."""
    check = Verify()
    report = state.db.run_queries(state.queries, "gg")
    for query in state.queries:
        check.check(state.db, report.result_for(query))
    return check


def sweep_queries(state: State) -> list:
    """The query set the optimizer-registry sweep plans."""
    return state.queries
