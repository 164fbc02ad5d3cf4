"""Workload ``mdx_wide``: plan search does most of the work.

The paper database with its five materialized views at a scale where
everything fits the buffer pool.  One op is one dashboard refresh: 24
seeded MDX texts through ``QuerySession.add_mdx`` then ``run()``, about 50
distinct component queries planned as one unit by gg over six candidate
tables.  A pool of distinct refreshes is cycled.  This is where a memoized
cost model or a single search core must show, and where a kernel change
should move little.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List

import gen
from harness import Run, Tracing, Verify, count_report
from repro.engine import QuerySession, query_key
from repro.mdx import translate_mdx
from repro.workload import PaperConfig, build_paper_database

NAME = "mdx_wide"
N_REFRESHES = 8
VERIFY_SAMPLE = 64


@dataclass
class State:
    db: object
    config: PaperConfig
    #: The pool of refreshes, each a list of MDX texts.
    refreshes: List[List[str]]


def config_for(seed: int) -> PaperConfig:
    return PaperConfig(scale=0.002, seed=seed)


def _refresh(state: State, texts: List[str]):
    session = QuerySession(state.db, "gg")
    for text in texts:
        session.add_mdx(text)
    return session.run()


def setup(seed: int, smoke: bool) -> State:
    config = config_for(seed)
    db = build_paper_database(config=config)
    refreshes = gen.dashboards(
        db.schema, random.Random(seed), 1 if smoke else N_REFRESHES
    )
    state = State(db=db, config=config, refreshes=refreshes)
    for texts in refreshes:  # warm-up
        _refresh(state, texts)
    return state


def run(state: State, seconds: float, tracing: Tracing) -> Run:
    out = Run()
    db = state.db
    pool = state.refreshes
    out.speed.sample()
    deadline = time.perf_counter() + seconds
    while len(out.op_ms) < len(pool) or time.perf_counter() < deadline:
        i = len(out.op_ms)
        texts = pool[i % len(pool)]
        first = i < len(pool)
        before = db.stats.snapshot()
        out.attempted += 1
        with tracing.op(db, "refresh", f"refresh-{i}"):
            started = time.perf_counter()
            report = _refresh(state, texts)
            wall = time.perf_counter() - started
        out.speed.sample()
        out.op_ms.append(wall * 1e3)
        out.rates.append(report.n_submitted / wall)
        if first:
            count_report(out, report.execution, db.stats.delta_since(before))
            out.add_exact(
                submitted=report.n_submitted, distinct=report.n_distinct
            )
        ordered = [report.results[qid] for qid in sorted(report.results)]
        if not out.repeat_ok(i % len(pool), ordered):
            out.failed += 1
    out.exact_ops = len(pool)
    out.layer["session.dedup_ratio"] = out.exact["submitted"] / out.exact["distinct"]
    return out


def verify(state: State, run: Run) -> Verify:
    """A seeded sample of the submitted component queries against the
    oracle."""
    check = Verify()
    results = []
    for texts in state.refreshes:
        results.extend(_refresh(state, texts).results.values())
    rng = random.Random(len(results))
    for result in rng.sample(results, min(VERIFY_SAMPLE, len(results))):
        check.check(state.db, result)
    return check


def extra_layers(state: State, run: Run, seconds: float) -> Dict[str, float]:
    """The MDX front end on its own: parse + resolve + translate per text
    (about 2 % of a refresh — no workload can show an MDX gain)."""
    texts = [text for refresh in state.refreshes for text in refresh]
    n_queries = 0
    started = time.perf_counter()
    for text in texts:
        n_queries += len(translate_mdx(state.db.schema, text))
    elapsed = time.perf_counter() - started
    return {
        "mdx.translate_ms_per_expr": elapsed * 1e3 / len(texts),
        "mdx.queries_per_expr": n_queries / len(texts),
    }


def sweep_queries(state: State) -> list:
    """The distinct component queries of the first refresh."""
    seen = {}
    for text in state.refreshes[0]:
        for query in translate_mdx(state.db.schema, text):
            seen.setdefault(query_key(query), query)
    return list(seen.values())
