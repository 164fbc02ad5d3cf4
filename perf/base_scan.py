"""Workload ``base_scan``: the shared operators and storage do the work.

A 100k-row base table (4000 pages, larger than the 2048-page pool) with no
materialized views, so every query runs on ``ABCD``.  One op is one round
of ``Database.run_queries(..., "gg")`` over three shapes:

* ``scan5``  — paper Queries 1,2,3,4,9: one shared hash scan;
* ``probe4`` — four point queries (x8 per round): one shared index join;
* ``all9``   — paper Queries 1..9: one shared hybrid scan.

Planning is a few percent of a round.  This is where operator, kernel and
storage changes must show, and where a planner change must show nothing.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import gen
from harness import Run, Tracing, Verify, count_report, median
from repro.workload import PaperConfig, build_paper_database, paper_queries

NAME = "base_scan"
N_PROBE_SHAPES = 8
#: Join methods gg must pick for each shape, as a set; the run fails when
#: a shape stops exercising the operator it is named for.
EXPECTED_METHODS = {
    "scan5": {"HASH"},
    "probe4": {"INDEX"},
    "all9": {"HASH", "INDEX"},
}


@dataclass
class State:
    db: object
    config: PaperConfig
    #: (shape name, queries) in round order.
    shapes: List[Tuple[str, list]]


def config_for(seed: int) -> PaperConfig:
    return PaperConfig(
        scale=0.05, seed=seed, materialized=(), indexed_tables=("ABCD",)
    )


def _round(state: State, count_into: Optional[Run] = None):
    """One round: ``(wall seconds, {shape: walls}, reports)``.  With
    ``count_into`` the round's exact counters are added to that run."""
    db = state.db
    shape_s: Dict[str, List[float]] = {}
    reports = []
    total = 0.0
    for name, queries in state.shapes:
        before = db.stats.snapshot()
        started = time.perf_counter()
        report = db.run_queries(queries, "gg")
        wall = time.perf_counter() - started
        total += wall
        shape_s.setdefault(name, []).append(wall)
        reports.append(report)
        if count_into is not None:
            count_report(count_into, report, db.stats.delta_since(before))
    return total, shape_s, reports


def _check_shapes(state: State, reports) -> None:
    for (name, _queries), report in zip(state.shapes, reports):
        classes = report.plan.classes
        methods = {p.method.name for c in classes for p in c.plans}
        if len(classes) != 1 or methods != EXPECTED_METHODS[name]:
            raise RuntimeError(
                f"base_scan shape {name!r} no longer exercises "
                f"{sorted(EXPECTED_METHODS[name])} in one class: gg picked "
                f"{[(c.source, [p.method.name for p in c.plans]) for c in classes]}"
            )


def setup(seed: int, smoke: bool) -> State:
    config = config_for(seed)
    db = build_paper_database(config=config)
    paper = paper_queries(db.schema)
    rng = random.Random(seed)
    shapes = [("scan5", [paper[i] for i in (1, 2, 3, 4, 9)])]
    shapes += [
        ("probe4", gen.point_queries(db.schema, rng, 4))
        for _ in range(1 if smoke else N_PROBE_SHAPES)
    ]
    shapes.append(("all9", [paper[i] for i in range(1, 10)]))
    state = State(db=db, config=config, shapes=shapes)
    _total, _shapes, reports = _round(state)  # warm-up
    _check_shapes(state, reports)
    return state


def run(state: State, seconds: float, tracing: Tracing) -> Run:
    out = Run()
    shape_ms: Dict[str, List[float]] = {}
    n_queries = sum(len(queries) for _name, queries in state.shapes)
    out.speed.sample()
    deadline = time.perf_counter() + seconds
    while not out.op_ms or time.perf_counter() < deadline:
        i = len(out.op_ms)
        out.attempted += 1
        with tracing.op(state.db, "round", f"round-{i}"):
            total, shapes, reports = _round(state, None if i else out)
        out.speed.sample()
        out.op_ms.append(total * 1e3)
        out.rates.append(n_queries / total)
        for name, walls in shapes.items():
            shape_ms.setdefault(name, []).extend(w * 1e3 for w in walls)
        answers = [r for report in reports for r in report.results.values()]
        if not out.repeat_ok("round", answers):
            out.failed += 1
    out.exact_ops = 1
    for name, walls in shape_ms.items():
        out.layer[f"shape.{name}_ms_p50"] = median(walls)
    return out


def verify(state: State, run: Run) -> Verify:
    """All nine paper queries and every point query against the oracle."""
    check = Verify()
    _total, _shapes, reports = _round(state)
    for report in reports[1:]:  # scan5 is a subset of all9
        for result in report.results.values():
            check.check(state.db, result)
    return check


def sweep_queries(state: State) -> list:
    """The query set the optimizer-registry sweep plans."""
    return state.shapes[-1][1]
