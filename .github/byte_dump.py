"""Dump every result byte and simulated number of a fixed sweep, to compare
two trees.

    PYTHONPATH=<tree>/src python3 .github/byte_dump.py OUT.json [--scale S]

A behaviour-neutral change is *shown* neutral by running this file (the
same copy, unmodified) under a ``git clone`` of the parent commit and under
the working tree and comparing the two outputs with ``cmp``
(``.claude/skills/verify/SKILL.md``).  Every case runs with the morsel size
forced small, so each aggregator folds many batches, and records, per
query, ``float.hex`` of every result value and AVG state *in dict order*
(group order is part of the contract), per class the ``IOStats`` and
``OperatorActuals``, and the simulated milliseconds; and per plan what the
planner decided: its signature, ``float.hex`` of every class estimate, each
class's derive steps, the costing count and the ``explain_plan`` text:

* Tests 1-7 x every registry name x SUM / AVG / MIN / MAX / COUNT, each plan
  executed serially, on three workers and over a 3-shard set;
* a seeded dashboard-style batch (predicate-free and sliced group-bys at
  coarse levels, as ``perf/mdx_wide.py`` submits) per re-aggregable
  aggregate under ``dag``, whose classes derive members from shared
  intermediates;
* one maintained view per re-aggregable aggregate after three
  ``append_rows`` batches: the view's rows and the next batch's execution.

It imports only names that exist at the parent of the PR that added it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from typing import List

from repro.core.explain import explain_plan
from repro.core.optimizer import OPTIMIZERS
from repro.schema.query import Aggregate, DimPredicate, GroupBy, GroupByQuery
from repro.storage import table as table_module
from repro.workload import build_paper_database, paper_queries
from repro.workload.paper_queries import ALL_PAPER_TESTS

MORSEL_ROWS = 700
SEED = 11
REAGGREGABLE = [Aggregate.SUM, Aggregate.COUNT, Aggregate.MIN, Aggregate.MAX]


def dump_result(result) -> dict:
    out = {
        "groups": [[list(k), float(v).hex()] for k, v in result.groups.items()]
    }
    if result.avg_state is not None:
        out["avg_state"] = [
            [list(k), float(s).hex(), repr(n)]
            for k, (s, n) in result.avg_state.items()
        ]
    return out


def dump_plan(db, plan) -> dict:
    return {
        "signature": plan.signature,
        "est_cost_ms": [cls.est_cost_ms.hex() for cls in plan.classes],
        "derives": [
            [
                [step.node_key, sorted(step.qids), step.est_rows.hex()]
                for step in getattr(cls, "derives", ())
            ]
            for cls in plan.classes
        ],
        "plan_costings": plan.search_stats["plan_costings"],
        "explain": explain_plan(db, plan),
    }


def dump_report(report, batch) -> dict:
    results = report.results
    return {
        "failures": [repr(failure.error) for failure in report.failures],
        "results": [
            dump_result(results[q.qid]) for q in batch if q.qid in results
        ],
        "classes": [
            {
                "sim": execution.sim.as_dict(),
                "sim_ms": execution.sim_ms.hex(),
                "actuals": execution.actuals.as_dict(),
                "pipeline_cpu_ms": [
                    v.hex() for v in execution.actuals.pipeline_cpu_ms.values()
                ],
                "derives": bool(
                    getattr(execution.plan_class, "has_derives", False)
                ),
            }
            for execution in report.class_executions
        ],
    }


def with_aggregate(batch, aggregate) -> List[GroupByQuery]:
    return [dataclasses.replace(query, aggregate=aggregate) for query in batch]


def dashboard_batch(schema, rng: random.Random, n: int) -> List[GroupByQuery]:
    """Coarse group-bys, half of them sliced on one dimension."""
    batch = []
    for i in range(n):
        levels = tuple(
            rng.randint(1, dim.all_level) for dim in schema.dimensions
        )
        predicates = ()
        if i % 2:
            d = rng.randrange(schema.n_dims)
            dim = schema.dimensions[d]
            level = rng.randint(1, dim.n_levels - 1)
            members = rng.sample(range(dim.n_members(level)), 1)
            predicates = (DimPredicate(d, level, frozenset(members)),)
        batch.append(
            GroupByQuery(GroupBy(levels), predicates, label=f"dash{i}")
        )
    return batch


def append_delta(schema, rng: random.Random, n_rows: int) -> list:
    leaves = [dim.n_members(0) for dim in schema.dimensions]
    return [
        tuple(rng.randrange(n) for n in leaves)
        + (round(rng.uniform(1.0, 100.0), 2),)
        for _ in range(n_rows)
    ]


def sweep(scale: float) -> dict:
    table_module.MORSEL_ROWS = MORSEL_ROWS
    db = build_paper_database(scale=scale)
    queries = paper_queries(db.schema)
    shards = db.build_shards(3)
    out: dict = {"scale": scale, "morsel_rows": MORSEL_ROWS}
    for test, qids in ALL_PAPER_TESTS.items():
        for aggregate in Aggregate:
            batch = with_aggregate([queries[q] for q in qids], aggregate)
            for name in OPTIMIZERS:
                plan = db.optimize(batch, name)
                out[f"{test}/{aggregate.value}/{name}/plan"] = dump_plan(db, plan)
                for mode, options in (
                    ("serial", {}),
                    ("workers3", {"n_workers": 3}),
                    ("shards3", {"shard_set": shards}),
                ):
                    key = f"{test}/{aggregate.value}/{name}/{mode}"
                    out[key] = dump_report(db.execute(plan, **options), batch)
    rng = random.Random(SEED)
    dashboard = dashboard_batch(db.schema, rng, 24)
    for aggregate in REAGGREGABLE:
        batch = with_aggregate(dashboard, aggregate)
        report = db.run_queries(batch, "dag")
        out[f"dashboard/{aggregate.value}"] = dump_report(report, batch)
        out[f"dashboard/{aggregate.value}/plan"] = dump_plan(db, report.plan)
    dims = db.schema.dimensions
    # Fine enough on A and B that every append both updates and adds groups.
    view_levels = (0, 0) + tuple(dim.all_level for dim in dims[2:])
    for aggregate in REAGGREGABLE:
        view = db.materialize(
            view_levels, name=f"maintained[{aggregate.value}]",
            aggregate=aggregate,
        )
        probe = [
            GroupByQuery(
                GroupBy((1, dims[1].all_level) + view_levels[2:]),
                aggregate=aggregate,
                label="over the maintained view",
            )
        ]
        reports = []
        for n_rows in (1, 40, 600):
            reports.append(db.append_rows(append_delta(db.schema, rng, n_rows)))
        keys, measures = view.table.read_columns(db.schema.n_dims)
        out[f"maintained/{aggregate.value}"] = {
            "append_reports": reports,
            "rows": [
                [int(k) for k in key] + [float(m).hex()]
                for *key, m in zip(*keys, measures)
            ],
            "next": dump_report(db.run_queries(probe, "gg"), probe),
        }
    return out


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out")
    parser.add_argument("--scale", type=float, default=0.002)
    args = parser.parse_args(argv)
    with open(args.out, "w") as handle:
        json.dump(sweep(args.scale), handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
