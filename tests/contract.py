"""The byte contract: every result byte and simulated number of a fixed
sweep, committed as one sha256 per key in ``tests/golden/contract.txt``.

    PYTHONPATH=src python tests/contract.py      # re-record the digest

``tests/test_contract.py`` regenerates the sweep in a fresh interpreter and
demands that its digest equal the committed one, naming the first key that
differs.  A change that means to move a key re-records the digest in the
same commit; the digest's diff is then the list of keys it moved.  The sweep
must run in a fresh interpreter: a query's ``qid`` comes from a per-process
counter, and ``explain_plan`` prints it.

Every case runs with the morsel size forced small, so each aggregator folds
many batches, and records, per query, ``float.hex`` of every result value
*in dict order* (group order is part of the contract), per class the
``IOStats`` and ``OperatorActuals``, and the simulated milliseconds; and
per plan what the planner decided: its signature, ``float.hex`` of every
class estimate, each class's derive steps, the costing count and the
``explain_plan`` text:

* Tests 1-7 x every registry name x SUM / AVG / MIN / MAX / COUNT, each plan
  executed once;
* a seeded dashboard-style batch (predicate-free and sliced group-bys at
  coarse levels, as ``perf/mdx_wide.py`` submits) per re-aggregable
  aggregate under ``dag``, whose classes derive members from shared
  intermediates;
* one maintained view per re-aggregable aggregate after three
  ``append_rows`` batches: the view's rows and the next batch's execution;
* ``recovery/``: Tests 1-7 under ``gg`` through a pre-queued
  ``QueryService`` (no cache, one request per query) with one
  fault armed per site of ``RECOVERY_SITES`` — the first check (``nth=1``,
  retried to success), every check on the first planned class's table
  (retries exhaust, degraded replanning answers) or every check anywhere
  (degraded replanning fails too: quarantine) — recording the served
  results, the ``ServiceStats`` counters, ``sim_ms_total`` and
  ``backoff_ms``, the quarantined qids and the flight recorder's events;
  and, from a fresh metrics registry, every metric name, every counter and
  gauge value and every histogram but the wall-clock ones (histograms
  nothing was observed into are left out of both), and each batch trace
  depth-first as ``[name, sim]`` pairs (the span's simulated-cost delta;
  attributes and wall times left out);
* ``units/``: per plan of the sweep above, per class without derive steps,
  ``class_cost_given`` on a ``CostModel`` priced at each unit basis (one
  ``CostRates`` field 1.0, the others 0.0) as ``float.hex`` — the count of
  each accountable unit the model estimates, field by field;
* ``terms/``: on a fresh ``CostModel`` per batch, every catalog entry x
  every query of Tests 1-7 and of the dashboard batch (per re-aggregable
  aggregate), the ``MemberTerm`` field for field (floats as ``float.hex``)
  and ``find_index``'s ``(index level, lookups)`` per predicate — once on
  the database as the sweep left it, once more after ``analyze()``
  (measured selectivities), which therefore runs last;
* ``pool/``: Tests 1-7 x naive / tplo / gg, cold and warm, on the paper
  database with a 64- and a 700-page pool, and under one armed
  ``storage.page_read`` (``nth``), ``operator.pipeline`` (``nth``) and
  seeded ``storage.page_read`` (``p=0.01``) plan each: the database's
  ``IOStats``, and per pool the run used its hits, misses, size and
  frames in LRU order (``FaultPlan.fired`` for the armed ones);
* ``cli/``: the stdout of ``repro report --tests test4,test5
  --no-figures``, ``report`` and ``select-views --budget 4`` at the
  sweep's scale, each through ``repro.cli.main`` on its own freshly built
  database.

A later section runs on the database that earlier sections appended to
and analyzed, so the first key that differs is the earliest cause.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import random
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy

from repro.bench.history import ABSENT, Difference, describe_differences
from repro.cli import main as cli_main
from repro.engine import database as database_module
from repro.core.explain import explain_plan
from repro.core.optimizer import OPTIMIZERS
from repro.core.optimizer.cost import CostModel
from repro.faults import FaultPlan, InjectionPoint
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.schema.query import Aggregate, DimPredicate, GroupBy, GroupByQuery
from repro.serve import QueryService, RequestQuarantined, ServeConfig
from repro.storage import table as table_module
from repro.storage.buffer import BufferPool
from repro.storage.iostats import CostRates
from repro.workload import PaperConfig, build_paper_database, paper_queries
from repro.workload.paper_queries import ALL_PAPER_TESTS

#: The committed digest.
GOLDEN = Path(__file__).resolve().parent / "golden" / "contract.txt"
SCALE = 0.002
MORSEL_ROWS = 700
SEED = 11
REAGGREGABLE = [Aggregate.SUM, Aggregate.COUNT, Aggregate.MIN, Aggregate.MAX]


#: The fault sites of the ``recovery/`` section.
RECOVERY_SITES = (
    "storage.page_read",
    "storage.scan",
    "index.lookup",
    "operator.pipeline",
    "operator.derive",
)


def dump_result(result) -> dict:
    return {
        "groups": [[list(k), float(v).hex()] for k, v in result.groups.items()]
    }


def dump_plan(db, plan) -> dict:
    return {
        "signature": plan.signature,
        "est_cost_ms": [cls.est_cost_ms.hex() for cls in plan.classes],
        "derives": [
            [
                [step.node_key, sorted(step.qids), step.est_rows.hex()]
                for step in cls.derives
            ]
            for cls in plan.classes
        ],
        "plan_costings": plan.search_stats.plan_costings,
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
                "derives": execution.plan_class.has_derives,
            }
            for execution in report.class_executions
        ],
    }


def unit_bases() -> List[CostRates]:
    """One ``CostRates`` per field: that field 1.0, every other 0.0."""
    names = [f.name for f in dataclasses.fields(CostRates)]
    return [CostRates(**{n: float(n == name) for n in names}) for name in names]


def dump_units(db, plan, bases) -> list:
    """Per class without derive steps, its cost on each unit basis."""
    models = [CostModel.for_database(db, rates=rates) for rates in bases]
    return [
        None
        if cls.derives
        else [
            model.class_cost_given(
                db.catalog.get(cls.source), cls.queries, cls.methods
            ).hex()
            for model in models
        ]
        for cls in plan.classes
    ]


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


def hexed(value):
    """``value`` as JSON with every float written as ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(item) for item in value]
    return value


def observed(metric) -> bool:
    """Anything but a histogram no value was ever observed into."""
    return metric.kind != "histogram" or metric.count > 0


def wall_clock(metric) -> bool:
    """A histogram of wall-clock milliseconds (noisy, so left out)."""
    name = metric.name
    return name == "serve.request_latency_ms" or (
        name.startswith("serve.stage.") and not name.endswith("_sim_ms")
    )


def span_clocks(node: dict) -> list:
    """An exported span tree depth-first as ``[name, sim]`` pairs."""
    pairs = [[node["name"], hexed(node["sim"])]]
    for child in node["children"]:
        pairs.extend(span_clocks(child))
    return pairs


def serve_under_fault(db, batch, point: InjectionPoint) -> dict:
    """One pre-queued service batch (a request per query) with ``point``
    armed; the scheduler drains the queue as one batch and stops.  The
    service runs against a fresh metrics registry, restored afterwards."""
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        service = QueryService(
            db,
            ServeConfig(
                window_ms=1000.0, max_batch_requests=len(batch),
            ),
        )
        futures = [service.submit([query]) for query in batch]
        db.arm_faults(FaultPlan([point]))
        try:
            service.start()
            service.stop(drain=True)
        finally:
            db.disarm_faults()
    finally:
        set_default_registry(previous)
    results, quarantined = [], []
    for query, future in zip(batch, futures):
        try:
            results.append(dump_result(future.result(timeout=60).results[query.qid]))
        except RequestQuarantined as exc:
            quarantined.extend(exc.qids)
    stats = service.stats.snapshot()
    keep = ("kind", "attempt", "n_outstanding", "qid", "error_type", "site", "outcome")
    return {
        "results": results,
        "quarantined": [qid - batch[0].qid for qid in quarantined],
        "stats": {
            f.name: getattr(stats, f.name)
            for f in dataclasses.fields(stats)
            if f.name.startswith("n_")
        },
        "sim_ms_total": stats.sim_ms_total.hex(),
        "backoff_ms": stats.backoff_ms.hex(),
        "recorder": [
            {key: entry[key] for key in keep if key in entry}
            for entry in service.recorder.entries()
        ],
        "metric_names": [
            name for name in registry.names() if observed(registry.get(name))
        ],
        "metrics": {
            metric.name: hexed(metric.dump())
            for metric in registry
            if observed(metric)
            and (metric.kind != "histogram" or not wall_clock(metric))
        },
        "span_clocks": [
            span_clocks(entry["trace"]) if entry["trace"] else None
            for entry in service.recorder.entries()
            if entry["kind"] == "batch"
        ],
    }


def recovery(db, queries) -> dict:
    out = {}
    for test, qids in ALL_PAPER_TESTS.items():
        batch = [queries[q] for q in qids]
        table = db.optimize(batch, "gg").classes[0].source
        for site in RECOVERY_SITES:
            for fault, trigger in (
                ("nth1", {"nth": 1}),
                ("persistent", {"table": table}),
                ("everywhere", {}),
            ):
                point = InjectionPoint(site=site, name=f"{site}/{fault}", **trigger)
                out[f"recovery/{test}/{site}/{fault}"] = serve_under_fault(
                    db, batch, point
                )
    return out


def plain(value):
    """A term field as JSON: floats as ``float.hex``, member sets sorted."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [plain(item) for item in value]
    return getattr(value, "name", value)


def terms(db, batches: dict, state: str) -> dict:
    out = {}
    for label, batch in batches.items():
        model = CostModel.for_database(db)  # qids repeat across aggregates
        for entry in db.catalog.entries():
            rows = []
            for query in batch:
                term = model._term(entry, query)
                row = {
                    f.name: plain(getattr(term, f.name))
                    for f in dataclasses.fields(term)
                }
                row["find_index"] = [
                    None if found is None else [found[0].level, found[1]]
                    for found in (
                        model.find_index(entry, pred) for pred in query.predicates
                    )
                ]
                rows.append(row)
            out[f"terms/{state}/{label}/{entry.name}"] = rows
    return out


#: Pool sizes of the ``pool/`` section: one far smaller than the base
#: table (every scan evicts), one that holds it but not a warm mix.
POOL_PAGES = (64, 700)
POOL_ALGORITHMS = ("naive", "tplo", "gg")
#: One armed case each: a page read mid-morsel, a pipeline check, and a
#: seeded coin on every page read.
POOL_FAULTS = {
    "page_read_nth": ([InjectionPoint(site="storage.page_read", nth=30, name="r")], 0),
    "pipeline_nth": ([InjectionPoint(site="operator.pipeline", nth=30, name="o")], 0),
    "page_read_p": (
        [InjectionPoint(site="storage.page_read", probability=0.01, name="p")],
        SEED,
    ),
}


def pool_state(pool, names: dict) -> list:
    return [
        pool.hits,
        pool.misses,
        len(pool),
        [[names[table_id], page_no] for table_id, page_no in pool._frames],
    ]


def pool_case(db, batch, name: str, cold: bool, pools: list) -> dict:
    """One plan executed on ``db``: the report, the database's clock, and
    every pool the run used (each cold cell's private one, then the
    database's own) — hits, misses, size and frames in LRU order."""
    del pools[:]
    report = db.execute(db.optimize(batch, name), cold=cold)
    names = {entry.table.table_id: entry.name for entry in db.catalog.entries()}
    return {
        "report": dump_report(report, batch),
        "stats": hexed(db.stats.as_dict()),
        "pools": [pool_state(pool, names) for pool in [*pools, db.pool]],
    }


def pool_sweep() -> dict:
    """``pool/``: Tests 1-7 x naive / tplo / gg, cold and warm (the warm
    runs share the database's pool from case to case), at two pool sizes;
    then the armed cases, recording ``FaultPlan.fired``."""
    pools: list = []

    class RecordedPool(BufferPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    def batches(buffer_pages: int):
        config = PaperConfig(scale=SCALE, buffer_pages=buffer_pages)
        db = build_paper_database(config=config)
        queries = paper_queries(db.schema)
        for test, qids in ALL_PAPER_TESTS.items():
            yield db, test, [queries[q] for q in qids]

    database_module.BufferPool = RecordedPool
    out = {}
    try:
        for buffer_pages in POOL_PAGES:
            for db, test, batch in batches(buffer_pages):
                for name in POOL_ALGORITHMS:
                    for cold in (True, False):
                        key = f"pool/{buffer_pages}/{test}/{name}/cold={cold}"
                        out[key] = pool_case(db, batch, name, cold, pools)
        for fault, (points, seed) in POOL_FAULTS.items():
            for db, test, batch in batches(POOL_PAGES[0]):
                plan = FaultPlan(points, seed=seed)
                db.arm_faults(plan)
                try:
                    case = pool_case(db, batch, "gg", True, pools)
                finally:
                    db.disarm_faults()
                case["fired"] = [
                    [event.site, event.point, [list(a) for a in event.attrs]]
                    for event in plan.fired
                ]
                out[f"pool/faults/{fault}/{test}"] = case
    finally:
        database_module.BufferPool = BufferPool
    return out


CLI_COMMANDS = {
    "report-tests": ["report", "--tests", "test4,test5", "--no-figures"],
    "report": ["report"],
    "select-views": ["select-views", "--budget", "4"],
}


def cli() -> dict:
    out = {}
    for name, argv in CLI_COMMANDS.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main([*argv, "--scale", str(SCALE)])
        out[f"cli/{name}"] = {"exit": code, "stdout": stdout.getvalue()}
    return out


def sweep() -> dict:
    """Every section, in order: the dump the digest is taken of.  Run it
    in a fresh interpreter (see the module docstring)."""
    morsel_rows = table_module.MORSEL_ROWS
    table_module.MORSEL_ROWS = MORSEL_ROWS
    try:
        return _sweep()
    finally:
        table_module.MORSEL_ROWS = morsel_rows


def _sweep() -> dict:
    db = build_paper_database(scale=SCALE)
    queries = paper_queries(db.schema)
    out: dict = {}
    bases = unit_bases()
    for test, qids in ALL_PAPER_TESTS.items():
        for aggregate in Aggregate:
            batch = with_aggregate([queries[q] for q in qids], aggregate)
            for name in OPTIMIZERS:
                plan = db.optimize(batch, name)
                out[f"{test}/{aggregate.value}/{name}/plan"] = dump_plan(db, plan)
                out[f"units/{test}/{aggregate.value}/{name}"] = dump_units(
                    db, plan, bases
                )
                key = f"{test}/{aggregate.value}/{name}/serial"
                out[key] = dump_report(db.execute(plan), batch)
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
    out.update(recovery(db, queries))
    pool = sorted({q for qids in ALL_PAPER_TESTS.values() for q in qids})
    batches = {"tests": [queries[q] for q in pool]}
    for aggregate in REAGGREGABLE:
        batches[f"dashboard/{aggregate.value}"] = with_aggregate(dashboard, aggregate)
    out.update(terms(db, batches, "plain"))
    db.analyze()
    out.update(terms(db, batches, "analyzed"))
    out.update(pool_sweep())
    out.update(cli())
    return out


# -- the digest ---------------------------------------------------------------


def header() -> Dict[str, str]:
    """What the digest was taken under: the interpreter, numpy and the
    sweep's two settings."""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scale": str(SCALE),
        "morsel_rows": str(MORSEL_ROWS),
    }


def compact(value) -> str:
    """``value`` as compact JSON, insertion order kept (group order is part
    of the contract)."""
    return json.dumps(value, separators=(",", ":"))


def digest(dump: dict) -> Dict[str, str]:
    """Key -> sha256 of the key's value as :func:`compact` JSON, in sweep
    order."""
    return {
        key: hashlib.sha256(compact(value).encode()).hexdigest()
        for key, value in dump.items()
    }


def render(head: Dict[str, str], hashes: Dict[str, str]) -> str:
    """The digest file: ``# name value`` header lines, then
    ``<sha256>  <key>`` per key."""
    lines = [f"# {name} {value}" for name, value in head.items()]
    lines += [f"{sha}  {key}" for key, sha in hashes.items()]
    return "\n".join(lines) + "\n"


def parse(text: str) -> Tuple[Dict[str, str], Dict[str, str]]:
    """:func:`render`'s inverse: ``(header, hashes)``."""
    head, hashes = {}, {}
    for line in text.splitlines():
        if line.startswith("# "):
            name, value = line[2:].split(" ", 1)
            head[name] = value
        else:
            sha, key = line.split("  ", 1)
            hashes[key] = sha
    return head, hashes


def check(text: str, dump: dict) -> str:
    """Empty when ``dump`` matches the committed digest ``text``; else the
    first differing key, both hashes and the count, the regenerated value
    under that key, and a note when the digest was taken under another
    Python or numpy.  Keys differ in committed order, then the new ones; a
    key only one side has is paired with ``ABSENT``."""
    committed_head, committed = parse(text)
    fresh = digest(dump)
    differences = [
        Difference(key, committed.get(key, ABSENT), fresh.get(key, ABSENT))
        for key in {**committed, **fresh}
        if committed.get(key, ABSENT) != fresh.get(key, ABSENT)
    ]
    if not differences:
        return ""
    key = differences[0].path
    lines = [describe_differences(differences)]
    if key in dump:
        value = dump[key]
        fields = value.items() if isinstance(value, dict) else [("value", value)]
        lines.append(f"regenerated {key}:")
        lines += [f"  {name}: {compact(item)}" for name, item in fields]
    for name, value in header().items():
        if committed_head.get(name) != value:
            lines.append(
                f"the digest was taken under {name} "
                f"{committed_head.get(name, ABSENT)}, this run is {value}"
            )
    lines.append(
        "re-record with `PYTHONPATH=src python tests/contract.py` if the "
        "change is meant"
    )
    return "\n".join(lines)


def main() -> int:
    GOLDEN.write_text(render(header(), digest(sweep())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
