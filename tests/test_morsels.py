"""Morsel-granular execution: pages are the unit of accounting, morsels
the unit of compute (DESIGN.md §6.1).

Three things are pinned here, none of them by timing anything:

* **size invariance** — whatever ``MORSEL_ROWS`` is, every integer ledger
  and every result value is bit-equal, and equal to the reference
  evaluator's;
* **granularity** — a scan accounts per page, probes and charges per
  morsel and folds per scan: a morsel's pages (and a probe set's) are
  accounted in one pool call, a morsel is probed once per dimension for the
  whole class, and each member's pipeline runs once for the whole scan (a
  slide back to per-page, per-member or per-morsel work fails here);
* **faults mid-morsel** — the fault log, the failure, the failed class's
  I/O ledger and the pool are those of page-at-a-time execution; only the
  failed class's CPU ledger may be smaller.
"""

import math
import random

import numpy as np
import pytest

from repro.core.executor import execute_plan
from repro.core.operators.hash_join import SharedScanStarJoin
from repro.core.operators.index_join import SharedIndexStarJoin
from repro.core.operators.pipeline import QueryPipeline, SharedProbe
from repro.core.optimizer.plans import (
    GlobalPlan,
    JoinMethod,
    LocalPlan,
    PlanClass,
)
from repro.faults import FaultPlan, InjectedFault, InjectionPoint
from repro.obs.metrics import default_registry
from repro.storage import table as table_module
from repro.storage.buffer import BufferPool
from repro.workload.paper_queries import ALL_PAPER_TESTS

from helpers import assert_morsel_size_invariant, random_query

#: Every paper table holds 25 rows per page.
ROWS_PER_PAGE = 25
ONE_PAGE = 1
DEFAULT = table_module.MORSEL_ROWS

IO_FIELDS = ("seq_page_reads", "rand_page_reads", "page_writes", "buffer_hits")
CPU_FIELDS = (
    "hash_builds",
    "hash_probes",
    "tuple_copies",
    "agg_updates",
    "bitmap_word_ops",
    "bitmap_tests",
    "index_lookups",
    "predicate_evals",
)


def set_morsel_rows(monkeypatch, rows):
    monkeypatch.setattr(table_module, "MORSEL_ROWS", rows)


def forced_plan(qs) -> GlobalPlan:
    """Test 3's forced hybrid class (one hash member, three index members
    sharing a scan of A'B'C'D) plus a sibling hash class on another view —
    gg picks no hybrid class at test scale, so it is forced."""

    def plan_class(source, members):
        return PlanClass(
            source=source,
            plans=[
                LocalPlan(query=qs[i], source=source, method=method)
                for i, method in members
            ],
        )

    index = JoinMethod.INDEX
    return GlobalPlan(
        algorithm="forced",
        classes=[
            plan_class(
                "A'B'C'D",
                [(3, JoinMethod.HASH), (5, index), (6, index), (7, index)],
            ),
            plan_class("A'B'C''D", [(1, JoinMethod.HASH), (2, JoinMethod.HASH)]),
        ],
    )


# -- size invariance ----------------------------------------------------------


def test_morsel_size_invariance(paper_db, paper_qs, monkeypatch):
    plans = [
        (
            f"{test_name}/{algorithm}",
            paper_db.optimize([paper_qs[i] for i in ids], algorithm),
        )
        for test_name, ids in sorted(ALL_PAPER_TESTS.items())
        for algorithm in ("gg", "dag")
    ]
    plans.append(("forced hybrid", forced_plan(paper_qs)))
    assert_morsel_size_invariant(
        paper_db, plans, monkeypatch, pages_rows=3 * ROWS_PER_PAGE
    )


# -- granularity ---------------------------------------------------------------


@pytest.mark.parametrize(
    "rows", [3 * ROWS_PER_PAGE, DEFAULT], ids=["3 pages", "default"]
)
def test_compute_is_per_morsel_not_per_page(
    paper_db, paper_qs, monkeypatch, rows
):
    """N pages, H hash and I index members: ceil(N / morsel pages) morsels
    and ``read_pages`` calls, and H + I folds — one ``process_batch`` per
    member for the whole scan."""
    plan = GlobalPlan("forced", forced_plan(paper_qs).classes[:1])
    plan_class = plan.classes[0]
    set_morsel_rows(monkeypatch, rows)
    table = paper_db.catalog.get(plan_class.source).table
    morsel_pages = max(1, rows // table.capacity)
    expected = math.ceil(table.n_pages / morsel_pages)
    assert 1 < expected < table.n_pages  # neither degenerate case

    calls = {}
    process_batch = QueryPipeline.process_batch

    def counting(self, keys, measures, survivors=None, fed=None):
        fed_rows = measures.size if fed is None else fed
        calls.setdefault(self.query.qid, []).append(fed_rows)
        return process_batch(self, keys, measures, survivors, fed)

    reads = []
    read_pages = BufferPool.read_pages

    def recording(self, table, page_nos, **kwargs):
        reads.append(table.name)
        read_pages(self, table, page_nos, **kwargs)

    monkeypatch.setattr(QueryPipeline, "process_batch", counting)
    monkeypatch.setattr(BufferPool, "read_pages", recording)
    counter = default_registry().counter("executor.morsels")
    before = counter.value
    with paper_db.trace():
        report = execute_plan(paper_db, plan)
    assert not report.failures
    assert counter.value - before == expected
    assert reads.count(plan_class.source) == expected
    span = paper_db.last_trace.find("operator.shared_hybrid")
    assert span.attrs["actuals"]["morsels"] == expected
    for local in plan_class.plans:
        # One fold, charged by the class per morsel: the hash member's
        # batch is every scanned row, an index member's the rows routed.
        (n_rows,) = calls[local.query.qid]
        assert n_rows <= table.n_rows
        if local.method is JoinMethod.HASH:
            assert n_rows == table.n_rows


def test_reads_are_accounted_per_morsel_and_per_probe_set(
    paper_db, paper_qs, monkeypatch
):
    """A scan of N pages makes ceil(N / morsel pages) ``read_pages`` calls —
    each of one morsel's pages, in order — and a probe set makes one."""
    reads = []
    read_pages = BufferPool.read_pages

    def recording(self, table, page_nos, *, sequential, after_page=None):
        page_nos = list(page_nos)
        reads.append((table.name, sequential, page_nos))
        read_pages(
            self, table, page_nos, sequential=sequential, after_page=after_page
        )

    monkeypatch.setattr(BufferPool, "read_pages", recording)
    table = paper_db.catalog.get("A'B'C'D").table
    morsel_pages = DEFAULT // table.capacity
    report = execute_plan(paper_db, forced_plan(paper_qs))
    assert not report.failures
    scan = [pages for name, _seq, pages in reads if name == "A'B'C'D"]
    assert all(sequential for name, sequential, _p in reads)
    assert len(scan) == math.ceil(table.n_pages / morsel_pages) > 1
    assert [len(pages) for pages in scan[:-1]] == [morsel_pages] * (len(scan) - 1)
    assert [no for pages in scan for no in pages] == list(range(table.n_pages))

    del reads[:]
    queries = [paper_qs[i] for i in (5, 6, 7, 8)]
    before = paper_db.stats.snapshot()
    operator = SharedIndexStarJoin(paper_db.ctx(), "ABCD", queries)
    operator.run()
    ((name, sequential, pages),) = reads
    assert (name, sequential) == ("ABCD", False)
    assert 1 < len(pages) <= operator.actuals.probes_issued
    delta = paper_db.stats.delta_since(before)
    assert delta.rand_page_reads + delta.buffer_hits == len(pages)


class CountingTable(np.ndarray):
    """A probe table that counts the gathers made through it."""

    gathers = 0

    def take(self, indices):
        CountingTable.gathers += 1
        return self.view(np.ndarray).take(indices)


@pytest.mark.parametrize("n_members", [9, 64, 70, 130])
def test_one_gather_per_predicated_dimension_per_64_members(
    paper_db, paper_qs, monkeypatch, n_members
):
    """However many members ride the scan, a morsel is probed once per
    predicated dimension for each 64 of them — not once per member."""
    rng = random.Random(n_members)
    queries = [paper_qs[i] for i in range(1, 10)]
    while len(queries) < n_members:
        query = random_query(paper_db.schema, rng)
        if query.predicates:
            queries.append(query)
    build = SharedProbe.__init__

    def counting_build(self, pipes):
        build(self, pipes)
        self._words = [
            ([(d, table.view(CountingTable)) for d, table in tables], members)
            for tables, members in self._words
        ]

    monkeypatch.setattr(SharedProbe, "__init__", counting_build)
    monkeypatch.setattr(CountingTable, "gathers", 0)
    operator = SharedScanStarJoin(paper_db.ctx(), "ABCD", queries)
    operator.run()
    per_morsel = sum(
        len({p.dim_index for query in queries[first : first + 64] for p in query.predicates})
        for first in range(0, n_members, 64)
    )
    assert operator.actuals.morsels > 1
    assert CountingTable.gathers == operator.actuals.morsels * per_morsel
    assert per_morsel <= paper_db.schema.n_dims * math.ceil(n_members / 64)


# -- faults mid-morsel -----------------------------------------------------------

#: (site, nth) against the hybrid class's table, 629 pages: by default two
#: morsels of 327 and 302 pages, so page 100 and page 400 both land
#: strictly inside one.  ``storage.scan`` is checked once, before page 0.
MID_MORSEL_FAULTS = [
    ("storage.scan", 1),
    ("storage.page_read", 100),
    ("storage.page_read", 400),
    ("operator.pipeline", 100),
    ("operator.pipeline", 400),
]


def run_with_fault(db, plan, site, nth, cold):
    """One armed run on a flushed pool: everything the contract compares."""
    fault = FaultPlan(
        [InjectionPoint(site=site, table="A'B'C'D", nth=nth, name="mid")],
        seed=7,
    )
    db.flush()
    hits, misses = db.pool.hits, db.pool.misses
    db.arm_faults(fault)
    try:
        report = execute_plan(db, plan, cold=cold)
    finally:
        db.disarm_faults()
    (failure,) = report.failures
    assert isinstance(failure.error, InjectedFault)
    return {
        "events": list(fault.fired),
        "error": (failure.error.site, failure.error.attrs, str(failure.error)),
        "failed": report.failed_qids,
        "io": {name: getattr(failure.sim, name) for name in IO_FIELDS},
        "cpu": {name: getattr(failure.sim, name) for name in CPU_FIELDS},
        "pool": (
            db.pool.hits - hits,
            db.pool.misses - misses,
            len(db.pool),
        ),
        "survivors": {
            qid: list(result.groups.items())
            for qid, result in report.results.items()
        },
        "survivor_sims": [e.sim.as_dict() for e in report.class_executions],
    }


@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
@pytest.mark.parametrize("site, nth", MID_MORSEL_FAULTS)
def test_fault_mid_morsel(paper_db, paper_qs, monkeypatch, site, nth, cold):
    plan = forced_plan(paper_qs)
    set_morsel_rows(monkeypatch, ONE_PAGE)
    page_at_a_time = run_with_fault(paper_db, plan, site, nth, cold)
    set_morsel_rows(monkeypatch, DEFAULT)
    outcome = run_with_fault(paper_db, plan, site, nth, cold)
    cpu, reference_cpu = outcome.pop("cpu"), page_at_a_time.pop("cpu")
    survivors = outcome.pop("survivors")
    page_at_a_time.pop("survivors")  # SUM folds differ in the last bits
    assert outcome == page_at_a_time
    assert outcome["events"] and outcome["failed"]
    # CPU work is charged for completed morsels only.
    assert all(cpu[name] <= reference_cpu[name] for name in CPU_FIELDS)
    if nth > 1:
        assert cpu["hash_probes"] < reference_cpu["hash_probes"]
    # Survivors are byte-identical to a fault-free run, and a rerun after
    # disarm is clean.
    paper_db.flush()
    clean = execute_plan(paper_db, plan, cold=cold)
    assert not clean.failures
    assert survivors == {
        qid: list(clean.results[qid].groups.items()) for qid in survivors
    }


def test_an_aborted_scan_counts_the_morsels_it_handed_out(
    paper_db, paper_qs, monkeypatch
):
    """The operator counters are written from the operator's actuals in a
    ``finally``: a class an injected fault aborts still counts the morsels
    it handed out before the fault."""
    plan = GlobalPlan("forced", forced_plan(paper_qs).classes[:1])
    set_morsel_rows(monkeypatch, 3 * ROWS_PER_PAGE)
    counter = default_registry().counter("executor.morsels")
    before = counter.value
    paper_db.arm_faults(
        FaultPlan([InjectionPoint(site="operator.pipeline", nth=7)])
    )
    try:
        report = execute_plan(paper_db, plan)
    finally:
        paper_db.disarm_faults()
    assert isinstance(report.failures[0].error, InjectedFault)
    # Pages 1-6 made two morsels; the check on page 7 aborted the third.
    assert counter.value - before == 2
