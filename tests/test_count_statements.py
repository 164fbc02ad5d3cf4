"""Estimate == charged, counter by counter, wherever a count does not
depend on the data.

Each operator phase's data-independent counts are stated once — the
structure builds (``build_counts``), a join index's ``lookup_counts``, the
bitmap merges (``merge_counts``), the routing (``routing_counts``), the
scan filter (``filter_counts``) and the pipeline (``pipeline_counts``) —
and both the operator that charges them and the cost model that estimates
them read that statement.  So on every class of Tests 1–7 under every
registry name, and on a batch over B-tree join indexes, the estimate
(``CostModel.class_units``) equals the class's charged counters exactly
on every counter its operator kind charges only through such statements.

The rest is what the estimator still predicts from its data model
(ROADMAP item 14), listed in :data:`LEFT_TO_THE_DATA`.  Two of those parts
are zero on these databases and so sit inside the checked counters: every
looked-up member is present in its index (the OR of the found members is
the OR of all), and every B-tree member's RID list fits its first leaf
page (no leaf run beyond the descent).

The paper databases store no dimension tables; a database that does reads
each one once per class, in the estimate as in the charge, however many
structures the class builds on it and whatever the scan evicted first.
"""

import random

import pytest

from helpers import make_tiny_db, make_tiny_schema, random_query
from repro.core.executor import run_class_accounted
from repro.core.optimizer import OPTIMIZERS
from repro.core.optimizer.cost import CostModel
from repro.core.optimizer.plans import DeriveStep, JoinMethod, LocalPlan, PlanClass
from repro.engine.database import Database
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery
from repro.storage.iostats import Counts
from repro.workload.generator import generate_fact_rows
from repro.workload.paper_queries import ALL_PAPER_TESTS, paper_queries
from repro.workload.paper_schema import PaperConfig, build_paper_database

SCALE = 0.002

#: Per counter, the count an estimate still takes from its data model.
LEFT_TO_THE_DATA = {
    "rand_page_reads": "an index probe's distinct pages (Cardenas over the "
    "candidate region)",
    "bitmap_tests": "a shared index probe's routed rows (the union's popcount)",
    "hash_probes": "the rows an index member's bitmap or an intermediate feeds",
    "predicate_evals": "the rows an index member's bitmap or an intermediate "
    "feeds",
    "tuple_copies": "the rows passing the predicates (selectivity)",
    "agg_updates": "the rows passing the predicates (selectivity)",
    "seq_page_reads": "a B-tree member's leaf run beyond its first page",
    "bitmap_word_ops": "the members absent from an index",
}

#: Per operator kind, the counters it charges only through statements.
STATED_ONCE = {
    "shared_scan_hash": (
        "seq_page_reads", "rand_page_reads", "page_writes", "hash_builds",
        "hash_probes", "bitmap_word_ops", "bitmap_tests", "index_lookups",
        "predicate_evals",
    ),
    "shared_hybrid": (
        "seq_page_reads", "rand_page_reads", "page_writes", "hash_builds",
        "bitmap_word_ops", "bitmap_tests", "index_lookups",
    ),
    "shared_dag": (
        "seq_page_reads", "rand_page_reads", "page_writes", "hash_builds",
        "bitmap_word_ops", "bitmap_tests", "index_lookups",
    ),
    "index_star": (
        "seq_page_reads", "page_writes", "hash_builds", "bitmap_word_ops",
        "bitmap_tests", "index_lookups",
    ),
    "shared_index": (
        "seq_page_reads", "page_writes", "hash_builds", "bitmap_word_ops",
        "index_lookups",
    ),
}


@pytest.fixture(scope="module")
def paper_db():
    return build_paper_database(config=PaperConfig(scale=SCALE))


@pytest.fixture(scope="module")
def btree_db():
    """The B-tree ablation's database: no bitmap indexes, B-tree join
    indexes on A, B and C of ABCD and A'B'C'D."""
    db = build_paper_database(config=PaperConfig(scale=SCALE, indexed_tables=()))
    for table in ("ABCD", "A'B'C'D"):
        db.index_all_dimensions(table, dim_names=("A", "B", "C"), kind="btree")
    return db


def misses(db, classes, counters=None):
    """Per class, every stated-once counter (or every one of ``counters``)
    whose estimate differs from the class's cold execution's charge; and
    the operator kinds met."""
    out, kinds = [], set()
    model = CostModel.for_database(db)
    for plan_class in classes:
        ctx = db.ctx(private=True)
        before = ctx.stats.snapshot()
        run_class_accounted(ctx, plan_class)
        charged = ctx.stats.delta_since(before).counts()
        estimated = model.class_units(plan_class)
        kind = plan_class.operator_kind
        kinds.add(kind)
        for counter in counters or STATED_ONCE[kind]:
            est, got = getattr(estimated, counter), getattr(charged, counter)
            if est != got:
                out.append((plan_class.source, kind, counter, est, got))
    return out, kinds


def planned(db, batches, algorithm):
    """Every class of each batch's plan under ``algorithm``."""
    return [
        plan_class
        for queries in batches
        for plan_class in db.optimize(queries, algorithm).classes
    ]


def test_every_counter_is_stated_once_or_left_to_the_data():
    for kind, counters in STATED_ONCE.items():
        left = set(Counts._fields) - set(counters)
        assert left <= set(LEFT_TO_THE_DATA), kind
        assert "page_writes" in counters  # nothing writes


@pytest.mark.parametrize("algorithm", sorted(OPTIMIZERS))
def test_paper_tests_estimate_what_they_charge(paper_db, algorithm):
    qs = paper_queries(paper_db.schema)
    batches = [[qs[i] for i in ids] for ids in ALL_PAPER_TESTS.values()]
    found, kinds = misses(paper_db, planned(paper_db, batches, algorithm))
    assert found == []
    assert {"shared_scan_hash", "index_star"} <= kinds


def test_btree_batch_estimates_what_it_charges(btree_db):
    """Test 2's Queries 5–8 over B-tree indexes — planned under every
    registry name, as one forced shared index join (the ablation's class)
    and each alone as an index join: a descent per member is a random
    read in the estimate as in the lookup, and the RIDs of the found
    members are converted into a bitmap once."""
    qs = paper_queries(btree_db.schema)
    batch = [qs[i] for i in (5, 6, 7, 8)]
    classes = [
        plan_class
        for algorithm in sorted(OPTIMIZERS)
        for plan_class in planned(btree_db, [batch], algorithm)
    ]
    for members in [batch, *([query] for query in batch)]:
        plans = [LocalPlan(q, "A'B'C'D", JoinMethod.INDEX) for q in members]
        classes.append(PlanClass(source="A'B'C'D", plans=plans))
    found, kinds = misses(btree_db, classes)
    assert found == []
    assert {"shared_scan_hash", "index_star", "shared_index"} <= kinds


#: A predicate on X: both members' masks, and the second's rollup map,
#: are structures on X.
ON_X = (DimPredicate(0, 1, frozenset({0})),)


def test_stored_dimension_table_is_read_once_per_class():
    """Two members building three structures on X read X's stored table
    once: a gg class of ``GroupBy((1, 1))`` and ``GroupBy((2, 1))`` both
    filtered on X estimated 71 sequential reads per structure and charged
    65 when the second build hit the pool."""
    db = make_tiny_db(n_rows=300)
    db.store_dimension_tables()
    batch = [GroupByQuery(GroupBy((1, 1)), ON_X), GroupByQuery(GroupBy((2, 1)), ON_X)]
    classes = [
        plan_class
        for algorithm in sorted(OPTIMIZERS)
        for plan_class in planned(db, [batch], algorithm)
    ]
    assert max(len(plan_class.plans) for plan_class in classes) == 2
    found, kinds = misses(db, classes)
    assert found == []
    assert kinds == {"shared_scan_hash"}


def test_derive_step_does_not_reread_an_evicted_dimension_table():
    """A derive step builds after the scan; with a pool of eight frames the
    scan has evicted X's table by then, and the derived member's structures
    on X still read it no second time."""
    schema = make_tiny_schema()
    db = Database(schema, page_size=64, buffer_pages=8)
    db.load_base(generate_fact_rows(schema, 300, seed=3), name="XY")
    db.store_dimension_tables()
    assert db.catalog.get("XY").n_pages > db.pool.capacity_pages
    derived = GroupByQuery(GroupBy((2, 1)), (DimPredicate(0, 2, frozenset({1})),))
    plan_class = PlanClass(
        source="XY",
        plans=[
            LocalPlan(GroupByQuery(GroupBy((1, 1)), ON_X), "XY", JoinMethod.HASH),
            LocalPlan(derived, "XY", JoinMethod.DERIVE),
        ],
        derives=[DeriveStep(GroupByQuery(GroupBy((1, 1))), (derived,))],
    )
    found, kinds = misses(db, [plan_class])
    assert found == []
    assert kinds == {"shared_dag"}


@pytest.fixture(scope="module")
def stored_db():
    """A tiny database with two views and its dimension tables stored."""
    db = make_tiny_db(n_rows=600, materialized=("X'Y", "XY'"))
    db.store_dimension_tables()
    return db


@pytest.mark.parametrize("algorithm", sorted(OPTIMIZERS))
def test_random_batches_over_stored_dimension_tables(stored_db, algorithm):
    """Seeded random batches planned under every registry name, plus each
    batch's predicated members forced onto the indexed base table as one
    shared index join and each alone: every class builds what it is
    estimated to build and reads each stored dimension table it builds on
    once, derive steps included."""
    db = stored_db
    rng = random.Random(50)
    batches = [
        [random_query(db.schema, rng) for _ in range(rng.randint(2, 8))]
        for _ in range(20)
    ]
    classes = planned(db, batches, algorithm)
    for batch in batches:
        indexed = [
            LocalPlan(query, "XY", JoinMethod.INDEX)
            for query in batch
            if query.predicates
        ]
        if indexed:
            classes.append(PlanClass(source="XY", plans=indexed))
            classes += [PlanClass(source="XY", plans=[plan]) for plan in indexed]
    found, kinds = misses(db, classes, ("hash_builds", "seq_page_reads"))
    assert found == []
    assert {"shared_scan_hash", "shared_index", "index_star"} <= kinds
    if algorithm == "dag":
        assert "shared_dag" in kinds
