"""Property-based differential testing: for randomly generated schemas and
workloads, every swept optimization algorithm and the check-package reference
evaluator agree group-for-group.  This is the tentpole's contract stated as
a property — sharing changes cost, never answers."""

import random

import pytest

from repro.check import first_divergence, reference_answer
from repro.engine.database import Database
from repro.schema.dimension import Dimension
from repro.schema.star import StarSchema
from repro.workload.generator import generate_fact_rows

from helpers import assert_morsel_size_invariant, random_query

ALGORITHMS = ("naive", "tplo", "etplg", "gg", "dag")


def random_database(seed: int, n_rows=None) -> Database:
    """A random star schema (2–3 dims, random fanouts), random fact data
    seeded through repro.workload.generator, random views and indexes.
    ``n_rows`` overrides the random base-table row count."""
    rng = random.Random(seed)
    dimensions = []
    for d in range(rng.randint(2, 3)):
        name = "DEF"[d]
        dimensions.append(
            Dimension.build_uniform(
                name,
                (name, name + "'", name + "''"),
                n_top=rng.randint(2, 3),
                fanouts=(rng.randint(2, 3), rng.randint(2, 4)),
            )
        )
    schema = StarSchema(f"rand-{seed}", dimensions, measure="m")
    db = Database(schema, page_size=64, buffer_pages=256, paranoia=False)
    random_rows = rng.randint(150, 400)  # drawn even when overridden
    rows = generate_fact_rows(
        schema, random_rows if n_rows is None else n_rows, seed=seed
    )
    base_name = "".join(dim.name for dim in schema.dimensions)
    db.load_base(rows, name=base_name)
    # Materialize a random non-base lattice point or two (SUM views).
    for _ in range(rng.randint(0, 2)):
        levels = tuple(
            rng.randint(0, dim.all_level) for dim in schema.dimensions
        )
        if all(lv == 0 for lv in levels):
            continue
        name = schema.groupby_name(levels)
        if name in db.catalog:
            continue
        db.materialize(levels)
    db.index_all_dimensions(base_name)
    return db


#: (database seed, workload seed, batch size).  The last six are the
#: workloads of the retired kernel/tuple parity file, kept as inputs.
WORKLOADS = [
    pytest.param(seed, 1000 + seed, 5, id=str(seed)) for seed in range(8)
] + [
    pytest.param(seed, 500 + seed, 4, id=f"{seed}-w{500 + seed}")
    for seed in range(6)
]


@pytest.mark.parametrize("seed, workload_seed, n_queries", WORKLOADS)
def test_all_algorithms_agree_with_reference(seed, workload_seed, n_queries):
    db = random_database(seed)
    rng = random.Random(workload_seed)
    batch = [
        random_query(db.schema, rng, label=f"W{i}") for i in range(n_queries)
    ]
    truth = {q.qid: reference_answer(db, q) for q in batch}
    for algorithm in ALGORITHMS:
        report = db.run_queries(batch, algorithm)
        for query in batch:
            result = report.result_for(query)
            divergence = first_divergence(
                truth[query.qid].groups, result.groups
            )
            assert divergence is None, (
                f"seed {seed}, {algorithm}, {query.display_name()}: "
                f"{divergence.describe()}"
            )


def base_table(db):
    return db.catalog.get(
        "".join(dim.name for dim in db.schema.dimensions)
    ).table


def check_morsel_size_invariance(db, batch, monkeypatch, context):
    plans = [
        (f"{context}, {algorithm}", db.optimize(batch, algorithm))
        for algorithm in ("gg", "dag")
    ]
    assert_morsel_size_invariant(
        db, plans, monkeypatch, pages_rows=3 * base_table(db).capacity
    )


@pytest.mark.parametrize("seed, workload_seed, n_queries", WORKLOADS)
def test_morsel_size_invariance(seed, workload_seed, n_queries, monkeypatch):
    db = random_database(seed)
    rng = random.Random(workload_seed)
    batch = [
        random_query(db.schema, rng, label=f"W{i}") for i in range(n_queries)
    ]
    check_morsel_size_invariance(db, batch, monkeypatch, f"seed {seed}")


@pytest.mark.parametrize(
    "n_rows",
    [
        pytest.param(0, id="empty table"),
        pytest.param(3, id="one-page table"),
        pytest.param(61, id="partial last page"),
        pytest.param(60, id="full last page"),
    ],
)
def test_morsel_size_invariance_at_table_edges(n_rows, monkeypatch):
    db = random_database(3, n_rows=n_rows)
    table = base_table(db)
    assert table.n_rows == n_rows
    assert table.n_pages == -(-n_rows // table.capacity)
    rng = random.Random(1003)
    batch = [random_query(db.schema, rng, label=f"E{i}") for i in range(5)]
    check_morsel_size_invariance(db, batch, monkeypatch, f"{n_rows} rows")


@pytest.mark.parametrize("seed", range(4))
def test_agreement_survives_maintenance(seed):
    """Appending rows (incremental view/index maintenance) must preserve
    the agreement — views, indexes, and the reference see the same data."""
    db = random_database(100 + seed)
    rng = random.Random(2000 + seed)
    batch = [random_query(db.schema, rng, label=f"M{i}") for i in range(3)]
    extra = generate_fact_rows(db.schema, 60, seed=3000 + seed)
    db.append_rows(extra)
    for algorithm in ALGORITHMS:
        report = db.run_queries(batch, algorithm)
        for query in batch:
            divergence = first_divergence(
                reference_answer(db, query).groups,
                report.result_for(query).groups,
            )
            assert divergence is None, (
                f"seed {seed}, {algorithm}, {query.display_name()}: "
                f"{divergence.describe()}"
            )
