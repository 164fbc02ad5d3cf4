"""Ablation: the hash-vs-index crossover.

The paper's conclusion hinges on this crossover: "If all queries of an MDX
expression are not selective, the optimizer will choose hash-based star join
… if all the queries are very selective, [it chooses] index-based star
join."  We sweep predicate selectivity on A'B'C'D and measure both join
methods, then check that the cost model's choice agrees with the measured
winner at both extremes.
"""

from repro.bench.harness import forced_plan
from repro.bench.reporting import format_table
from repro.core.optimizer import CostModel, JoinMethod
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery


def sweep_queries(db):
    """Queries selecting k = 1, 2, 4, 6, 9 of A's nine mid-level members,
    plus the usual D slicer."""
    queries = []
    for k in (1, 2, 4, 6, 9):
        queries.append(
            (
                k,
                GroupByQuery(
                    groupby=GroupBy((1, 2, 2, 1)),
                    predicates=(
                        DimPredicate(0, 1, frozenset(range(k))),
                        DimPredicate(3, 1, frozenset({0})),
                    ),
                    label=f"sel-{k}/9",
                ),
            )
        )
    return queries


def test_selectivity_crossover(db, report, benchmark):
    source = "A'B'C'D"
    model = CostModel(db.schema, db.catalog, db.stats.rates)
    entry = db.catalog.get(source)

    def run():
        rows = []
        for k, query in sweep_queries(db):
            hash_run, index_run = (
                db.execute(forced_plan(source, [query], [method]))
                for method in (JoinMethod.HASH, JoinMethod.INDEX)
            )
            chosen, _cost = model.standalone(entry, query)
            rows.append((k, hash_run.sim_ms, index_run.sim_ms, chosen))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            ["members of A'", "hash sim-ms", "index sim-ms", "model picks"],
            [(k, h, i, m.name) for k, h, i, m in rows],
            title=f"Ablation — hash/index crossover on {source}",
        )
    )
    by_k = {k: (h, i, m) for k, h, i, m in rows}
    # Most selective: index wins and the model knows it.
    h1, i1, m1 = by_k[1]
    assert i1 < h1
    assert m1 is JoinMethod.INDEX
    # Least selective: hash wins and the model knows it.
    h9, i9, m9 = by_k[9]
    assert h9 < i9
    assert m9 is JoinMethod.HASH
    # Hash cost is flat across the sweep (scan-bound); index cost grows.
    hashes = [h for _k, h, _i, _m in rows]
    indexes = [i for _k, _h, i, _m in rows]
    assert max(hashes) < min(hashes) * 1.5
    assert indexes[-1] > indexes[0] * 2
