"""Ablation: does the Section 5.1 cost model track simulated execution?

The optimizers choose plans by estimated cost but Table 2 reports executed
time; the reproduction only holds together if estimate and simulation agree
on *ordering*.  We collect (estimate, simulation) pairs over a grid of
(query, base table, method) plans and require a strong rank correlation.
"""

import pytest
from scipy import stats as scipy_stats

from repro.bench.harness import forced_plan
from repro.bench.reporting import format_table
from repro.core.optimizer import CostModel, JoinMethod


def test_estimate_tracks_simulation(db, qs, report, benchmark):
    model = CostModel(db.schema, db.catalog, db.stats.rates)

    def run():
        pairs = []
        for query_id in (1, 2, 3, 5, 6, 8, 9):
            query = qs[query_id]
            for entry in db.catalog.entries():
                if not query.answerable_from(entry.levels):
                    continue
                for method in (JoinMethod.HASH, JoinMethod.INDEX):
                    plan = forced_plan(entry.name, [query], [method])
                    try:
                        est = model.class_cost(plan.classes[0])
                    except ValueError:
                        continue
                    run_ = db.execute(plan)
                    pairs.append(
                        (query.display_name(), entry.name, method.name,
                         est, run_.sim_ms)
                    )
        return pairs

    pairs = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        format_table(
            ["query", "table", "method", "estimated ms", "simulated ms"],
            pairs,
            title="Ablation — cost-model estimate vs simulated execution",
        )
    )
    estimates = [p[3] for p in pairs]
    simulated = [p[4] for p in pairs]
    rho, _p = scipy_stats.spearmanr(estimates, simulated)
    report(f"Spearman rank correlation: rho = {rho:.3f} over {len(pairs)} plans")
    assert len(pairs) > 20
    assert rho > 0.8
    # Hash estimates are near-exact (same charge formulas); allow the index
    # estimates their clustering approximation.
    for _q, _t, method, est, sim in pairs:
        if method == "HASH":
            assert est == pytest.approx(sim, rel=0.35)
