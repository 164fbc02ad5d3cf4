"""Tests 4–7 / Table 2: the three optimization algorithms vs. the optimal
global plan.

For each of the paper's four MDX expressions we run TPLO, ETPLG, GG, and the
exact optimal planner (plus the no-sharing naive baseline), execute
every global plan, and verify the paper's qualitative outcomes:

* Test 4 (Q1,Q2,Q3): ETPLG cannot move Q2 into Q1's class (incompatible
  base tables), GG rebases onto a common table — GG ≈ optimal, far below
  TPLO.
* Test 5 (Q2,Q3,Q5): same mechanism; GG folds the selective Q5 into the
  shared hash class.
* Test 6 (Q6,Q7,Q8): all queries very selective — every algorithm lands on
  the same shared index plan; "the different global plans perform about the
  same".
* Test 7 (Q1,Q7,Q9): the merging algorithms match the optimal plan; the
  non-sharing baseline is the worst.
"""

import pytest

from repro.bench.harness import AlgorithmRow, run_algorithm_comparison
from repro.bench.reporting import format_table
from repro.workload.paper_queries import PAPER_TESTS

ALGORITHMS = ("naive", "tplo", "etplg", "gg", "optimal")

#: Paper Table 2 execution times in seconds (garbled cells reconstructed
#: from the prose; shown for shape comparison only).
PAPER_TABLE2_S = {
    "test4": {"tplo": 30.87, "etplg": 30.87, "gg": 19.23, "optimal": 19.26},
    "test5": {"tplo": 17.80, "etplg": 17.80, "gg": 15.34, "optimal": 15.37},
    "test6": {"tplo": None, "etplg": None, "gg": None, "optimal": None},
    "test7": {"tplo": None, "etplg": None, "gg": None, "optimal": None},
}


def run_one(db, qs, report, benchmark, test_name):
    queries = [qs[i] for i in PAPER_TESTS[test_name]]
    rows = benchmark.pedantic(
        lambda: run_algorithm_comparison(db, queries, ALGORITHMS),
        rounds=1,
        iterations=1,
    )
    paper = PAPER_TABLE2_S[test_name]
    report(
        format_table(
            [*AlgorithmRow.HEADERS, "paper (s)"],
            [(*r.cells(), paper.get(r.algorithm) or "-") for r in rows],
            title=f"Table 2 — {test_name} "
            f"(Queries {PAPER_TESTS[test_name]})",
        )
    )
    return {r.algorithm: r for r in rows}


def test_test4(db, qs, report, benchmark):
    rows = run_one(db, qs, report, benchmark, "test4")
    # GG finds the shared base table; TPLO/ETPLG stay split.
    assert rows["gg"].sim_ms < 0.7 * rows["tplo"].sim_ms
    assert rows["gg"].sim_ms == pytest.approx(rows["optimal"].sim_ms, rel=0.1)
    assert rows["gg"].n_classes < rows["tplo"].n_classes
    assert rows["etplg"].sim_ms <= rows["tplo"].sim_ms + 1e-6


def test_test5(db, qs, report, benchmark):
    rows = run_one(db, qs, report, benchmark, "test5")
    assert rows["gg"].sim_ms < 0.7 * rows["tplo"].sim_ms
    assert rows["gg"].sim_ms == pytest.approx(rows["optimal"].sim_ms, rel=0.1)
    # GG consolidates everything onto one shared hash class (the paper's GG
    # switches Q5's index plan to a shared hash plan).
    assert rows["gg"].n_classes == 1
    assert "H" in rows["gg"].plan


def test_test6(db, qs, report, benchmark):
    rows = run_one(db, qs, report, benchmark, "test6")
    sims = [rows[a].sim_ms for a in ("tplo", "etplg", "gg", "optimal")]
    # "The different global plans perform about the same for this situation."
    assert max(sims) < min(sims) * 1.15
    # All algorithms land on index plans over the same base table.
    for algorithm in ("tplo", "etplg", "gg", "optimal"):
        assert "I" in rows[algorithm].plan
        assert "A'B'C'D" in rows[algorithm].plan


def test_test7(db, qs, report, benchmark):
    rows = run_one(db, qs, report, benchmark, "test7")
    # The merging algorithms find the optimal plan.
    assert rows["etplg"].sim_ms == pytest.approx(
        rows["optimal"].sim_ms, rel=0.15
    )
    assert rows["gg"].sim_ms == pytest.approx(rows["optimal"].sim_ms, rel=0.15)
    # The plan that shares nothing pays the most (the paper attributes this
    # role to TPLO; with our materialized-view sizes TPLO finds the same
    # merge, and the naive baseline takes the worst spot — see
    # EXPERIMENTS.md).
    assert rows["naive"].sim_ms == max(r.sim_ms for r in rows.values())
    assert rows["gg"].sim_ms < 0.65 * rows["naive"].sim_ms
