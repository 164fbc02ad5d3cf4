"""The DAG optimizer's performance gate.

Runs every paper test (Tests 1–7) under both ``gg`` (the strongest
class-granular sharer) and ``dag``, executing each plan cold, and holds
the PR's acceptance bar:

* dag's executed simulated cost is **never worse** than gg's (beyond a
  1% float-noise margin) on any test;
* dag is **strictly cheaper** on at least two tests — the cross-class
  sub-aggregate sharing must actually pay, not just break even.

Part of tier-1; on its own::

    PYTHONPATH=src python -m pytest tests/test_dag_smoke.py -q
"""

from __future__ import annotations

import pytest

from repro.workload.paper_queries import ALL_PAPER_TESTS

#: dag may not be worse than gg by more than this fraction on any test.
NEVER_WORSE_MARGIN = 0.01

#: dag must be strictly cheaper than gg on at least this many tests, by
#: more than the tie margin.
MIN_STRICT_WINS = 2

#: Relative improvement below this is a tie, not a win.
STRICT_WIN_MARGIN = 0.001


@pytest.fixture(scope="module")
def sweep(paper_db, paper_qs):
    """test name -> (gg sim-ms, dag sim-ms), executed cold."""
    outcomes = {}
    for test, ids in ALL_PAPER_TESTS.items():
        batch = [paper_qs[i] for i in ids]
        sims = {}
        for algorithm in ("gg", "dag"):
            plan = paper_db.optimize(batch, algorithm)
            report = paper_db.execute(plan)
            assert not report.failures, (test, algorithm)
            sims[algorithm] = report.sim_ms
        outcomes[test] = (sims["gg"], sims["dag"])
    return outcomes


@pytest.mark.parametrize("test", sorted(ALL_PAPER_TESTS))
def test_dag_never_worse_than_gg(sweep, test):
    gg_ms, dag_ms = sweep[test]
    assert dag_ms <= gg_ms * (1.0 + NEVER_WORSE_MARGIN), (
        f"{test}: dag {dag_ms:.1f} sim-ms vs gg {gg_ms:.1f} sim-ms "
        f"(> {NEVER_WORSE_MARGIN:.0%} worse)"
    )


def test_dag_strictly_beats_gg_on_enough_tests(sweep):
    wins = sorted(
        test
        for test, (gg_ms, dag_ms) in sweep.items()
        if dag_ms < gg_ms * (1.0 - STRICT_WIN_MARGIN)
    )
    assert len(wins) >= MIN_STRICT_WINS, (
        f"dag strictly beats gg only on {wins} "
        f"(need >= {MIN_STRICT_WINS}); sweep: "
        + ", ".join(
            f"{t}: gg {g:.1f} / dag {d:.1f}"
            for t, (g, d) in sorted(sweep.items())
        )
    )


def test_dag_estimates_stay_monotone_under_search(sweep, paper_db,
                                                  paper_qs):
    """The greedy search starts from the GG seed and only accepts strict
    improvements, so the final estimate can never exceed the seed's."""
    for test, ids in ALL_PAPER_TESTS.items():
        batch = [paper_qs[i] for i in ids]
        plan = paper_db.optimize(batch, "dag")
        stats = plan.search_stats.dag
        assert stats.final_est_ms <= stats.initial_est_ms + 1e-9, test
