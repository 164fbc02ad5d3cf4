"""Integration tests reproducing the paper's qualitative claims at test
scale.  The benchmark suite regenerates the full tables/figures; these tests
pin the *shapes* so regressions are caught by `pytest tests/`."""

import pytest

from repro.bench.harness import run_algorithm_comparison, run_figure
from repro.check import evaluate_reference


@pytest.fixture(scope="module")
def db(paper_db):
    return paper_db


class TestSharedOperators:
    def test_fig10_shared_scan_beats_separate(self, db):
        rows = run_figure(db, "fig10_shared_scan")
        # Separate execution grows roughly linearly; shared stays near flat.
        assert rows[0].separate_ms == pytest.approx(rows[0].shared_ms)
        for row in rows[1:]:
            assert row.shared_ms < row.separate_ms
        assert rows[3].speedup > 2.0
        # The shared scan's I/O does not grow with the number of queries.
        assert rows[3].shared_io_ms == pytest.approx(
            rows[0].shared_io_ms, rel=0.01
        )

    def test_fig11_shared_index_never_worse(self, db):
        rows = run_figure(db, "fig11_shared_index")
        for row in rows:
            assert row.shared_ms <= row.separate_ms + 1e-6
        assert rows[-1].shared_ms < rows[-1].separate_ms
        # "More than 80% of the shared index star join time is spent on
        # probing the base table."
        assert rows[-1].shared_io_ms / rows[-1].shared_ms > 0.8

    def test_fig12_index_queries_ride_the_scan(self, db):
        rows = run_figure(db, "fig12_hybrid")
        assert rows[-1].shared_ms < rows[-1].separate_ms
        # Adding one index query to the shared scan costs far less than
        # running it separately.
        shared_increments = [
            rows[i + 1].shared_ms - rows[i].shared_ms
            for i in range(len(rows) - 1)
        ]
        separate_increments = [
            rows[i + 1].separate_ms - rows[i].separate_ms
            for i in range(len(rows) - 1)
        ]
        for shared_inc, separate_inc in zip(
            shared_increments, separate_increments
        ):
            assert shared_inc < separate_inc


class TestAlgorithmComparison:
    @pytest.mark.parametrize("ids", [(1, 2, 3), (2, 3, 5), (6, 7, 8), (1, 7, 9)])
    def test_orderings(self, db, paper_qs, ids):
        rows = run_algorithm_comparison(
            db, [paper_qs[i] for i in ids],
            algorithms=("naive", "tplo", "etplg", "gg", "optimal"),
        )
        sim = {row.algorithm: row.sim_ms for row in rows}
        est = {row.algorithm: row.est_ms for row in rows}
        # Model-estimated ordering: optimal <= gg <= etplg; etplg near-or-
        # below naive (a shared index class pays a small routing-CPU term
        # the separate plans do not, so allow a sliver of slack there).
        assert est["optimal"] <= est["gg"] + 1e-6
        assert est["gg"] <= est["etplg"] + 1e-6
        assert est["etplg"] <= est["naive"] * 1.05
        # Every algorithm beats (or ties) the naive baseline in simulation.
        for algorithm in ("tplo", "etplg", "gg", "optimal"):
            assert sim[algorithm] <= sim["naive"] * 1.05

    def test_test4_gg_substantially_better(self, db, paper_qs):
        rows = run_algorithm_comparison(
            db, [paper_qs[i] for i in (1, 2, 3)]
        )
        sim = {row.algorithm: row.sim_ms for row in rows}
        assert sim["gg"] < 0.7 * sim["tplo"]  # the paper's headline gap
        assert sim["gg"] == pytest.approx(sim["optimal"], rel=0.1)

    def test_test5_gg_prefers_shared_hash(self, db, paper_qs):
        rows = run_algorithm_comparison(db, [paper_qs[i] for i in (2, 3, 5)])
        gg = next(r for r in rows if r.algorithm == "gg")
        assert gg.n_classes == 1
        assert "H" in gg.plan

    def test_test6_all_algorithms_tie(self, db, paper_qs):
        rows = run_algorithm_comparison(db, [paper_qs[i] for i in (6, 7, 8)])
        sims = [row.sim_ms for row in rows]
        assert max(sims) < min(sims) * 1.25

    def test_test7_merging_algorithms_match_optimal(self, db, paper_qs):
        rows = run_algorithm_comparison(db, [paper_qs[i] for i in (1, 7, 9)])
        sim = {row.algorithm: row.sim_ms for row in rows}
        assert sim["etplg"] == pytest.approx(sim["optimal"], rel=0.15)
        assert sim["gg"] == pytest.approx(sim["optimal"], rel=0.15)


class TestCorrectnessAcrossPlans:
    def test_all_algorithms_match_brute_force(self, db, paper_qs):
        base = db.catalog.get("ABCD")
        queries = [paper_qs[i] for i in (1, 5, 7)]
        report = db.run_queries(queries, "gg")
        for query in queries:
            expected = evaluate_reference(
                db.schema, base.table.all_rows(), query, base.levels
            )
            assert report.result_for(query).groups == expected.groups

    def test_mdx_route_equals_programmatic_route(self, db, paper_qs):
        from repro.workload.paper_queries import PAPER_MDX

        report_prog = db.run_queries([paper_qs[3]], "gg")
        report_mdx = db.run_mdx(PAPER_MDX[3], "gg")
        prog = next(iter(report_prog.results.values()))
        mdx = next(iter(report_mdx.results.values()))
        assert set(prog.groups) == set(mdx.groups)
        for key, value in prog.groups.items():
            assert mdx.groups[key] == pytest.approx(value)
