"""Tests for Bounded Global Greedy (the future-work algorithm).  The
degenerate beams (0 = ETPLG, catalog-wide = GG) are swept structurally in
tests/test_optimizers.py::TestRegistrySweep."""

import random

import pytest

from repro.core.optimizer import BGGOptimizer, ETPLGOptimizer, GGOptimizer
from repro.engine.reference import evaluate_reference
from repro.workload.paper_queries import PAPER_TESTS, paper_queries

from helpers import make_tiny_db, random_query


@pytest.fixture(scope="module")
def db():
    return make_tiny_db(
        n_rows=800,
        materialized=("X'Y", "XY'", "X'Y'", "X''Y'"),
        index_tables=("XY", "X'Y"),
    )


class TestDegenerateBeams:
    def test_negative_beam_rejected(self, db):
        with pytest.raises(ValueError):
            BGGOptimizer(db, beam=-1)


class TestQualityAndEffort:
    def test_cost_between_etplg_and_gg(self, db):
        rng = random.Random(23)
        for round_ in range(5):
            queries = [
                random_query(db.schema, rng, label=f"b{round_}.{i}")
                for i in range(3)
            ]
            gg = GGOptimizer(db).optimize(queries).est_cost_ms
            bgg = BGGOptimizer(db, beam=2).optimize(queries).est_cost_ms
            etplg = ETPLGOptimizer(db).optimize(queries).est_cost_ms
            assert gg <= bgg + 1e-6
            assert bgg <= etplg + 1e-6

    def test_search_effort_between(self, db):
        rng = random.Random(29)
        queries = [random_query(db.schema, rng, label=f"e{i}") for i in range(4)]
        etplg = ETPLGOptimizer(db)
        etplg.optimize(queries)
        bgg = BGGOptimizer(db, beam=2)
        bgg.optimize(queries)
        gg = GGOptimizer(db)
        gg.optimize(queries)
        assert (
            etplg.model.n_plan_costings
            <= bgg.model.n_plan_costings
            <= gg.model.n_plan_costings
        )

    def test_correct_answers(self, db):
        rng = random.Random(31)
        queries = [random_query(db.schema, rng, label=f"c{i}") for i in range(3)]
        report = db.run_queries(queries, "bgg")
        base = db.catalog.get("XY")
        for query in queries:
            expected = evaluate_reference(
                db.schema, base.table.all_rows(), query, base.levels
            )
            assert report.result_for(query).approx_equals(expected)


class TestOnPaperWorkloads:
    def test_matches_gg_quality_on_paper_tests(self, paper_db, paper_qs):
        """On the paper's four workloads, beam-2 BGG finds GG's plans."""
        for ids in PAPER_TESTS.values():
            queries = [paper_qs[i] for i in ids]
            gg = paper_db.optimize(queries, "gg")
            bgg = paper_db.optimize(queries, "bgg")
            assert bgg.est_cost_ms == pytest.approx(
                gg.est_cost_ms, rel=0.01
            ), ids
            assert (
                bgg.search_stats["plan_costings"]
                <= gg.search_stats["plan_costings"]
            )
