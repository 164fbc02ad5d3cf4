"""Tests for plan JSON serialization."""

import json

import pytest

from repro.schema.query import GroupBy, GroupByQuery

from helpers import make_tiny_db


class TestPlanToDict:
    def test_structure(self):
        db = make_tiny_db(n_rows=300, materialized=("X'Y'",))
        queries = [
            GroupByQuery(groupby=GroupBy((1, 1)), label="d1"),
            GroupByQuery(groupby=GroupBy((2, 2)), label="d2"),
        ]
        plan = db.optimize(queries, "gg")
        doc = plan.to_dict(db.schema)
        assert doc["algorithm"] == "gg"
        assert doc["est_cost_ms"] == pytest.approx(plan.est_cost_ms, abs=0.01)
        assert "plan_costings" in doc["search_stats"]
        names = [p["query"] for cls in doc["classes"] for p in cls["plans"]]
        assert sorted(names) == ["d1", "d2"]
        for cls in doc["classes"]:
            for local in cls["plans"]:
                assert local["method"] in ("hash-based SJ", "index-based SJ")

    def test_json_round_trip(self):
        db = make_tiny_db(n_rows=200)
        plan = db.optimize(
            [GroupByQuery(groupby=GroupBy((1, 1)))], "tplo"
        )
        text = json.dumps(plan.to_dict(db.schema))
        assert json.loads(text)["algorithm"] == "tplo"

