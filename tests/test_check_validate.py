"""repro.check unit tests: the reference evaluator and the structural plan
validator (the tentpole's two pillars, exercised directly rather than
through paranoia mode — see test_check_paranoia.py for the wired path)."""

import random

import pytest

from repro.check import (
    PlanValidationError,
    check_coverage,
    evaluate_reference,
    expected_operator,
    raw_base_entry,
    reference_answer,
    validate_global_plan,
)
from repro.core.optimizer.plans import JoinMethod, LocalPlan, PlanClass
from repro.schema.query import Aggregate, GroupBy, GroupByQuery

from helpers import make_tiny_db, random_query


@pytest.fixture(scope="module")
def db():
    return make_tiny_db(
        n_rows=400,
        materialized=("X'Y", "X'Y'"),
        index_tables=("XY", "X'Y"),
    )


class TestReferenceAnswer:
    def test_is_the_fold_over_the_raw_table(self, db):
        base = db.catalog.get("XY")
        rng = random.Random(7)
        for i in range(25):
            query = random_query(db.schema, rng, label=f"R{i}")
            ours = reference_answer(db, query)
            theirs = evaluate_reference(
                db.schema, base.table.all_rows(), query, base.levels
            )
            assert ours.groups == theirs.groups

    def test_every_aggregate(self, db):
        for aggregate in Aggregate:
            query = GroupByQuery(
                groupby=GroupBy((1, 2)), aggregate=aggregate
            )
            result = reference_answer(db, query)
            assert result.n_groups > 0

    def test_sum_total_is_exact(self, db):
        base = db.catalog.get("XY")
        total = sum(row[-1] for row in base.table.all_rows())  # cents
        query = GroupByQuery(groupby=GroupBy((2, 2)))
        result = reference_answer(db, query)
        assert sum(round(v * 100) for v in result.groups.values()) == total

    def test_rejects_view_as_base(self, db):
        query = GroupByQuery(groupby=GroupBy((2, 2)))
        with pytest.raises(PlanValidationError):
            reference_answer(db, query, base_name="X'Y")

    def test_raw_base_entry_requires_exactly_one_raw_table(self, db):
        assert raw_base_entry(db.catalog).name == "XY"
        lonely = make_tiny_db(n_rows=10, index_tables=())
        lonely.catalog.drop("XY")
        with pytest.raises(PlanValidationError):
            raw_base_entry(lonely.catalog)


class TestExpectedOperator:
    def _plan(self, query, source, method):
        return LocalPlan(query=query, source=source, method=method)

    def test_dispatch_matrix(self, db):
        q1 = GroupByQuery(groupby=GroupBy((1, 2)))
        q2 = GroupByQuery(groupby=GroupBy((2, 1)))
        hash1 = self._plan(q1, "XY", JoinMethod.HASH)
        hash2 = self._plan(q2, "XY", JoinMethod.HASH)
        idx1 = self._plan(q1, "XY", JoinMethod.INDEX)
        idx2 = self._plan(q2, "XY", JoinMethod.INDEX)
        assert expected_operator(
            PlanClass("XY", [hash1, hash2])
        ) == "shared_scan_hash"
        assert expected_operator(PlanClass("XY", [idx1])) == "index_star"
        assert expected_operator(
            PlanClass("XY", [idx1, idx2])
        ) == "shared_index"
        assert expected_operator(
            PlanClass("XY", [hash1, idx2])
        ) == "shared_hybrid"

    def test_empty_class_rejected(self):
        with pytest.raises(PlanValidationError, match="empty"):
            expected_operator(PlanClass("XY", []))


class TestValidateGlobalPlan:
    @pytest.fixture()
    def batch(self, db):
        rng = random.Random(11)
        return [random_query(db.schema, rng, label=f"V{i}") for i in range(4)]

    @pytest.mark.parametrize("algorithm", ["naive", "tplo", "etplg", "gg"])
    def test_real_plans_validate(self, db, batch, algorithm):
        plan = db.optimize(batch, algorithm)
        check_coverage(plan, batch)
        validate_global_plan(db.schema, db.catalog, plan)

    def test_missing_query_detected(self, db, batch):
        plan = db.optimize(batch[:-1], "gg")
        with pytest.raises(PlanValidationError, match="no class"):
            check_coverage(plan, batch)

    def test_duplicated_query_detected(self, db, batch):
        plan = db.optimize(batch, "gg")
        victim = plan.classes[0].plans[0]
        plan.classes[0].plans.append(victim)
        with pytest.raises(PlanValidationError, match="more than one class"):
            check_coverage(plan, batch)

    def test_unsubmitted_query_detected(self, db, batch):
        plan = db.optimize(batch, "gg")
        with pytest.raises(PlanValidationError, match="never submitted"):
            check_coverage(plan, batch[:-1])

    def test_non_ancestor_source_detected(self, db):
        # A leaf-level target cannot be answered from the X'Y' rollup.
        fine = GroupByQuery(groupby=GroupBy((0, 0)), label="fine")
        plan = db.optimize([fine], "gg")
        for cls in plan.classes:
            cls.source = "X'Y'"
        with pytest.raises(PlanValidationError, match="lattice ancestor"):
            validate_global_plan(db.schema, db.catalog, plan)

    def test_unknown_source_detected(self, db, batch):
        plan = db.optimize(batch, "gg")
        plan.classes[0].source = "NOPE"
        with pytest.raises(PlanValidationError, match="not a registered"):
            validate_global_plan(db.schema, db.catalog, plan)

    def test_index_plan_without_index_detected(self, db):
        # X'Y' carries no join indexes, so an INDEX-method plan on it is
        # structurally unexecutable.
        from repro.schema.query import DimPredicate

        query = GroupByQuery(
            groupby=GroupBy((2, 2)),
            predicates=(DimPredicate(0, 1, frozenset({0})),),
            label="idxless",
        )
        plan = db.optimize([query], "gg")
        for cls in plan.classes:
            cls.source = "X'Y'"
            cls.plans = [
                LocalPlan(query=p.query, source="X'Y'", method=JoinMethod.INDEX)
                for p in cls.plans
            ]
        with pytest.raises(PlanValidationError, match="no join index"):
            validate_global_plan(db.schema, db.catalog, plan)

    def test_duplicate_sources_rejected_for_merging_algorithms(self, db):
        q1 = GroupByQuery(groupby=GroupBy((1, 2)), label="s1")
        q2 = GroupByQuery(groupby=GroupBy((2, 1)), label="s2")
        plan = db.optimize([q1, q2], "gg")
        if len(plan.classes) == 1:
            # Force the degenerate two-classes-one-source shape.
            only = plan.classes[0]
            a, b = only.plans[0], only.plans[1]
            plan.classes = [
                PlanClass(only.source, [a]),
                PlanClass(only.source, [b]),
            ]
        else:
            plan.classes[1].source = plan.classes[0].source
        with pytest.raises(PlanValidationError, match="share base table"):
            check_coverage(plan, [q1, q2])
        # ... but the deliberately-unmerged naive baseline is exempt.
        plan.algorithm = "naive"
        check_coverage(plan, [q1, q2])
