"""The batch contract is stated once, in ``repro.check`` (``validate``'s two
rules and ``invariants``' checks), and held there: a paranoid batch applies
each rule once, a plan that drops a query is caught with paranoia off or on,
two runs compare by one answer rule in both directions, and the source keeps
no second copy of any of it."""

import math
import re
from pathlib import Path

import pytest

import repro
from repro.check import (
    CorrectnessError,
    assert_same_answers,
    check_batch,
    first_divergence,
    invariants,
    reference_answer,
    validate,
)
from repro.core.executor import ClassFailure
from repro.core.operators.results import QueryResult
from repro.core.optimizer import GGOptimizer
from repro.faults import FaultPlan, InjectionPoint
from repro.schema.query import GroupBy, GroupByQuery
from repro.storage.iostats import IOStats

from helpers import make_tiny_db


def q(levels=(1, 1), label=""):
    return GroupByQuery(groupby=GroupBy(levels), label=label)


@pytest.fixture()
def db():
    return make_tiny_db(n_rows=300, materialized=("X'Y'",))


class TestEachRuleOncePerBatch:
    def test_paranoid_batch_checks_coverage_once_and_structure_once(
        self, db, monkeypatch
    ):
        """At the parent a paranoid ``run_queries`` applied the coverage
        rule three times (the optimizer's own check, ``run_queries``, the
        executor) and ``validate_global_plan`` twice."""
        calls = {"coverage": 0, "structure": 0}
        real_coverage = validate.check_coverage
        real_structure = validate.validate_global_plan

        def coverage(plan, queries):
            calls["coverage"] += 1
            return real_coverage(plan, queries)

        def structure(schema, catalog, plan):
            calls["structure"] += 1
            return real_structure(schema, catalog, plan)

        monkeypatch.setattr(validate, "check_coverage", coverage)
        monkeypatch.setattr(validate, "validate_global_plan", structure)
        monkeypatch.setattr(invariants, "validate_global_plan", structure)
        db.paranoia = True
        db.run_queries([q((1, 1), "a"), q((0, 0), "b"), q((2, 1), "c")], "gg")
        assert calls == {"coverage": 1, "structure": 1}

    @pytest.mark.parametrize("paranoia", [False, True])
    def test_dropped_query_caught_with_or_without_paranoia(
        self, db, monkeypatch, paranoia
    ):
        real_optimize = GGOptimizer.optimize

        def dropping_optimize(self, queries):
            return real_optimize(self, queries[:-1])

        monkeypatch.setattr(GGOptimizer, "optimize", dropping_optimize)
        db.paranoia = paranoia
        batch = [q((1, 1), "kept"), q((2, 2), "dropped")]
        with pytest.raises(CorrectnessError, match="submitted batch") as info:
            db.run_queries(batch, "gg")
        assert "'gg'" in str(info.value)
        assert str(batch[-1].qid) in str(info.value)
        assert info.value.plan is not None


def result(query, groups):
    return QueryResult(query=query, groups=dict(groups))


def parent_check_same_results(left, right, who):
    """``bench.harness._check_same_results`` as it was before
    :func:`assert_same_answers` replaced it: it walked the left side only."""
    by_qid = {r.query.qid: r for r in right}
    for res in left:
        twin = by_qid.get(res.query.qid)
        if twin is None or res.groups != twin.groups:
            raise AssertionError(f"{who} returned different answers")


class TestAssertSameAnswers:
    def setup_method(self):
        self.a, self.b = q((1, 1), "a"), q((2, 1), "b")
        self.one = [result(self.a, {(0, 0): 1.0})]
        self.two = self.one + [result(self.b, {(1, 0): 2.0})]

    @pytest.mark.parametrize("extra_on", ["expected", "actual"])
    def test_an_extra_answer_on_either_side_fails(self, extra_on):
        expected, actual = (
            (self.two, self.one) if extra_on == "expected"
            else (self.one, self.two)
        )
        with pytest.raises(CorrectnessError, match="different queries"):
            assert_same_answers(expected, actual, "pair")

    def test_the_replaced_check_missed_an_extra_answer_on_the_right(self):
        parent_check_same_results(self.one, self.two, "pair")  # no error
        with pytest.raises(AssertionError):
            assert_same_answers(self.one, self.two, "pair")

    def test_one_answer_rule_is_equality(self):
        near = [result(self.a, {(0, 0): math.nextafter(1.0, 2.0)})]
        assert_same_answers(self.one, [result(self.a, {(0, 0): 1.0})], "pair")
        with pytest.raises(CorrectnessError, match="value-mismatch") as info:
            assert_same_answers(self.one, near, "pair")
        assert info.value.query is self.a


def test_one_ulp_off_the_reference_is_a_value_mismatch(db):
    query = q((1, 1), "a")
    groups = dict(reference_answer(db, query).groups)
    key, value = next(iter(groups.items()))
    groups[key] = math.nextafter(value, math.inf)
    divergence = first_divergence(reference_answer(db, query).groups, groups)
    assert (divergence.kind, divergence.group) == ("value-mismatch", key)


class TestCheckBatch:
    def test_clean_batch_passes(self, db):
        batch = [q((1, 1), "a"), q((0, 0), "b")]
        report = db.run_queries(batch, "tplo")
        check_batch(db, batch, report.results, report.failures)

    def test_failures_must_be_whole_typed_classes(self, db):
        batch = [q((1, 1), "survivor"), q((0, 0), "casualty")]
        db.arm_faults(
            FaultPlan([InjectionPoint(site="storage.scan", table="XY")])
        )
        try:
            report = db.run_queries(batch, "tplo")
        finally:
            db.disarm_faults()
        assert report.failed_qids == [batch[1].qid]
        check_batch(db, batch, report.results, report.failures)
        with pytest.raises(CorrectnessError, match="one, not both"):
            check_batch(db, batch, report.results)  # a swallowed failure
        (failure,) = report.failures
        untyped = ClassFailure(
            failure.plan_class, ValueError("boom"), IOStats(), 0.0
        )
        with pytest.raises(CorrectnessError, match="not a typed"):
            check_batch(db, batch, report.results, [untyped])

    def test_a_wrong_answer_fails(self, db):
        batch = [q((1, 1), "a")]
        answers = dict(db.run_queries(batch, "gg").results)
        key = next(iter(answers[batch[0].qid].groups))
        answers[batch[0].qid].groups[key] += 1.0
        with pytest.raises(CorrectnessError, match="value-mismatch"):
            check_batch(db, batch, answers)


def test_one_statement_of_the_batch_contract_in_the_source():
    src = Path(repro.__file__).parent
    text = {
        str(path.relative_to(src)): path.read_text()
        for path in src.rglob("*.py")
    }

    def homes(pattern):
        return {
            name: len(re.findall(pattern, body))
            for name, body in text.items()
            if re.search(pattern, body)
        }

    assert "def validate(" not in text["core/optimizer/plans.py"]
    assert homes(r"rel_tol|values_diff") == {}
    assert homes(r"_check_same_results|_validate_paranoid") == {}
    assert "check/paranoia.py" not in text
    assert homes(r"(?<!def )\bcheck_coverage\(") == {"engine/database.py": 1}
    assert [
        name for name, body in text.items()
        if name.startswith("core/optimizer/")
        and "allow_duplicate_sources=True" in body
    ] == []
    tests = Path(__file__).parent
    own_snapshot = re.compile(r"^\s*def _?snapshot\(", re.MULTILINE)
    assert [
        path.name for path in sorted(tests.glob("*.py"))
        if path.name != "helpers.py" and own_snapshot.search(path.read_text())
    ] == []

