"""Tests for the benchmark harness itself (it guards the reproduction, so
it gets its own tests)."""

import contextlib
import io
import re

import pytest

from repro.bench.harness import (
    AlgorithmRow,
    SharingRow,
    forced_plan,
    run_algorithm_comparison,
    run_figure,
    run_sharing_sweep,
)
from repro.bench.history import record_run
from repro.bench.reporting import format_table
from repro.cli import main
from repro.core.optimizer import OPTIMIZERS
from repro.core.optimizer.plans import JoinMethod
from repro.faults import PartialResultError, parse_fault_plan
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery
from repro.workload.paper_queries import (
    ALL_PAPER_TESTS,
    PAPER_FIGURES,
    paper_queries,
)
from repro.workload.paper_schema import build_paper_database

from helpers import make_tiny_db


@pytest.fixture(scope="module")
def db():
    return make_tiny_db(n_rows=400, materialized=("X'Y'",), index_tables=("XY",))


def hq(label):
    return GroupByQuery(groupby=GroupBy((1, 1)), label=label)


def iq(label, member=0):
    return GroupByQuery(
        groupby=GroupBy((1, 2)),
        predicates=(DimPredicate(0, 0, frozenset({member})),),
        label=label,
    )


class TestForcedRuns:
    def test_forced_class_uses_requested_methods(self, db):
        methods = [JoinMethod.HASH, JoinMethod.INDEX]
        plan = forced_plan("XY", [hq("f1"), iq("f2")], methods)
        (plan_class,) = plan.classes
        assert (plan_class.source, plan_class.methods) == ("XY", methods)
        report = db.execute(plan)
        assert len(report.results) == 2
        assert report.sim_ms == pytest.approx(
            report.sim_io_ms + report.sim_cpu_ms
        )

    def test_cold_run_deterministic(self, db):
        plan = forced_plan("XY", [hq("d")], [JoinMethod.HASH])
        assert db.execute(plan).sim_ms == db.execute(plan).sim_ms

    def test_separately_sums_runs(self, db):
        queries = [hq("s1"), hq("s2")]
        methods = [JoinMethod.HASH] * 2
        combined = db.execute(forced_plan("XY", queries, methods, True))
        assert [len(c.plans) for c in combined.plan.classes] == [1, 1]
        singles = [
            db.execute(forced_plan("XY", [q], [m]))
            for q, m in zip(queries, methods)
        ]
        assert combined.sim_ms == singles[0].sim_ms + singles[1].sim_ms
        assert [c.sim for c in combined.class_executions] == [
            s.class_executions[0].sim for s in singles
        ]
        assert len(combined.results) == 2


class TestSharingSweep:
    def test_rows_cover_prefixes(self, db):
        rows = run_sharing_sweep(
            db, "XY", [], [hq("p1"), hq("p2"), hq("p3")], JoinMethod.HASH
        )
        assert [r.n_queries for r in rows] == [1, 2, 3]
        assert rows[0].separate_ms == pytest.approx(rows[0].shared_ms)

    def test_starts_at_k0_exactly_when_something_is_fixed(self, db):
        """Figure 12's first bar is the fixed hash query alone; with nothing
        fixed (above, Figures 10–11) it is the first added query."""
        rows = run_sharing_sweep(
            db, "XY", [hq("fixed")], [iq("a1"), iq("a2", 1)], JoinMethod.INDEX
        )
        assert [r.n_queries for r in rows] == [1, 2, 3]

    def test_a_failed_class_is_named_not_compared(self):
        """An injected fault fails its class under the executor; the sweep
        then reports the partial result, not an answer mismatch."""
        db = make_tiny_db(n_rows=400)
        db.arm_faults(parse_fault_plan("storage.scan:table=XY,nth=1"))
        with pytest.raises(PartialResultError, match="failed mid-execution"):
            run_sharing_sweep(db, "XY", [], [hq("x1")], JoinMethod.HASH)

    def test_speedup_property(self):
        row = SharingRow(2, 100.0, 50.0, 0, 0)
        assert row.speedup == pytest.approx(2.0)
        zero = SharingRow(1, 10.0, 0.0, 0, 0)
        assert zero.speedup == 0.0


class TestFiguresAreForcedPlans:
    """Each bar of Figures 10–12 is a plan ``Database.execute`` runs, so the
    figures get what every plan gets from the executor."""

    @pytest.fixture()
    def registry(self):
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        yield registry
        set_default_registry(previous)

    def test_paranoia_and_tracing_cover_every_figure(self, registry):
        db = build_paper_database(scale=SCALE)
        db.paranoia = True
        plans = classes = results = 0
        for key in PAPER_FIGURES:
            with db.trace():
                rows = run_figure(db, key)
            trace = db.last_trace
            # Per bar: the separate plan (a class per query), the shared one.
            n_plans = 2 * len(rows)
            n_classes = sum(row.n_queries + 1 for row in rows)
            assert len(trace.find_all("execute.plan")) == n_plans, key
            assert len(trace.find_all("execute.class")) == n_classes, key
            assert len(trace.find_all("check.class")) == n_classes, key
            plans += n_plans
            classes += n_classes
            results += sum(2 * row.n_queries for row in rows)
        assert registry.get("check.plans_validated").value == plans
        assert registry.get("executor.classes_executed").value == classes
        assert registry.get("check.results_checked").value == results


class TestAlgorithmComparison:
    def test_rows_per_algorithm(self, db):
        queries = [hq("c1"), iq("c2")]
        rows = run_algorithm_comparison(db, queries, ("naive", "gg"))
        assert [r.algorithm for r in rows] == ["naive", "gg"]
        for row in rows:
            assert isinstance(row, AlgorithmRow)
            assert row.sim_ms > 0
            assert set(row.report.results) == {q.qid for q in queries}

    def test_detects_answer_mismatch(self, db, monkeypatch):
        """The comparison harness must fail loudly if algorithms ever
        disagree on answers."""
        queries = [hq("m1")]
        original_execute = db.execute
        calls = {"n": 0}

        def corrupting_execute(plan, cold=True):
            report = original_execute(plan, cold=cold)
            calls["n"] += 1
            if calls["n"] == 2:  # corrupt the second algorithm's answers
                for result in report.results.values():
                    for key in list(result.groups):
                        result.groups[key] += 1.0
            return report

        monkeypatch.setattr(db, "execute", corrupting_execute)
        with pytest.raises(AssertionError, match="different answers"):
            run_algorithm_comparison(db, queries, ("naive", "gg"))


class TestReporting:
    def test_format_table_aligns(self):
        text = format_table(
            ["name", "value"], [("a", 1.5), ("long-name", 20.25)]
        )
        lines = text.splitlines()
        assert len({len(line) for line in lines if line}) == 1  # aligned
        assert "long-name" in text
        assert "20.2" in text  # floats rendered to one decimal

    def test_format_table_title(self):
        text = format_table(["h"], [("x",)], title="My Title")
        assert text.startswith("My Title")


SCALE = 0.002


def printed_rows(text, title, n_rows):
    """The cells of the first ``n_rows`` rows of the markdown table titled
    ``title``."""
    lines = text[text.index(title):].splitlines()
    rule = next(i for i, line in enumerate(lines) if line and set(line) <= set("-| "))
    body = lines[rule + 1:rule + 1 + n_rows]
    return [re.split(r"\s*\|\s*|\s{2,}", line.strip(" |")) for line in body]


class TestOneTableOneLoop:
    """Both consumers — ``repro report`` and ``record_run`` — read the
    experiment table in ``repro.workload.paper_queries`` and call the two
    loops here, so at one scale they carry the same (deterministic)
    numbers."""

    @pytest.fixture(scope="class")
    def record(self):
        return record_run(scale=SCALE)

    @pytest.fixture(scope="class")
    def report_text(self):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["report", "--tests", "test4", "--scale", str(SCALE)]) == 0
        return stdout.getvalue()

    def test_record_keys_are_the_tables_keys(self, record):
        assert list(record.figures) == list(PAPER_FIGURES)
        assert list(record.tests) == list(ALL_PAPER_TESTS)

    def test_figure_rows_agree_everywhere(self, record, report_text):
        for key, spec in PAPER_FIGURES.items():
            stored = [
                [str(row["n_queries"]), f"{row['separate_ms']:.1f}",
                 f"{row['shared_ms']:.1f}", f"{row['speedup']:.2f}x"]
                for row in record.figures[key]
            ]
            # Figure 12 starts at its fixed hash query alone (k = 0).
            assert [cells[0] for cells in stored] == ["1", "2", "3", "4"]
            assert printed_rows(report_text, spec.title, 4) == stored

    def test_table2_rows_agree_everywhere(self, record, report_text):
        stored = {
            row["algorithm"]: [
                row["algorithm"], f"{row['est_ms']:.1f}", f"{row['sim_ms']:.1f}",
                str(row["n_classes"]), row["plan"],
            ]
            for row in record.tests["test4"]
        }
        printed = printed_rows(report_text, "test4 (", len(OPTIMIZERS))
        assert [cells[0] for cells in printed] == list(OPTIMIZERS)
        shared = [cells for cells in printed if cells[0] in stored]
        assert len(shared) >= 5
        assert all(cells == stored[cells[0]] for cells in shared)

    def test_n_classes_comes_from_the_plan(self):
        """Not from counting separators in the signature string — checked
        on a dag plan, whose class carries derive steps."""
        db = build_paper_database(scale=SCALE)
        qs = paper_queries(db.schema)
        (row,) = run_algorithm_comparison(
            db, [qs[i] for i in ALL_PAPER_TESTS["test1"]], ("dag",), test="test1"
        )
        plan = row.report.plan
        assert any(cls.derives for cls in plan.classes)
        assert row.n_classes == len(plan.classes)
        assert (row.test, row.plan) == ("test1", plan.signature)
