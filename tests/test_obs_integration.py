"""End-to-end observability: a traced Test-1-style batch produces the
expected span tree, per-operator cost deltas that sum to the batch totals,
non-zero buffer counters, and no cost-clock perturbation from tracing."""

import json

import pytest

from repro.cli import main
from repro.bench.harness import forced_plan
from repro.core.executor import run_class_accounted
from repro.core.optimizer.plans import JoinMethod, LocalPlan, PlanClass
from repro.engine.session import QuerySession
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.obs.trace import NULL_TRACER
from repro.workload.paper_queries import paper_queries
from repro.workload.paper_schema import build_paper_database


@pytest.fixture()
def fresh_registry():
    """Swap in an isolated default metrics registry for the test."""
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    yield registry
    set_default_registry(previous)


@pytest.fixture()
def db(fresh_registry):
    # Build *after* the registry swap so components bind to the fresh one.
    return build_paper_database(scale=0.002)


def _test1_queries(db):
    qs = paper_queries(db.schema)
    return [qs[1], qs[2], qs[3], qs[4]]


class TestTracedBatch:
    def test_span_tree_names_and_buffer_counters(self, db, fresh_registry):
        with db.trace() as tracer:
            report = db.run_queries(_test1_queries(db), "gg")
        root = db.last_trace
        assert root is tracer.roots[0]
        names = {s.name for s in root.walk()}
        assert "optimize.gg" in names
        assert "optimize.gg.grow" in names
        assert "execute.plan" in names
        assert "execute.class" in names
        assert any(n.startswith("operator.") for n in names)
        # The paper's Test 1 workload scans the base table: misses charged.
        assert fresh_registry.get("buffer.misses").value > 0
        assert fresh_registry.get("table.scans").value > 0
        assert fresh_registry.get("executor.queries_executed").value == 4
        assert fresh_registry.get("executor.classes_executed").value == len(
            report.class_executions
        )
        assert fresh_registry.get("optimizer.classes_opened").value >= 1
        costings = root.find("optimize.gg").attrs["plan_costings"]
        assert fresh_registry.get("optimizer.plan_costings").value == costings > 0

    def test_classes_opened_counts_every_algorithm(self, db, fresh_registry):
        """Counted by ``Database.optimize`` from the finished plan, so the
        non-greedy planners count too (and dag counts its final classes)."""
        queries = _test1_queries(db)
        expected = 0
        for algorithm in ("naive", "optimal", "dag"):
            expected += len(db.optimize(queries, algorithm).classes)
            opened = fresh_registry.get("optimizer.classes_opened").value
            assert opened == expected, algorithm

    def test_operator_sim_deltas_sum_to_batch_totals(self, db):
        with db.trace():
            report = db.run_queries(_test1_queries(db), "gg")
        root = db.last_trace
        operators = [
            s for s in root.walk() if s.name.startswith("operator.")
        ]
        assert operators
        assert sum(s.sim_ms for s in operators) == pytest.approx(report.sim_ms)
        # Nothing outside the operators charges the clock in this batch.
        assert root.sim_ms == pytest.approx(report.sim_ms)
        # Per-class spans agree with the report's per-class measurements.
        class_spans = root.find_all("execute.class")
        assert len(class_spans) == len(report.class_executions)
        for span, execution in zip(class_spans, report.class_executions):
            assert span.sim_ms == pytest.approx(execution.sim_ms)

    def test_tracer_restored_and_reusable(self, db):
        with db.trace():
            assert db.tracer is not NULL_TRACER
        assert db.tracer is NULL_TRACER
        first = db.last_trace
        with db.trace(label="second"):
            db.run_queries(_test1_queries(db)[:1], "tplo")
        assert db.last_trace is not first
        assert db.last_trace.name == "second"
        assert db.last_trace.find("optimize.tplo") is not None
        assert db.last_trace.find("optimize.tplo.local") is not None
        assert db.last_trace.find("optimize.tplo.merge") is not None

    def test_tracer_restored_on_error(self, db):
        with pytest.raises(ValueError):
            with db.trace():
                db.run_queries([], "gg")
        assert db.tracer is NULL_TRACER
        assert db.last_trace is not None

    def test_mdx_spans_present(self, db):
        with db.trace():
            db.run_mdx(
                "{A''.A1.CHILDREN} on COLUMNS CONTEXT ABCD FILTER (D.DD1)"
            )
        names = {s.name for s in db.last_trace.walk()}
        assert {"mdx.parse", "mdx.resolve", "mdx.translate"} <= names

    def test_session_span_wraps_optimize_and_execute(self, db):
        session = QuerySession(db, algorithm="gg")
        session.add_queries(_test1_queries(db)[:2])
        with db.trace():
            session.run()
        run_span = db.last_trace.find("session.run")
        assert run_span is not None
        assert run_span.attrs["n_submitted"] == 2
        assert run_span.find("optimize.gg") is not None
        assert run_span.find("execute.plan") is not None

    def test_forced_index_class_routes_tuples(self, db, fresh_registry):
        qs = paper_queries(db.schema)
        with db.trace():
            db.execute(forced_plan(
                "A'B'C'D", [qs[5], qs[6]],
                [JoinMethod.INDEX, JoinMethod.INDEX],
            ))
        assert db.last_trace.find("operator.shared_index") is not None
        assert fresh_registry.get("executor.tuples_routed").value > 0
        assert fresh_registry.get("bitmap.or_ops").value > 0
        assert fresh_registry.get("bitmap.and_ops").value > 0
        assert fresh_registry.get("table.probe_pages").value > 0


    @pytest.mark.parametrize("kind", ["shared_index", "shared_hybrid"])
    def test_tuples_routed_counts_bitmap_tests(self, db, fresh_registry,
                                               kind):
        """``executor.tuples_routed`` counts tuples *tested* against a
        member's result bitmap — Σ ``OperatorActuals.tuples_tested``, the
        clock's ``bitmap_tests`` — not the tuples routed to a member.  On
        Test 6's shared index class and on Test 3's hybrid class (forced:
        gg picks none at this scale)."""
        qs = paper_queries(db.schema)
        if kind == "shared_index":
            (plan_class,) = db.optimize([qs[6], qs[7], qs[8]], "gg").classes
        else:
            methods = [JoinMethod.HASH] + [JoinMethod.INDEX] * 3
            plan_class = PlanClass(
                source="A'B'C'D",
                plans=[
                    LocalPlan(query=qs[i], source="A'B'C'D", method=method)
                    for i, method in zip((3, 5, 6, 7), methods)
                ],
            )
        assert plan_class.operator_kind == kind
        ctx = db.ctx(private=True)
        _results, actuals = run_class_accounted(ctx, plan_class)
        tested = sum(actuals.tuples_tested.values())
        assert tested > sum(actuals.tuples_routed.values())
        assert fresh_registry.get("executor.tuples_routed").value == tested
        assert ctx.stats.bitmap_tests == tested


class TestNoOpOverhead:
    def test_untraced_run_charges_identical_cost_clock(self, fresh_registry):
        """Tracing must observe, never perturb: the simulated cost counters
        of a traced run equal those of an untraced run of the same batch."""

        def run(traced: bool):
            db = build_paper_database(scale=0.002)
            queries = _test1_queries(db)
            if traced:
                with db.trace():
                    db.run_queries(queries, "gg")
            else:
                db.run_queries(queries, "gg")
            return db.stats.as_dict()

        assert run(traced=False) == run(traced=True)

    def test_default_tracer_is_shared_null_singleton(self, db):
        assert db.tracer is NULL_TRACER
        # No allocation on the no-op path: every span() is the same object.
        assert db.tracer.span("a") is db.tracer.span("b")
        db.run_queries(_test1_queries(db)[:1], "gg")
        assert NULL_TRACER.roots == []


class TestCliTrace:
    MDX = "{A''.A1.CHILDREN} on COLUMNS CONTEXT ABCD FILTER (D.DD1)"

    def test_trace_flag_writes_consistent_span_tree(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["run", self.MDX, "--scale", "0.002",
                     "--trace", str(out)]) == 0
        assert "trace written to" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["name"] == "batch"

        def collect(node, pred):
            found = [node] if pred(node) else []
            for child in node["children"]:
                found.extend(collect(child, pred))
            return found

        operators = collect(
            data, lambda n: n["name"].startswith("operator.")
        )
        assert operators
        summed = sum(op["sim"]["total_ms"] for op in operators)
        assert summed == pytest.approx(data["sim"]["total_ms"], rel=1e-6)
        assert data["sim"]["total_ms"] > 0

    def test_trace_chrome_format(self, tmp_path, capsys):
        out = tmp_path / "trace.chrome.json"
        assert main(["run", self.MDX, "--scale", "0.002",
                     "--trace", str(out)]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        assert any(e["name"].startswith("operator.") for e in events)
        assert all(e["ph"] in ("X", "M") for e in events)
        # Two tracks: pid 1 is wall time, pid 2 the simulated cost clock,
        # each labelled by a process_name metadata event.
        spans_by_pid = {e["pid"] for e in events if e["ph"] == "X"}
        assert spans_by_pid == {1, 2}
        labels = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert labels == {"wall clock", "simulated cost clock"}

    def test_analyze_flag_prints_estimate_vs_actual(self, capsys):
        assert main(["run", self.MDX, "--scale", "0.002", "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "est" in out and "actual" in out
