"""One front door: every way of asking a batch — ``Database.run_queries``,
a ``QuerySession``, a ``QueryService`` — is answered by
``Database.run_queries`` (docs/architecture.md §"Answering a batch"), so
cache, validation and retention behave the same through each.  The doors
are a table; every test below walks it.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.check import check_batch
from repro.engine import maintenance
from repro.engine.database import Database
from repro.engine.result_cache import attach_cache
from repro.engine.session import QuerySession, query_key
from repro.faults import FaultPlan, InjectedFault, InjectionPoint
from repro.schema.query import GroupBy, GroupByQuery
from repro.serve import RequestQuarantined
from repro.workload.generator import generate_fact_rows
from repro.workload.paper_queries import ALL_PAPER_TESTS, paper_queries
from repro.workload.paper_schema import PaperConfig, build_paper_database

from helpers import make_tiny_db


# -- the doors ----------------------------------------------------------------
# Opening a door on (db, algorithm, **serve_config) yields ``ask(batch)``,
# which returns the answers to the *submitted* queries by qid plus how many
# of them the door reports as served from the cache.


@contextmanager
def run_queries_door(db, algorithm="gg", **_serve):
    def ask(batch):
        report = db.run_queries(batch, algorithm)
        if report.failures:
            raise report.failures[0].error
        return {q.qid: report.result_for(q) for q in batch}, report.n_cache_hits

    yield ask


@contextmanager
def session_door(db, algorithm="gg", **_serve):
    def ask(batch):
        report = QuerySession(db, algorithm).add_queries(batch).run()
        return report.results, report.execution.n_cache_hits

    yield ask


@contextmanager
def service_door(db, algorithm="gg", **serve):
    with db.serve(window_ms=1.0, algorithm=algorithm, **serve) as service:
        def ask(batch):
            response = service.submit(batch).result(timeout=60)
            return response.results, response.n_cache_hits

        yield ask


DOORS = {
    "run_queries": run_queries_door,
    "session": session_door,
    "service-w1": service_door,  # a 1 ms batching window
}


def n_distinct(batch):
    return len({query_key(q) for q in batch})


def n_planned(door, batch):
    """``run_queries`` plans the batch as submitted; the doors above it
    coalesce first."""
    return len(batch) if door == "run_queries" else n_distinct(batch)


def n_hits_reported(door, batch):
    """A session reports hits per distinct query; ``run_queries`` and a
    service response per submitted one."""
    return n_distinct(batch) if door == "session" else len(batch)


class Spy:
    """Records every plan search and plan execution on ``Database`` — the
    one place all doors cross."""

    def __init__(self, monkeypatch):
        self.optimized = []
        self.executed = []
        real_optimize, real_execute = Database.optimize, Database.execute

        def optimize(db, queries, algorithm="gg"):
            self.optimized.append(list(queries))
            return real_optimize(db, queries, algorithm)

        def execute(db, plan, **options):
            report = real_execute(db, plan, **options)
            self.executed.append(report)
            return report

        monkeypatch.setattr(Database, "optimize", optimize)
        monkeypatch.setattr(Database, "execute", execute)

    def clear(self):
        self.optimized.clear()
        self.executed.clear()

    def signature(self):
        """What was planned and what it cost, comparable across doors."""
        return [
            (
                [
                    (cls.source, [(p.query.qid, p.method.name) for p in cls.plans])
                    for cls in report.plan.classes
                ],
                report.sim_ms,
            )
            for report in self.executed
        ]


@pytest.fixture()
def spy(monkeypatch):
    return Spy(monkeypatch)


@pytest.fixture(scope="module")
def paper_db():
    db = build_paper_database(config=PaperConfig(scale=0.002))
    db.paranoia = True
    return db


@pytest.fixture(scope="module")
def batches(paper_db):
    qs = paper_queries(paper_db.schema)
    out = {name: [qs[i] for i in ids] for name, ids in ALL_PAPER_TESTS.items()}
    twins = [
        GroupByQuery(
            groupby=q.groupby, predicates=q.predicates,
            aggregate=q.aggregate, label=f"{q.label}-twin",
        )
        for q in out["test4"][:2]
    ]
    out["duplicates"] = out["test4"] + twins
    return out


# -- answers, hits and plans --------------------------------------------------


@pytest.mark.parametrize("cache", ["none", "cold", "warm"])
@pytest.mark.parametrize("door", DOORS)
def test_every_door_answers_every_batch(paper_db, batches, spy, door, cache):
    db = paper_db
    try:
        with DOORS[door](db) as ask:
            for name, batch in batches.items():
                db.result_cache = None
                if cache != "none":
                    attach_cache(db)
                if cache == "warm":
                    ask(batch)
                spy.clear()
                answers, n_hits = ask(batch)
                check_batch(db, batch, answers)
                if cache == "warm":
                    # Warm: nothing planned, nothing executed, all hits.
                    assert spy.optimized == [] and spy.executed == [], name
                    assert n_hits == n_hits_reported(door, batch), name
                else:
                    assert n_hits == 0, name
                    assert [len(qs) for qs in spy.optimized] == [
                        n_planned(door, batch)
                    ], name
                if cache != "none":
                    assert len(db.result_cache) == n_distinct(batch), name
    finally:
        db.result_cache = None


def test_same_plan_and_cost_through_every_door(paper_db, batches, spy):
    """Duplicate-free batches: dedupe above the door changes nothing, so
    the planned classes and the simulated cost are identical (``==``, not
    approx) whichever door the batch came through."""
    signatures = {}
    for door in DOORS:
        with DOORS[door](paper_db) as ask:
            for test in ALL_PAPER_TESTS:
                spy.clear()
                ask(batches[test])
                signatures[door, test] = spy.signature()
    for (door, test), signature in signatures.items():
        assert len(signature) == 1
        assert signature == signatures["run_queries", test], (door, test)


# -- mutation and failure -----------------------------------------------------


def q(levels=(1, 1), label=""):
    return GroupByQuery(groupby=GroupBy(levels), label=label)


@pytest.mark.parametrize("door", DOORS)
def test_appends_invalidate_through_every_door(door):
    db = make_tiny_db(n_rows=300, materialized=("X'Y'",))
    db.paranoia = True
    cache = attach_cache(db)
    batch = [q((1, 1), "a"), q((2, 1), "b")]
    appends = [
        lambda rows: db.append_rows(rows),
        lambda rows: maintenance.append_rows(db, rows),  # bypasses Database
    ]
    with DOORS[door](db) as ask:
        before, _ = ask(batch)
        for round_no, append in enumerate(appends, start=1):
            _, n_hits = ask(batch)
            assert n_hits == len(batch)
            append(generate_fact_rows(db.schema, 40, seed=700 + round_no))
            assert cache.stats.invalidations == round_no
            assert len(cache) == 0
            after, n_hits = ask(batch)
            assert n_hits == 0
            check_batch(db, batch, after)
            for query in batch:
                assert after[query.qid].groups != before[query.qid].groups
            before = after


@pytest.mark.parametrize("door", DOORS)
def test_partial_failure_caches_nothing_through_any_door(door):
    """tplo splits the two queries into two classes; a persistent fault
    kills the base-table class only.  The survivor's result is correct but
    must not be retained (docs/architecture.md §"Answering a batch")."""
    db = make_tiny_db(materialized=("X'Y'",))
    cache = attach_cache(db)
    batch = [q((1, 1), "survivor"), q((0, 0), "casualty")]
    failure = {"run_queries": InjectedFault, "session": KeyError}.get(
        door, RequestQuarantined
    )
    with DOORS[door](db, "tplo", max_attempts=1, degrade=False) as ask:
        db.arm_faults(
            FaultPlan([InjectionPoint(site="storage.scan", table="XY")])
        )
        try:
            with pytest.raises(failure):
                ask(batch)
        finally:
            db.disarm_faults()
        assert len(cache) == 0
        answers, n_hits = ask(batch)
    assert n_hits == 0 and len(cache) == 2
    check_batch(db, batch, answers)


# -- the door stays one door --------------------------------------------------


def test_attachments_are_plain_data():
    db = make_tiny_db(n_rows=100)
    assert db.result_cache is None
    cache = attach_cache(db)
    assert db.result_cache is cache
    assert not {"run_queries", "execute", "append_rows"} & set(vars(db))
    report = db.run_queries([q(label="x")], "gg")
    assert type(report).__name__ == "ExecutionReport"
    assert len(cache) == 1


def test_empty_batch_is_rejected_with_and_without_a_cache():
    db = make_tiny_db(n_rows=100)
    with pytest.raises(ValueError):
        db.run_queries([], "gg")
    attach_cache(db)
    with pytest.raises(ValueError):
        db.run_queries([], "gg")


def test_no_second_door_in_the_source():
    src = Path(repro.__file__).parent
    text = {
        str(path.relative_to(src)): path.read_text()
        for path in src.rglob("*.py")
    }
    rebinding = re.compile(r"\.(run_queries|execute|append_rows)\s*=[^=]")
    assert [name for name, body in text.items() if rebinding.search(body)] == []
    assert "__getattr__" not in text["engine/result_cache.py"]
    assert "execute_plan" not in text["serve/service.py"]
    # Recovery is the door's: the service neither retries nor plans.
    for name in (
        "call_with_retry", "build_plan_class", "CostModel", "GlobalPlan(",
        "InjectedFault",
    ):
        assert name not in text["serve/service.py"], name
    # The cache is looked up, and executed results retained, in one place.
    def count(pattern):
        return {
            name: len(re.findall(pattern, body))
            for name, body in text.items()
            if re.search(pattern, body)
        }

    assert count(r"\bcache\.get\(") == {"engine/database.py": 1}
    assert count(r"cache\.put\(") == {"engine/database.py": 1}
    submitted = r"check_coverage\([^)]*,\s*(misses|queries)\s*\)"
    assert count(submitted) == {"engine/database.py": 1}


def test_no_second_fold_in_the_source():
    """The packed-code group-by lives in ``core/operators/aggregate.py``:
    nothing else under core/ or engine/ groups codes or folds them."""
    src = Path(repro.__file__).parent
    text = {
        str(path.relative_to(src)): path.read_text()
        for package in ("core", "engine")
        for path in (src / package).rglob("*.py")
    }
    home = "core/operators/aggregate.py"

    def homes(call):
        return [name for name, body in text.items() if re.search(call, body)]

    assert homes(r"\.reduceat\(") == [home]
    assert homes(r"np\.unique\(") == []
    own = re.compile(r"^\s*def (fold_|group_codes|decode_)", re.MULTILINE)
    for name in ("engine/materialize.py", "engine/maintenance.py"):
        assert own.search(text[name]) is None, name
        assert "from ..core.operators.aggregate import" in text[name]
    assert "np.fromiter" not in text["core/operators/star_join.py"]
    # Predicate masks are a scatter and a gather (Dimension.member_mask):
    # the sort inside np.isin stays out of the operators.
    assert [
        name for name, body in text.items()
        if name.startswith("core/operators/") and "isin(" in body
    ] == []
    imports_engine = re.compile(r"^\s*(from|import) \S*engine", re.MULTILINE)
    assert [
        name for name, body in text.items()
        if name.startswith("core/operators/") and imports_engine.search(body)
    ] == []


def test_one_description_of_a_class_in_the_source():
    """A class has one type and a derive step one spelling (``PlanClass`` /
    ``DeriveStep``, constructed under ``dag/`` only), and the level walk over
    ``index_for`` exists once, in ``TableEntry.covering_index``."""
    src = Path(repro.__file__).parent
    text = {
        str(path.relative_to(src)): path.read_text() for path in src.rglob("*.py")
    }

    def homes(pattern):
        return [name for name, body in text.items() if re.search(pattern, body)]

    assert homes(r"getattr\([^)]*\"(has_)?derives\"") == []
    assert homes(r"DagPlanClass|DeriveSpec|_lower_class|derived_queries") == []
    assert homes(r"\bDeriveStep\(") == ["dag/search.py"]
    assert homes(r"\.index_for\(") == ["storage/catalog.py"]
    assert len(re.findall(r"\.index_for\(", text["storage/catalog.py"])) == 1
