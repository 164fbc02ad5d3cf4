"""Paranoia mode wired end to end: clean runs pass and bump the check.*
counters; a corrupted operator, a corrupted cache entry, or a tampered plan
is caught with a structured CorrectnessError naming the divergence."""

import random

import pytest

from repro.check import CorrectnessError, first_divergence
from repro.core.operators.hash_join import SharedScanStarJoin
from repro.engine.result_cache import attach_cache
from repro.obs.metrics import default_registry
from repro.schema.query import GroupBy, GroupByQuery

from helpers import make_tiny_db, random_query


@pytest.fixture()
def db():
    db = make_tiny_db(
        n_rows=300,
        materialized=("X'Y", "X'Y'"),
        index_tables=("XY", "X'Y"),
    )
    db.paranoia = True
    return db


def counter_value(name):
    registry = default_registry()
    try:
        return registry.get(name).dump()
    except KeyError:
        return 0


class TestCleanRuns:
    @pytest.mark.parametrize("algorithm", ["naive", "tplo", "etplg", "gg"])
    def test_random_batch_passes_and_counts(self, db, algorithm):
        rng = random.Random(5)
        batch = [random_query(db.schema, rng, label=f"P{i}") for i in range(4)]
        validated = counter_value("check.plans_validated")
        checked = counter_value("check.results_checked")
        report = db.run_queries(batch, algorithm)
        assert len(report.results) == len(batch)
        # run_queries validates against the batch; execute_plan validates
        # structurally again — at least one bump either way.
        assert counter_value("check.plans_validated") > validated
        assert counter_value("check.results_checked") >= checked + len(batch)

    def test_paranoia_attr_on_span(self, db):
        query = GroupByQuery(groupby=GroupBy((1, 1)), label="spanq")
        with db.trace() as _:
            db.run_queries([query], "gg")
        span = db.last_trace.find("execute.plan")
        assert span.attrs["paranoia"] is True
        assert db.last_trace.find("check.validate") is not None
        assert db.last_trace.find("check.class") is not None

    def test_constructor_flag(self):
        db = make_tiny_db(n_rows=50, index_tables=())
        assert db.paranoia is False  # default off: zero overhead

    def test_paranoia_does_not_change_measured_cost(self):
        query = GroupByQuery(groupby=GroupBy((1, 1)), label="costq")
        relaxed = make_tiny_db(n_rows=300, index_tables=("XY",))
        paranoid = make_tiny_db(n_rows=300, index_tables=("XY",))
        paranoid.paranoia = True
        a = relaxed.run_queries([query], "gg")
        b = paranoid.run_queries([query], "gg")
        assert a.sim_ms == pytest.approx(b.sim_ms)


class TestCorruptedOperatorCaught:
    def test_divergent_value_names_query_and_group(self, db, monkeypatch):
        query = GroupByQuery(groupby=GroupBy((1, 2)), label="victim")
        real_run = SharedScanStarJoin.run

        def corrupted_run(self):
            results = real_run(self)
            for result in results.values():
                key = sorted(result.groups)[0]
                result.groups[key] += 1.0  # quiet corruption
            return results

        monkeypatch.setattr(SharedScanStarJoin, "run", corrupted_run)
        divergences = counter_value("check.divergences")
        with pytest.raises(CorrectnessError) as exc_info:
            db.run_queries([query], "gg")
        err = exc_info.value
        assert "victim" in str(err)
        assert err.query.qid == query.qid
        assert err.plan is not None
        assert err.divergence.kind == "value-mismatch"
        assert str(err.divergence.group) in str(err)
        assert counter_value("check.divergences") == divergences + 1

    def test_dropped_group_caught(self, db, monkeypatch):
        query = GroupByQuery(groupby=GroupBy((1, 2)), label="dropped")
        real_run = SharedScanStarJoin.run

        def dropping_run(self):
            results = real_run(self)
            for result in results.values():
                result.groups.pop(sorted(result.groups)[0])
            return results

        monkeypatch.setattr(SharedScanStarJoin, "run", dropping_run)
        with pytest.raises(CorrectnessError) as exc_info:
            db.run_queries([query], "gg")
        assert exc_info.value.divergence.kind == "missing-group"

    def test_tampered_plan_caught_before_execution(self, db):
        fine = GroupByQuery(groupby=GroupBy((0, 0)), label="preflight")
        plan = db.optimize([fine], "gg")
        for cls in plan.classes:
            cls.source = "X'Y'"  # not a lattice ancestor of a leaf target
        with pytest.raises(CorrectnessError, match="structural validation"):
            db.execute(plan)


class TestCacheRecheck:
    def test_corrupted_cache_entry_caught(self, db):
        cache = attach_cache(db)
        query = GroupByQuery(groupby=GroupBy((1, 1)), label="stale")
        db.run_queries([query], "gg")  # miss: fills the cache
        # Corrupt the cached groups behind the cache's back — the stand-in
        # for any unhooked invalidation path serving stale data.
        (entry,) = cache._entries.values()
        key = sorted(entry)[0]
        entry[key] += 42.0
        rechecked = counter_value("check.cache_hits_rechecked")
        with pytest.raises(CorrectnessError, match="cached result"):
            db.run_queries([query], "gg")
        assert counter_value("check.cache_hits_rechecked") == rechecked

    def test_clean_hits_pass_recheck(self, db):
        attach_cache(db)
        query = GroupByQuery(groupby=GroupBy((1, 1)), label="clean")
        db.run_queries([query], "gg")
        rechecked = counter_value("check.cache_hits_rechecked")
        report = db.run_queries([query], "gg")
        assert report.n_cache_hits == 1
        assert counter_value("check.cache_hits_rechecked") == rechecked + 1


class TestFirstDivergence:
    def test_agreement_is_none(self):
        assert first_divergence({(0,): 1.0}, {(0,): 1.0}) is None

    def test_float_noise_tolerated(self):
        assert first_divergence({(0,): 1e9}, {(0,): 1e9 + 1e-4}) is None

    def test_orders_deterministically(self):
        expected = {(0,): 1.0, (1,): 2.0}
        actual = {(0,): 5.0, (1,): 7.0}
        div = first_divergence(expected, actual)
        assert div.group == (0,)
        assert div.expected == 1.0 and div.actual == 5.0


class TestParanoiaCLI:
    def test_run_with_paranoia_flag(self, capsys):
        from repro.cli import main

        code = main([
            "run",
            "{A''.A1.CHILDREN} on COLUMNS CONTEXT ABCD FILTER (D.DD1)",
            "--scale", "0.001",
            "--paranoia",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "paranoia" in out
