"""Sharded scatter-gather execution (``repro.serve.shard`` partitions,
``execute_plan(..., shard_set=)`` runs them).

The contract under test, per the shard module's invariants:

* :func:`build_shards` partitions every table losslessly (row-disjoint,
  order-preserving) and rebuilds the same indexes per shard;
* N>1 is result-identical (merged partial aggregates), for every
  aggregate — AVG included, merged exactly through its (sum, count)
  ``avg_state``.  Shard-order float summation is not associative, so N>1
  answers are held to the one answer rule
  (:func:`repro.check.assert_same_answers`); N=1 byte-identity lives in
  ``test_executor_equivalence.py``;
* a ``shard.exec`` fault kills exactly one shard's task, failing its
  class while sibling classes survive byte-identical — and the serve
  layer's retry/degrade ladder recovers the request.
"""

from __future__ import annotations

import pytest

from repro.check import assert_same_answers
from repro.core.executor import execute_plan
from repro.core.operators.results import (
    OperatorActuals,
    QueryResult,
    merge_actuals,
    merge_partial_results,
)
from repro.faults import FaultPlan, InjectedFault, InjectionPoint
from repro.schema.query import Aggregate, DimPredicate, GroupBy, GroupByQuery
from repro.serve import ServeConfig, build_shards
from repro.serve.shard import shard_of

from helpers import make_tiny_db


@pytest.fixture()
def db():
    return make_tiny_db(n_rows=400, index_tables=("XY",))


def queries():
    return [
        GroupByQuery(groupby=GroupBy((1, 1)), label="a"),
        GroupByQuery(
            groupby=GroupBy((0, 1)),
            predicates=(DimPredicate(1, 1, frozenset({0, 1})),),
            label="b",
        ),
        GroupByQuery(groupby=GroupBy((2, 0)), label="c"),
    ]


class TestBuildShards:
    def test_partition_is_lossless_and_disjoint(self, db):
        shard_set = build_shards(db, 3)
        for entry in db.catalog.entries():
            original = list(entry.table.all_rows())
            parts = [
                list(shard.catalog.get(entry.name).table.all_rows())
                for shard in shard_set.shards
            ]
            assert sum(len(p) for p in parts) == len(original)
            assert sorted(r for p in parts for r in p) == sorted(original)

    def test_single_shard_preserves_order_and_geometry(self, db):
        shard_set = build_shards(db, 1)
        for entry in db.catalog.entries():
            part = shard_set.shards[0].catalog.get(entry.name).table
            assert list(part.all_rows()) == list(entry.table.all_rows())
            assert part.n_pages == entry.table.n_pages
            assert part.capacity == entry.table.capacity

    def test_indexes_rebuilt_per_shard(self, db):
        shard_set = build_shards(db, 2)
        for entry in db.catalog.entries():
            for shard in shard_set.shards:
                shard_entry = shard.catalog.get(entry.name)
                assert set(shard_entry.indexes) == set(entry.indexes)
                for key, index in entry.indexes.items():
                    assert type(shard_entry.indexes[key]) is type(index)

    def test_routing_follows_partition_dimension(self, db):
        n_shards = 3
        shard_set = build_shards(db, n_shards)
        dim_index = db.schema.dim_index(shard_set.dim_name)
        for shard in shard_set.shards:
            for entry in shard.catalog.entries():
                for row in entry.table.all_rows():
                    assert (
                        shard_of(row[dim_index], n_shards) == shard.shard_id
                    )

    def test_staleness_tracks_data_version(self, db):
        shard_set = build_shards(db, 2)
        assert not shard_set.stale(db.data_version)
        db.notify_mutation()
        assert shard_set.stale(db.data_version)

    def test_rejects_nonpositive_shard_count(self, db):
        with pytest.raises(ValueError, match="n_shards"):
            build_shards(db, 0)


class TestMergeHelpers:
    def _partials(self, aggregate):
        query = GroupByQuery(
            groupby=GroupBy((1, 1)), aggregate=aggregate, label="m"
        )
        left = QueryResult(query=query, groups={(0, 0): 5.0, (1, 0): 2.0})
        right = QueryResult(query=query, groups={(0, 0): 3.0, (2, 0): 7.0})
        return query, [[left], [right]]

    def test_sum_and_count_merge_by_addition(self):
        for aggregate in (Aggregate.SUM, Aggregate.COUNT):
            query, partials = self._partials(aggregate)
            merged = merge_partial_results([query], partials)[0]
            assert merged.groups == {(0, 0): 8.0, (1, 0): 2.0, (2, 0): 7.0}

    def test_min_max_merge_by_extremum(self):
        query, partials = self._partials(Aggregate.MIN)
        merged = merge_partial_results([query], partials)[0]
        assert merged.groups[(0, 0)] == 3.0
        query, partials = self._partials(Aggregate.MAX)
        merged = merge_partial_results([query], partials)[0]
        assert merged.groups[(0, 0)] == 5.0

    def test_merge_actuals_sums_counters(self):
        a = OperatorActuals(operator="op", source="XY", rows_scanned=10)
        a.rows_in[7] = 10
        a.pipeline_cpu_ms[7] = 0.5
        b = OperatorActuals(operator="op", source="XY", rows_scanned=4)
        b.rows_in[7] = 4
        b.pipeline_cpu_ms[7] = 0.25
        # n_groups is not additive (a group on two shards is one group):
        # it is read off the merged results, so a DAG intermediate — which
        # has actuals but no merged result — gets no entry.
        a.n_groups.update({7: 2, 99: 5})
        b.n_groups.update({7: 2, 99: 4})
        query, partials = self._partials(Aggregate.SUM)
        results = merge_partial_results([query], partials)
        merged = merge_actuals([a, b], results)
        assert merged.rows_scanned == 14
        assert merged.rows_in[7] == 14
        assert merged.pipeline_cpu_ms[7] == pytest.approx(0.75)
        assert merged.n_groups == {query.qid: 3}

    def test_merge_avg_from_sum_count_state(self):
        query = GroupByQuery(
            groupby=GroupBy((0, 0)), aggregate=Aggregate.AVG, label="avg"
        )
        left = QueryResult(
            query=query,
            groups={(0, 0): 2.0},
            avg_state={(0, 0): (6.0, 3)},
        )
        right = QueryResult(
            query=query,
            groups={(0, 0): 5.0, (1, 0): 7.0},
            avg_state={(0, 0): (5.0, 1), (1, 0): (7.0, 1)},
        )
        merged = merge_partial_results([query], [[left], [right]])[0]
        # (6 + 5) / (3 + 1): the exact merge, NOT mean(2.0, 5.0) = 3.5.
        assert merged.groups[(0, 0)] == pytest.approx(11.0 / 4.0)
        assert merged.groups[(1, 0)] == pytest.approx(7.0)
        assert merged.avg_state[(0, 0)] == (11.0, 4)

    def test_merge_avg_without_state_raises(self):
        query = GroupByQuery(
            groupby=GroupBy((0, 0)), aggregate=Aggregate.AVG, label="avg"
        )
        bare = QueryResult(query=query, groups={(0, 0): 2.0})
        with pytest.raises(ValueError, match="avg_state"):
            merge_partial_results([query], [[bare]])


class TestShardedExecution:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_many_shards_are_result_identical(self, db, n_shards):
        db.paranoia = True
        plan = db.optimize(queries(), "gg")
        base = execute_plan(db, plan, n_workers=4)
        shard_set = build_shards(db, n_shards)
        sharded = execute_plan(db, plan, shard_set=shard_set, n_workers=4)
        assert not sharded.failures
        assert_same_answers(
            base.results.values(), sharded.results.values(), "sharded"
        )

    @pytest.mark.parametrize(
        "aggregate",
        [Aggregate.SUM, Aggregate.COUNT, Aggregate.MIN, Aggregate.MAX],
    )
    def test_every_decomposable_aggregate_merges(self, db, aggregate):
        query = GroupByQuery(
            groupby=GroupBy((0, 1)), aggregate=aggregate, label="agg"
        )
        plan = db.optimize([query], "gg")
        base = execute_plan(db, plan, n_workers=4)
        sharded = execute_plan(db, plan, shard_set=build_shards(db, 3), n_workers=4)
        assert not sharded.failures
        assert_same_answers(
            base.results.values(), sharded.results.values(), "sharded"
        )

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_avg_merges_exactly_across_shards(self, db, n_shards):
        avg = GroupByQuery(
            groupby=GroupBy((1, 1)), aggregate=Aggregate.AVG, label="avg"
        )
        plan = db.optimize([avg] + queries()[1:], "gg")
        base = execute_plan(db, plan, n_workers=4)
        sharded = execute_plan(
            db, plan, shard_set=build_shards(db, n_shards), n_workers=4
        )
        assert not sharded.failures
        assert_same_answers(
            base.results.values(), sharded.results.values(), "sharded"
        )
        merged_avg = next(
            r
            for ce in sharded.class_executions
            for r in ce.results
            if r.query.aggregate is Aggregate.AVG
        )
        assert merged_avg.avg_state  # state survives the gather

    def test_single_worker_path(self, db):
        plan = db.optimize(queries(), "gg")
        base = execute_plan(db, plan, n_workers=4)
        sharded = execute_plan(
            db, plan, shard_set=build_shards(db, 2), n_workers=1
        )
        assert_same_answers(
            base.results.values(), sharded.results.values(), "sharded"
        )

    def test_shard_metrics_emitted(self, db):
        from repro.obs.metrics import MetricsRegistry, set_default_registry

        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            plan = db.optimize(queries(), "gg")
            shard_set = build_shards(db, 2)
            execute_plan(db, plan, shard_set=shard_set, n_workers=4)
        finally:
            set_default_registry(previous)
        names = set(registry.names())
        assert "shard.0.rows" in names
        assert "shard.1.rows" in names
        assert "shard.0.classes_executed" in names
        assert "shard.scatters" in names
        assert "shard.gathers" in names

    def test_scatter_gather_spans_emitted(self, db):
        plan = db.optimize(queries(), "gg")
        shard_set = build_shards(db, 2)
        with db.trace() as _:
            execute_plan(db, plan, shard_set=shard_set, n_workers=4)
        root = db.last_trace
        assert root.find("serve.scatter") is not None
        assert root.find("serve.gather") is not None
        execute = root.find("execute.plan")
        assert execute.attrs["sharded"] is True
        assert execute.attrs["n_shards"] == 2


class TestShardFaults:
    def test_shard_kill_fails_class_and_spares_siblings(self, db):
        plan = db.optimize(queries(), "gg")
        base = execute_plan(db, plan, n_workers=4)
        shard_set = build_shards(db, 3)
        fault = FaultPlan(
            [InjectionPoint(site="shard.exec", shard=1, nth=1)], seed=1998
        )
        db.arm_faults(fault)
        try:
            report = execute_plan(db, plan, shard_set=shard_set, n_workers=4)
        finally:
            db.disarm_faults()
        assert fault.n_fired == 1
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert isinstance(failure.error, InjectedFault)
        assert failure.error.site == "shard.exec"
        assert failure.error.attrs["shard"] == 1
        # Sibling classes' merged results match the fault-free baseline.
        surviving = report.results
        expected = base.results
        for qid, result in surviving.items():
            assert result.approx_equals(expected[qid]), qid
        # Disarmed re-run over the same shard set is clean, covers every
        # query again, and is byte-identical to the surviving classes of
        # the faulted run (same shard geometry, same summation order).
        clean = execute_plan(db, plan, shard_set=shard_set, n_workers=4)
        assert not clean.failures
        assert_same_answers(
            base.results.values(), clean.results.values(), "sharded"
        )
        for qid, result in surviving.items():
            assert clean.results[qid].groups == result.groups

    def test_shard_filter_spares_other_shards(self, db):
        plan = db.optimize(queries(), "gg")
        shard_set = build_shards(db, 2)
        fault = FaultPlan(
            [InjectionPoint(site="shard.exec", shard=7)], seed=0
        )
        db.arm_faults(fault)
        try:
            report = execute_plan(db, plan, shard_set=shard_set, n_workers=4)
        finally:
            db.disarm_faults()
        assert fault.n_fired == 0
        assert not report.failures


class TestServeIntegration:
    def test_sharded_service_answers_identically(self, db):
        from repro.serve import QueryService

        batch = queries()
        base = execute_plan(db, db.optimize(batch, "gg"), n_workers=4)
        service = QueryService(db, ServeConfig(window_ms=5.0, shards=3))
        with service:
            response = service.submit(batch).result(timeout=30.0)
        for query in batch:
            got = response.result_for(query)
            assert got.approx_equals(base.result_for(query)), query.label

    def test_shard_set_rebuilt_after_mutation(self, db):
        from repro.serve import QueryService

        service = QueryService(db, ServeConfig(window_ms=5.0, shards=2))
        first = service._shards()
        assert service._shards() is first
        db.notify_mutation()
        assert service._shards() is not first

    def test_config_rejects_bad_shard_settings(self):
        with pytest.raises(ValueError, match="shards"):
            ServeConfig(shards=0)
        with pytest.raises(ValueError, match="cold"):
            ServeConfig(shards=2, cold=False)
